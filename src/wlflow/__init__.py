"""Skeleton- and boundary-constrained world/local flow toolkit."""

from .core import (
    EPS_CONF,
    EPS_VEC,
    FlowMap,
    Hyperparams,
    Keypoint,
    KeypointFrame,
    PointSet,
    SubjectMask,
    Vec2,
    validate_pairing,
)

__all__ = [
    "EPS_CONF",
    "EPS_VEC",
    "FlowMap",
    "Hyperparams",
    "Keypoint",
    "KeypointFrame",
    "PointSet",
    "SubjectMask",
    "Vec2",
    "validate_pairing",
]

__version__ = "0.1.0"
