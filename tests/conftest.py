import numpy as np
import pytest
from hypothesis import settings

from wlflow import flows, synth
from wlflow.core import Hyperparams

# Property tests draw the same examples on every run and have no time limit.
settings.register_profile("wlflow", derandomize=True, deadline=None)
settings.load_profile("wlflow")


@pytest.fixture(scope="session")
def reference_truth():
    """The 128x128 single-subject walking scene used throughout."""
    return synth.generate_scene(synth.single_figure_scene())


@pytest.fixture(scope="session")
def reference_priors(reference_truth):
    t = reference_truth
    return flows.Priors.build(t.keypoints[0], t.keypoints[1], t.mask_t, t.boundary_t)


@pytest.fixture(scope="session")
def small_truth():
    """Compact 64x64 scene for gradient checks and oracles."""
    return synth.generate_scene(synth.random_scene(3, 64, 64, length_scale=0.55))


@pytest.fixture(scope="session")
def small_priors(small_truth):
    t = small_truth
    return flows.Priors.build(t.keypoints[0], t.keypoints[1], t.mask_t, t.boundary_t)


@pytest.fixture()
def hp():
    return Hyperparams()


def make_circle(center=(48.0, 48.0), radius=20.0, n=400):
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.stack([center[0] + radius * np.cos(theta),
                     center[1] + radius * np.sin(theta)], axis=1)


def make_square(center=(48.0, 48.0), side=10.0, n=400):
    t = np.linspace(0, 4, n, endpoint=False)
    pts = []
    half = side / 2
    for tt in t:
        k = int(tt)
        f = tt - k
        if k == 0:
            p = (-half + f * side, -half)
        elif k == 1:
            p = (half, -half + f * side)
        elif k == 2:
            p = (half - f * side, half)
        else:
            p = (-half, half - f * side)
        pts.append((center[0] + p[0], center[1] + p[1]))
    return np.asarray(pts)
