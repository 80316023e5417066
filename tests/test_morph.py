import tracemalloc

import numpy as np
import pytest

from wlflow import boundary as bnd
from wlflow import flows, synth
from wlflow.core import Hyperparams, PointSet
from wlflow.errors import EmptyPointSet, ValidationError

from conftest import GradientLedger, eager_armijo_descent, make_circle, make_square


def test_identity_morph_is_zero_at_start():
    curve = PointSet(make_circle())
    res = bnd.morph_curve_fit(curve, curve, bnd.MorphOptions(width=96, height=96))
    assert res.objective_trace[0] == 0.0
    assert np.all(res.displacement == 0.0)
    assert res.converged


def test_morph_recovers_translation():
    moving = PointSet(make_circle())
    target = PointSet(moving.points + (4.0, 0.0))
    res = bnd.morph_curve_fit(moving, target, bnd.MorphOptions(width=96, height=96))
    disp = res.moved.points - moving.points
    mean = disp.mean(axis=0)
    assert abs(mean[0] - 4.0) <= 0.5
    assert abs(mean[1]) <= 0.5


def test_morph_circle_to_square_reduces_chamfer():
    radius = 20.0
    moving = PointSet(make_circle(radius=radius))
    # equal perimeter: side = pi * r / 2
    target = PointSet(make_square(side=np.pi * radius / 2))
    before = bnd.exact_chamfer(moving, target)
    res = bnd.morph_curve_fit(moving, target, bnd.MorphOptions(width=96, height=96))
    after = bnd.exact_chamfer(res.moved, target)
    assert after <= 0.2 * before


def test_morph_trace_is_monotone():
    moving = PointSet(make_circle())
    target = PointSet(moving.points + (3.0, 2.0))
    res = bnd.morph_curve_fit(moving, target, bnd.MorphOptions(width=96, height=96))
    trace = res.objective_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_morph_equals_eager_line_search(monkeypatch):
    """Gradients only at accepted steps give bitwise the fit of a line search
    that builds one at every trial."""
    moving = PointSet(make_circle(radius=20.0))
    target = PointSet(make_square(side=np.pi * 20.0 / 2))
    opts = bnd.MorphOptions(width=96, height=96)
    with monkeypatch.context() as m:
        m.setattr(bnd, "armijo_descent", eager_armijo_descent)
        eager = bnd.morph_curve_fit(moving, target, opts)
    ledger = GradientLedger(monkeypatch, bnd, "_morph_loss")
    res = bnd.morph_curve_fit(moving, target, opts)
    assert res.moved.points.tobytes() == eager.moved.points.tobytes()
    assert res.displacement.tobytes() == eager.displacement.tobytes()
    assert res.objective_trace == eager.objective_trace
    assert res.converged == eager.converged
    assert ledger.descents == 1
    ledger.check()


def test_morph_point_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    moving = make_circle(n=120)
    target = make_square(side=30.0, n=120)
    scales = (8, 16, 32)
    grids = bnd._morph_target_grids(target, scales, 96, 96)
    _, gradient = bnd._morph_loss(moving, grids, scales)
    grad = gradient()
    h = 1e-6
    worst = 0.0
    for i, c in zip(rng.integers(0, len(moving), 40), rng.integers(0, 2, 40)):
        plus, minus = moving.copy(), moving.copy()
        plus[i, c] += h
        minus[i, c] -= h
        vp, _ = bnd._morph_loss(plus, grids, scales)
        vm, _ = bnd._morph_loss(minus, grids, scales)
        fd = (vp - vm) / (2 * h)
        denom = max(abs(fd), abs(grad[i, c]), 1e-8)
        worst = max(worst, abs(fd - grad[i, c]) / denom)
    assert worst < 1e-4


def test_morph_empty_inputs_raise():
    curve = PointSet(make_circle())
    with pytest.raises(EmptyPointSet):
        bnd.morph_curve_fit(PointSet(np.zeros((0, 2))), curve)
    with pytest.raises(EmptyPointSet):
        bnd.morph_curve_fit(curve, PointSet(np.zeros((0, 2))))


@pytest.mark.parametrize("kwargs, message", [
    ({"max_iters": True}, "max_iters must be an integer"),
    ({"max_iters": 2.5}, "max_iters must be an integer"),
    ({"max_iters": 0}, "max_iters must be >= 1"),
    ({"tolerance": float("nan")}, "tolerance must be a finite number"),
    ({"tolerance": float("inf")}, "tolerance must be a finite number"),
    ({"tolerance": True}, "tolerance must be a finite number"),
    ({"tolerance": 0.0}, "tolerance must be positive"),
    ({"tolerance": -1e-4}, "tolerance must be positive"),
    ({"width": -5}, "width must be >= 1"),
    ({"width": 0}, "width must be >= 1"),
    ({"width": 96.5}, "width must be an integer"),
    ({"height": True}, "height must be an integer"),
    ({"height": -1}, "height must be >= 1"),
])
def test_morph_options_refuse_bad_values(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        bnd.MorphOptions(**kwargs)


# The positive fields besides the two tolerances, each with a builder of an object that holds a value there.
_POSITIVE_FIELDS = {
    **{name: lambda v, name=name: Hyperparams(**{name: v})
       for name in ("alpha", "beta", "edge_theta_i", "edge_theta_a")},
    "each capsule_radii entry": lambda v: synth.SubjectSpec(capsule_radii=synth.DEFAULT_RADII[:-1] + (v,)),
}


@pytest.mark.parametrize("cls", [bnd.MorphOptions, flows.SolverOptions])
@pytest.mark.parametrize("kwargs, message", [
    ({"max_iters": np.float32(2.5)}, "max_iters must be an integer"),
    ({"max_iters": np.float64(3.0)}, "max_iters must be an integer"),
    ({"max_iters": np.int64(0)}, "max_iters must be >= 1"),
    ({"tolerance": np.float64("nan")}, "tolerance must be a finite number"),
    ({"tolerance": -1}, "tolerance must be positive"),
    ({"tolerance": np.float64(0.0)}, "tolerance must be positive"),
])
def test_morph_and_solver_options_share_budget_rules(cls, kwargs, message):
    """Both option classes refuse a bad budget or tolerance with the same message,
    numpy scalars included; a numpy integer budget is accepted. A tolerance
    that is not positive is refused, by the same rule, in every other positive
    field: `Hyperparams`' alpha, beta and edge thresholds and each capsule radius."""
    with pytest.raises(ValidationError, match=message):
        cls(**kwargs)
    assert cls(max_iters=np.int64(3)).max_iters == 3
    if message.endswith("must be positive"):
        for name, build in _POSITIVE_FIELDS.items():
            with pytest.raises(ValidationError, match=f"^{name} must be positive$"):
                build(kwargs["tolerance"])


def test_morph_reports_best_iterate_when_budget_exhausted():
    moving = PointSet(make_circle())
    target = PointSet(moving.points + (6.0, -3.0))
    res = bnd.morph_curve_fit(
        moving, target, bnd.MorphOptions(width=96, height=96, max_iters=2, tolerance=1e-12)
    )
    assert not res.converged
    assert res.objective_trace[-1] <= res.objective_trace[0]


@pytest.mark.parametrize("moving, target, opts, message", [
    pytest.param(make_circle((50.0, 50.0), 10.0), make_circle((53.0, 53.0), 10.0),
                 bnd.MorphOptions(width=40, height=40), "curve moving has points outside the 40x40 raster",
                 id="past-a-given-raster"),
    pytest.param(make_circle((20.0, 20.0), 10.0), make_circle((20.0, 50.0), 10.0),
                 bnd.MorphOptions(width=40, height=40), "curve target has points outside the 40x40 raster",
                 id="target-past-a-given-raster"),
    pytest.param(make_circle((5.0, 30.0), 10.0), make_circle((8.0, 33.0), 10.0),
                 bnd.MorphOptions(), "curve moving has points outside the 20x45 raster",
                 id="negative-x-on-a-fitted-raster"),
    pytest.param(make_circle((30.0, 30.0), 10.0), make_circle((33.0, 5.0), 10.0),
                 bnd.MorphOptions(), "curve target has points outside the 45x42 raster",
                 id="negative-y-on-a-fitted-raster"),
])
def test_morph_refuses_curves_off_the_raster(moving, target, opts, message):
    """A point off the raster would never enter a cell, and the fit would
    "converge" without it; such a curve is refused, naming it and the raster."""
    with pytest.raises(ValidationError, match=message):
        bnd.morph_curve_fit(PointSet(moving), PointSet(target), opts)


@pytest.mark.parametrize("moving, opts", [
    pytest.param(make_circle(), bnd.MorphOptions(width=8192, height=8192, max_iters=1), id="given"),
    pytest.param(np.vstack([make_circle(), [[8000.0, 8000.0]]]), bnd.MorphOptions(max_iters=1), id="fitted"),
])
def test_morph_refuses_a_raster_past_the_pixel_cap(moving, opts):
    """A raster of more than 2^24 pixels, given or fitted to the curves, is
    refused before its cell grids are allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="at most 16777216 pixels"):
            bnd.morph_curve_fit(PointSet(moving), PointSet(make_circle()), opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_morph_accepts_curves_on_the_raster_edges():
    """Points at 0 and just below the width and height are on the raster."""
    square = np.array([[0.0, 0.0], [39.5, 0.0], [39.5, 39.5], [0.0, 39.5]])
    res = bnd.morph_curve_fit(PointSet(square), PointSet(square), bnd.MorphOptions(width=40, height=40))
    assert res.objective_trace[0] == 0.0
