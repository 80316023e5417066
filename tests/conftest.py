import numpy as np
import pytest
from hypothesis import settings

from wlflow import flows, synth
from wlflow.core import FlowMap, Hyperparams

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


def eager_armijo_descent(fn, x, value, grad, eta, max_steps, tolerance, on_step):
    """Reference copy of `core.armijo_descent` as it ran before gradients were
    deferred: every trial builds its gradient, accepted or not."""
    for _ in range(max_steps):
        gnorm2 = float((grad ** 2).sum())
        if gnorm2 == 0.0:
            return x, True
        step = eta
        for _ in range(40):
            cand = x - step * grad
            v_new, gradient = fn(cand)
            g_new = gradient()
            if v_new <= value - 1e-4 * step * gnorm2:
                break
            step *= 0.5
        else:
            return x, True
        delta = float(np.abs(cand - x).max())
        x, value, grad = cand, v_new, g_new
        on_step(x, value, step)
        eta = step * 2.0
        if delta < tolerance:
            return x, True
    return x, False


def full_raster_surrogate(arr, priors, hp, opts, tau):
    """Reference copy of `flows._surrogate` as it ran before smoothness moved
    onto the active box: it runs on the whole raster and rebuilds its masks at
    every evaluation."""
    flow = FlowMap(arr)
    f_val, f_grad = flows.kin.smooth_skeleton_constraint(
        flow, priors.offsets, priors.matches, priors.mask, hp, tau
    )
    g_val, g_backward = flows.bnd.soft_boundary_constraint(flow, priors.boundary, hp, tau)
    labels = priors.mask.labels
    h, w = arr.shape[:2]
    same_x = (labels[:, 1:] == labels[:, :-1])[..., None]
    same_y = (labels[1:, :] == labels[:-1, :])[..., None]
    dx = (arr[:, 1:, :] - arr[:, :-1, :]) * same_x
    dy = (arr[1:, :, :] - arr[:-1, :, :]) * same_y
    s_val = float((dx ** 2).sum() + (dy ** 2).sum()) / (h * w)
    value = f_val + hp.alpha * g_val + opts.smoothness_weight * s_val

    def gradient():
        s_grad = np.zeros_like(arr)
        s_grad[:, 1:, :] += 2.0 * dx
        s_grad[:, :-1, :] -= 2.0 * dx
        s_grad[1:, :, :] += 2.0 * dy
        s_grad[:-1, :, :] -= 2.0 * dy
        total = f_grad() + hp.alpha * g_backward()
        total += opts.smoothness_weight * (s_grad / (h * w))
        return total

    return value, gradient


class GradientLedger:
    """Spies on `module.evaluator`, which returns (value, gradient callable),
    and on `module.armijo_descent`: counts every gradient call, and records
    per line-search trial its candidate and gradient calls, and the
    candidates the line search accepted."""

    def __init__(self, monkeypatch, module, evaluator: str):
        self.calls = 0
        self.descents = 0
        self.trials = []  # [candidate, gradient calls] per trial
        self.accepted = []
        real_eval, real_descent = getattr(module, evaluator), module.armijo_descent

        def counting(*args):
            value, gradient = real_eval(*args)

            def counted():
                self.calls += 1
                return gradient()

            return value, counted

        def spied_descent(fn, x, value, grad, eta, max_steps, tolerance, on_step):
            self.descents += 1

            def trial(cand):
                value, gradient = fn(cand)
                record = [cand, 0]
                self.trials.append(record)

                def counted():
                    record[1] += 1
                    return gradient()

                return value, counted

            def accept(x, value, step):
                self.accepted.append(x)
                on_step(x, value, step)

            return real_descent(trial, x, value, grad, eta, max_steps, tolerance, accept)

        monkeypatch.setattr(module, evaluator, counting)
        monkeypatch.setattr(module, "armijo_descent", spied_descent)

    def check(self) -> None:
        """Each accepted trial called its gradient once and no rejected one did;
        all gradient calls are those plus one at the start of each descent."""
        was_accepted = [any(cand is x for x in self.accepted) for cand, _ in self.trials]
        assert 0 < sum(was_accepted) < len(self.trials)
        assert [calls for _, calls in self.trials] == [int(a) for a in was_accepted]
        assert self.calls == len(self.accepted) + self.descents
