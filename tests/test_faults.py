"""Faults in the mirror-descent loop every solver runs, each caught by a named check.

Each case applies one fault by monkeypatch, with no source edit, and runs an
existing test of the suite that must then fail. None of the checks is a byte
pin: a pin fails for any change, benign or not, so it shows nothing about a
fault. Each check passes in its own module on the unbroken code.
"""
import math

import pytest

import test_sco
import test_solvers
from dpsimplex import sco, simplex, solvers
from test_sco import quad  # noqa: F401  (the fixture test_sco's checks take)

CHECK_FAILED = (AssertionError, pytest.fail.Exception)  # a failed assert or "DID NOT RAISE"


def y_block_ascends(monkeypatch):
    """The saddle solvers' y log-weights move against the direction their step returns."""
    loop = solvers.mirror_descent

    def ascending(dims, rows, tau, schedule, step):
        def y_flipped(item, x_t, y_t):
            dx, dy = step(item, x_t, y_t)
            return dx, -dy

        return loop(dims, rows, tau, schedule, y_flipped)

    monkeypatch.setattr(solvers, "mirror_descent", ascending)


def surrogate_never_refreshed_after_q(monkeypatch):
    """The SCO surrogate is redrawn on steps 1..q only, never on a later multiple of q."""
    monkeypatch.setattr(sco, "_rounds", lambda T, q: ((t, t <= q) for t in range(1, T + 1)))


def mwu_step_without_finiteness_check(monkeypatch):
    """``mwu_step`` keeps its step-size and width raises but accepts non-finite log-weights."""

    def unchecked(logw, g, tau=1.0):
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"step size must be positive and finite, got {tau!r}")
        if g.shape[-1:] != logw.shape[-1:]:
            raise ValueError(f"gradient shape {g.shape} does not match {logw.shape}")
        return logw + tau * g

    monkeypatch.setattr(simplex, "mwu_step", unchecked)


FAULTS = {
    "y_block_ascends": (
        y_block_ascends,
        lambda request: test_solvers.test_baseline_gap_decreases_with_horizon(),
    ),
    "sco_surrogate_never_refreshed_after_q": (
        surrogate_never_refreshed_after_q,
        lambda request: test_sco.test_refresh_count_matches_schedule(
            request.getfixturevalue("quad")),
    ),
    **{
        f"mwu_step_finiteness_check_dropped-{solver}": (
            mwu_step_without_finiteness_check,
            lambda request, solver=solver: test_solvers.test_non_finite_gradient_stops_the_run(
                solver),
        )
        for solver in ("smd_vertex", "bias_reduced", "dp_sco")
    },
}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("fault", FAULTS)
def test_named_check_fails_under_loop_fault(monkeypatch, request, fault):
    apply, check = FAULTS[fault]
    apply(monkeypatch)
    with pytest.raises(CHECK_FAILED):
        check(request)
