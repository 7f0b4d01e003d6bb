import numpy as np
import pytest

from bcmac import ChannelSet, LinearConstraint, SinrTargets
from bcmac.errors import GridBudgetExceeded, InvalidInput
from bcmac.oracles import (
    GridSpec,
    brute_power_min,
    brute_sinr_balance,
    brute_wsr,
    finite_diff_gradient,
)

from conftest import rand_complex, rand_pd


def test_brute_wsr_scalar_closed_form():
    ch = ChannelSet([[[1.0]]])
    got = brute_wsr(ch, [LinearConstraint(np.eye(1), 4.0)], [1.0],
                    GridSpec(resolution=30, rounds=6))
    assert got == pytest.approx(np.log(5.0), abs=1e-9)


def test_brute_wsr_small_budget():
    ch = ChannelSet([[[1.0]]])
    got = brute_wsr(ch, [LinearConstraint(np.eye(1), 1e-9)], [1.0])
    assert 0.0 <= got <= 1.1e-9


def test_brute_wsr_refinement_monotone(rng):
    ch = ChannelSet([rng.normal(size=(2, 2)).astype(complex) for _ in range(2)])
    cons = [LinearConstraint(np.eye(2), 2.0)]
    w = [2.0, 1.0]
    vals = [brute_wsr(ch, cons, w, GridSpec(resolution=9, rounds=r, shrink=0.45))
            for r in (1, 2, 4, 6)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_brute_wsr_rejects_complex(rng):
    ch = ChannelSet([rand_complex(rng, (2, 2))])
    with pytest.raises(InvalidInput):
        brute_wsr(ch, [LinearConstraint(np.eye(2), 1.0)], [1.0])


def test_brute_wsr_rejects_unbounded():
    ch = ChannelSet([np.eye(2)])
    with pytest.raises(InvalidInput):
        brute_wsr(ch, [LinearConstraint.per_antenna(2, 0, 1.0)], [1.0])


def test_brute_wsr_rejects_a_near_singular_constraint():
    """A single constraint the oracle would whiten with a 1e7 gain is not
    positive definite to it, although it bounds the feasible set."""
    ch = ChannelSet([np.eye(2)])
    with pytest.raises(InvalidInput, match="positive definite"):
        brute_wsr(ch, [LinearConstraint(np.diag([1.0, 1e-14]), 1.0)], [1.0])


def test_grid_budget_guard():
    ch = ChannelSet([np.eye(2).astype(complex) for _ in range(2)])
    cons = [LinearConstraint(np.eye(2), 1.0), LinearConstraint.per_antenna(2, 0, 1.0)]
    with pytest.raises(GridBudgetExceeded):
        brute_wsr(ch, cons, [1, 1], GridSpec(resolution=50, budget=1e6))


def test_brute_balance_single_user():
    ch = ChannelSet([[[2.0, 0.0]]])
    got = brute_sinr_balance(ch, [LinearConstraint(np.eye(2), 3.0)],
                             SinrTargets([2.0]))
    assert got == pytest.approx(3.0 * 4.0 / 2.0, rel=1e-6)


def test_brute_balance_target_scaling(rng):
    ch = ChannelSet([rng.normal(size=(1, 2)).astype(complex) for _ in range(2)])
    cons = [LinearConstraint(np.eye(2), 2.0)]
    a1 = brute_sinr_balance(ch, cons, SinrTargets([1.0, 1.0]))
    a2 = brute_sinr_balance(ch, cons, SinrTargets([2.0, 2.0]))
    assert a2 == pytest.approx(a1 / 2.0, rel=1e-6)


def test_brute_power_min_single_user():
    ch = ChannelSet([[[2.0, 0.0]]])
    got = brute_power_min(ch, [LinearConstraint(np.eye(2), 1.0)], SinrTargets([2.0]))
    assert got == pytest.approx(2.0 / 4.0, rel=1e-8)


def test_finite_diff_linear(rng):
    A = rand_pd(rng, 2)
    f = lambda Q: float(np.real(np.trace(Q @ A)))
    G = finite_diff_gradient(f, np.eye(2, dtype=complex), 1e-5)
    assert np.max(np.abs(G - A)) < 1e-8


def test_finite_diff_constant():
    G = finite_diff_gradient(lambda Q: 3.25, np.eye(3, dtype=complex), 1e-5)
    assert np.max(np.abs(G)) < 1e-12


def test_finite_diff_logdet_sandwich(rng):
    H = rand_complex(rng, (2, 2))
    Q0 = 0.6 * np.eye(2, dtype=complex)

    def f(Q):
        return float(np.linalg.slogdet(np.eye(2) + H @ Q @ H.conj().T)[1].real)

    G = finite_diff_gradient(f, Q0, 1e-5)
    want = H.conj().T @ np.linalg.inv(np.eye(2) + H @ Q0 @ H.conj().T) @ H
    assert np.max(np.abs(G - want)) <= 1e-5 * max(1.0, np.max(np.abs(want)))


def test_finite_diff_step_range():
    with pytest.raises(InvalidInput):
        finite_diff_gradient(lambda Q: 0.0, np.eye(2), 1e-2)


# One user whose best beam sits at angle pi - 0.05: on the pi-periodic circle
# that is next to the first grid's angle 0, which a window clipped to [0, pi]
# cannot reach.
NEAR_PI = ChannelSet([2.0 * np.array([[np.cos(np.pi - 0.05), np.sin(np.pi - 0.05)]])])


def test_brute_balance_near_pi_beam():
    got = brute_sinr_balance(NEAR_PI, [LinearConstraint(np.eye(2), 3.0)],
                             SinrTargets([2.0]))
    assert got == pytest.approx(3.0 * 4.0 / 2.0, rel=1e-6)


def test_brute_power_min_near_pi_beam():
    got = brute_power_min(NEAR_PI, [LinearConstraint(np.eye(2), 1.0)],
                          SinrTargets([2.0]))
    assert got == pytest.approx(2.0 / 4.0, rel=1e-6)


@pytest.mark.parametrize("extra", [[], [LinearConstraint.per_antenna(2, 0, 100.0)]],
                         ids=["single", "slack_per_antenna"])
def test_brute_wsr_near_pi_beam(extra):
    cons = [LinearConstraint(np.eye(2), 3.0)] + extra
    got = brute_wsr(NEAR_PI, cons, [1.0])
    assert got == pytest.approx(np.log(1.0 + 4.0 * 3.0), abs=1e-6)
