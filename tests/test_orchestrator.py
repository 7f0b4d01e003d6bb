from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcmac import (
    ChannelSet,
    CovarianceSet,
    LinearConstraint,
    SinrTargets,
    SolverSettings,
    bc_rates_dpc,
    bc_sinr,
    constraint_value,
    solve_wsr_mac,
)
from bcmac import model, orchestrator
from bcmac.errors import InvalidInput
from bcmac.orchestrator import (
    AffineHalfspace,
    DualWeights,
    QuadraticBall,
    combined_constraint,
    eval_wsr_relaxation,
    solve_power_balance_multi,
    solve_sinr_balance_multi,
    solve_wsr_multi,
    solve_wsr_nonlinear,
)
from bcmac.oracles import GridSpec, brute_power_min, brute_sinr_balance

from conftest import rand_channels, rand_pd, rand_psd

INNER = SolverSettings(tol=1e-8)
OUTER = SolverSettings(max_iters=60, tol=1e-8)

H1_CAP = [[1.0, 0.0], [0.2, 0.6]]
H2_CAP = [[0.5, 0.0], [0.2, 1.0]]


def test_dual_weights_normalize():
    lam = DualWeights([2.0, 6.0])
    assert np.allclose(lam.values, [0.25, 0.75])
    assert np.all(DualWeights([1.0, 0.0]).values >= 1e-7)
    with pytest.raises(InvalidInput):
        DualWeights([0.0, 0.0])


def test_combined_constraint_jitters_singular():
    cons = [LinearConstraint.per_antenna(2, 0, 5.0),
            LinearConstraint.per_antenna(2, 1, 5.0)]
    A, budget = combined_constraint(cons, DualWeights([1.0, 0.0]))
    assert np.linalg.eigvalsh(A)[0] > 0
    assert budget == pytest.approx(5.0, rel=1e-6)


def test_relaxation_single_constraint_reduction(rng):
    ch = ChannelSet(rand_channels(rng, 2, 2, 2))
    c = LinearConstraint(rand_pd(rng, 2), 3.0)
    g, cov, sol = eval_wsr_relaxation(ch, [c], DualWeights([1.0]), [1, 1], INNER)
    direct = solve_wsr_mac(ch, c.A, c.P, [1, 1], INNER)
    assert g == pytest.approx(direct.objective, abs=1e-7)


def test_relaxation_scale_invariance(rng):
    """Scaling all multipliers rescales noise and budget together and leaves
    the bound unchanged (solved without the simplex normalization)."""
    ch = ChannelSet(rand_channels(rng, 2, 2, 2))
    cons = [LinearConstraint(rand_pd(rng, 2), 2.0),
            LinearConstraint(rand_pd(rng, 2), 1.0)]
    lam = np.array([0.3, 0.7])
    for t in (0.5, 2.0, 10.0):
        A1 = sum(l * c.A for l, c in zip(lam, cons))
        B1 = sum(l * c.P for l, c in zip(lam, cons))
        A2 = sum(l * c.A for l, c in zip(t * lam, cons))
        B2 = sum(l * c.P for l, c in zip(t * lam, cons))
        g1 = solve_wsr_mac(ch, A1, B1, [1, 1], INNER).objective
        g2 = solve_wsr_mac(ch, A2, B2, [1, 1], INNER).objective
        assert abs(g1 - g2) <= 1e-6


def test_relaxation_upper_bounds_multi(rng):
    ch = ChannelSet([H1_CAP, H2_CAP])
    cons = [LinearConstraint.per_antenna(2, 0, 5.0),
            LinearConstraint.per_antenna(2, 1, 5.0)]
    cov, lam, tr = solve_wsr_multi(ch, cons, [1, 1], OUTER, INNER)
    final = float(np.sum(bc_rates_dpc(ch, cov)))
    for lam_try in ([0.5, 0.5], [0.2, 0.8], [0.9, 0.1]):
        g, _, _ = eval_wsr_relaxation(ch, cons, DualWeights(lam_try), [1, 1], INNER)
        assert g >= final - 1e-6


def test_subgradient_inequality(rng):
    ch = ChannelSet(rand_channels(rng, 2, 2, 2, real=True))
    cons = [LinearConstraint(rand_pd(rng, 2), 2.0),
            LinearConstraint(rand_pd(rng, 2), 1.5)]
    w = [1.5, 1.0]
    for _ in range(10):
        lam = DualWeights(rng.dirichlet([1.5, 1.5])).values
        lam2 = DualWeights(rng.dirichlet([1.5, 1.5])).values
        g1, cov1, sol1 = eval_wsr_relaxation(ch, cons, DualWeights(lam), w, INNER)
        g2, _, _ = eval_wsr_relaxation(ch, cons, DualWeights(lam2), w, INNER)
        sub = sol1.multiplier * model.constraint_slacks(cov1, cons)  # mu (P_l - tr(Q A_l))
        assert g2 >= g1 + float(sub @ (lam2 - lam)) - 1e-5


def test_bound_convexity_midpoint(rng):
    ch = ChannelSet(rand_channels(rng, 2, 2, 2, real=True))
    cons = [LinearConstraint(rand_pd(rng, 2), 2.0),
            LinearConstraint(rand_pd(rng, 2), 1.5)]
    w = [1.0, 1.0]
    for _ in range(5):
        lam = rng.dirichlet([2, 2])
        lam2 = rng.dirichlet([2, 2])
        g = lambda l: eval_wsr_relaxation(ch, cons, DualWeights(l), w, INNER)[0]
        assert g(0.5 * (lam + lam2)) <= 0.5 * (g(lam) + g(lam2)) + 1e-5


def test_redundant_constraint_multiplier_vanishes():
    ch = ChannelSet([H1_CAP, H2_CAP])
    cons = [LinearConstraint.sum_power(2, 10.0),
            LinearConstraint(np.eye(2), 20.0)]
    cov, lam, tr = solve_wsr_multi(ch, cons, [1, 1], OUTER, INNER)
    assert lam.values[1] < 1e-3
    single, _, _ = solve_wsr_multi(ch, [cons[0]], [1, 1], OUTER, INNER)
    assert np.sum(bc_rates_dpc(ch, cov)) == pytest.approx(
        float(np.sum(bc_rates_dpc(ch, single))), abs=1e-5)


def test_multi_constraint_feasible_and_complementary():
    ch = ChannelSet([H1_CAP, H2_CAP])
    cons = [LinearConstraint.per_antenna(2, 0, 5.0),
            LinearConstraint.per_antenna(2, 1, 5.0)]
    cov, lam, tr = solve_wsr_multi(ch, cons, [1, 1], OUTER, INNER)
    feas_tol = 1e-5 * 5.0
    for l, c in zip(lam.values, cons):
        used = constraint_value(cov, c)
        assert used <= c.P + feas_tol
        assert abs(l * (used - c.P)) <= feas_tol
    assert tr.converged
    rb = tr.running_best("min")
    assert np.all(np.diff(rb) <= 1e-12)


def test_mixed_constraints_dominated():
    ch = ChannelSet([H1_CAP, H2_CAP])
    sum8 = LinearConstraint.sum_power(2, 8.0)
    pa = [LinearConstraint.per_antenna(2, a, 5.0) for a in range(2)]
    cov_m, _, _ = solve_wsr_multi(ch, [sum8] + pa, [1, 1], OUTER, INNER)
    cov_s, _, _ = solve_wsr_multi(ch, [sum8], [1, 1], OUTER, INNER)
    cov_p, _, _ = solve_wsr_multi(ch, pa, [1, 1], OUTER, INNER)
    wsr = lambda c: float(np.sum(bc_rates_dpc(ch, c)))
    assert wsr(cov_m) <= wsr(cov_s) + 1e-5
    assert wsr(cov_m) <= wsr(cov_p) + 1e-5


def test_balance_single_constraint_matches_oracle(rng):
    ch = ChannelSet(rand_channels(rng, 2, 1, 2, real=True))
    cons = [LinearConstraint.sum_power(2, 4.0)]
    gam = SinrTargets([1.0, 1.0])
    alpha, bf, lam, tr = solve_sinr_balance_multi(ch, cons, gam, OUTER, INNER)
    ref = brute_sinr_balance(ch, cons, gam, GridSpec(resolution=32, rounds=7))
    assert alpha == pytest.approx(ref, abs=1e-3)


def test_balance_target_scaling():
    ch = ChannelSet([H1_CAP, H2_CAP])
    cons = [LinearConstraint.per_antenna(2, a, 5.0) for a in range(2)]
    a1, _, _, _ = solve_sinr_balance_multi(ch, cons, SinrTargets([1.0, 1.0]),
                                           OUTER, INNER)
    a3, _, _, _ = solve_sinr_balance_multi(ch, cons, SinrTargets([3.0, 3.0]),
                                           OUTER, INNER)
    assert a3 == pytest.approx(a1 / 3.0, rel=1e-4)


def test_balance_scenario_feasible_active():
    H1 = [[1.0, 0.0], [0.5, 0.6]]
    H2 = [[0.4, 0.0], [0.5, 1.5]]
    ch = ChannelSet([H1, H2])
    cons = [LinearConstraint.per_antenna(2, a, 5.0) for a in range(2)]
    alpha, bf, lam, tr = solve_sinr_balance_multi(ch, cons, SinrTargets([1, 1]),
                                                  OUTER, INNER)
    cov = bf.bc_covariances()
    for c in cons:
        assert constraint_value(cov, c) <= c.P + 5e-5
    assert np.max(lam.values) > 1e-3  # at least one active multiplier
    rb = tr.running_best("min")
    assert np.all(np.diff(rb) <= 1e-12)


def test_power_balance_single_constraint_is_power_min(rng):
    ch = ChannelSet(rand_channels(rng, 2, 1, 2, real=True))
    gam = SinrTargets([1.0, 0.8])
    cons = [LinearConstraint.sum_power(2, 2.0)]
    alpha, bf, lam, tr = solve_power_balance_multi(ch, cons, gam, OUTER, INNER)
    from bcmac import solve_power_min_mac

    total, _ = solve_power_min_mac(ch, np.eye(2), gam, INNER)
    assert alpha == pytest.approx(total / 2.0, rel=1e-8)


def test_power_balance_symmetric_instance():
    # Swapping the antennas maps h1 to h2 and per-antenna budget 1 to budget
    # 2, but it does not swap the DPC encoding positions: the user encoded
    # first is interfered by the second, the second sees no interference.
    # The mirror image of the (0, 1)-ordered instance is therefore the
    # (1, 0)-ordered instance, so the two orders share alpha and have
    # reversed multipliers; neither has lam = (1/2, 1/2).
    h1 = [[1.0, 0.5]]
    h2 = [[0.5, 1.0]]
    cons = [LinearConstraint.per_antenna(2, a, 1.0) for a in range(2)]
    gam = SinrTargets([1.0, 1.0])
    alphas, lams = [], []
    for order in ((0, 1), (1, 0)):
        ch = ChannelSet([h1, h2], encoding_order=order)
        alpha, bf, lam, tr = solve_power_balance_multi(ch, cons, gam, OUTER, INNER)
        cov = bf.bc_covariances()
        r = [constraint_value(cov, c) / c.P for c in cons]
        assert r[0] == pytest.approx(r[1], rel=1e-3)
        # tight duality: the achieved ratio is the largest bound evaluated
        assert alpha == pytest.approx(max(tr.value), rel=1e-6)
        alphas.append(alpha)
        lams.append(lam.values)
    assert alphas[0] == pytest.approx(alphas[1], rel=1e-6)
    assert np.max(np.abs(lams[0] - lams[1][::-1])) <= 1e-3


def test_power_balance_vs_oracle(rng):
    gam = SinrTargets([1.0, 1.0])
    for _ in range(3):
        ch = ChannelSet(rand_channels(rng, 2, 1, 2, real=True))
        X = rng.normal(size=(2, 2))
        cons = [LinearConstraint.sum_power(2, 1.0),
                LinearConstraint(X @ X.T / 2 + 0.4 * np.eye(2), 1.0)]
        alpha, bf, lam, tr = solve_power_balance_multi(ch, cons, gam, OUTER, INNER)
        ref = brute_power_min(ch, cons, gam, GridSpec(resolution=48, rounds=8))
        assert alpha == pytest.approx(ref, abs=1e-3)
        cov = bf.bc_covariances()
        comp = [l * (constraint_value(cov, c) - alpha * c.P)
                for l, c in zip(lam.values, cons)]
        assert np.max(np.abs(comp)) <= 1e-5
        s = bc_sinr(ch, bf, "dpc")
        for i in range(2):
            assert s[i][0] >= gam.gamma[i] - 1e-6


def test_balancing_three_constraints_vs_oracle(rng):
    """Three constraints take the central cutting-plane search; its cuts use
    only subgradient directions, which the quasi-convex balancing bounds
    keep valid.  Both balancing results meet the grid oracles, every
    constraint holds, and the search converges."""
    gam = SinrTargets([1.0, 0.7])
    outer = SolverSettings(max_iters=120, tol=1e-6)
    for _ in range(2):
        ch = ChannelSet(rand_channels(rng, 2, 1, 2, real=True))
        X = rng.normal(size=(2, 2))
        cons = [LinearConstraint.sum_power(2, 1.0),
                LinearConstraint(X @ X.T / 2 + 0.4 * np.eye(2), 1.0),
                LinearConstraint.per_antenna(2, 0, 0.45)]
        alpha, bf, lam, tr = solve_sinr_balance_multi(ch, cons, gam, outer, INNER)
        ref = brute_sinr_balance(ch, cons, gam, GridSpec(resolution=48, rounds=8))
        assert alpha == pytest.approx(ref, abs=1e-3)
        assert tr.converged
        for c in cons:
            assert constraint_value(bf.bc_covariances(), c) <= c.P * (1 + 1e-12)
        alpha, bf, lam, tr = solve_power_balance_multi(ch, cons, gam, outer, INNER)
        ref = brute_power_min(ch, cons, gam, GridSpec(resolution=48, rounds=8))
        assert alpha == pytest.approx(ref, abs=1e-3)
        assert tr.converged and alpha >= max(tr.value)


def _wsr(ch, cov, w):
    return float(np.asarray(w, dtype=float) @ bc_rates_dpc(ch, cov))


def test_support_points():
    mats = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    ball = QuadraticBall(mats, 25.0)
    assert ball.support_point([3.0, 4.0]) == pytest.approx([3.0, 4.0], rel=1e-15)
    half = AffineHalfspace(mats, [2.0, 1.0], 4.0)
    assert half.support_point([0.3, 0.7]) == pytest.approx([0.0, 4.0])  # 0.7/1 > 0.3/2
    assert half.support_point([0.9, 0.1]) == pytest.approx([2.0, 0.0])
    A, budget = half.merged(DualWeights([0.9, 0.1]))
    assert budget == pytest.approx(0.9 * 2.0, rel=1e-6)
    assert np.allclose(A, np.diag([0.9, 0.1]), atol=1e-6)


def test_nonlinear_halfspace_matches_linear_solve():
    """A one-matrix halfspace is the linear constraint itself: one evaluation
    of the same merged constraint as the direct sum-power solve."""
    ch = ChannelSet([H1_CAP, H2_CAP])
    lin = AffineHalfspace([np.eye(2)], [1.0], 10.0)
    cov, result = solve_wsr_nonlinear(ch, lin, [1, 1], outer=OUTER, inner=INNER)
    direct, _, _ = solve_wsr_multi(ch, [LinearConstraint.sum_power(2, 10.0)],
                                   [1, 1], OUTER, INNER)
    assert _wsr(ch, cov, [1, 1]) == pytest.approx(3.5979382530928725, rel=1e-12)
    assert _wsr(ch, cov, [1, 1]) == _wsr(ch, direct, [1, 1])
    assert result.trace.iterations == 1 and len(result.cuts) == 1
    assert np.allclose(result.cuts[0].A, np.eye(2)) and result.cuts[0].P == 10.0


def test_nonlinear_quadratic_ball_certified():
    """The emitted rate sits between the rate scaled into the ball (achievable)
    and the least merged-constraint bound, and the merged cut it returns
    holds on the whole ball."""
    H1 = [[2.0, 0.0], [0.5, 0.6]]
    H2 = [[0.3, 0.2], [0.0, 1.5]]
    ch = ChannelSet([H1, H2])
    w = [2.0, 1.0]
    ball = QuadraticBall([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 100.0)
    cov, result = solve_wsr_nonlinear(ch, ball, w, outer=OUTER, inner=INNER)
    assert result.trace.converged
    assert ball.value(cov) <= 1e-8 * 100.0
    p = ball.traces(cov)
    factor = min(1.0, 10.0 / np.linalg.norm(p))
    achievable = _wsr(ch, CovarianceSet("bc", [factor * Q for Q in cov.Q]), w)
    emitted = _wsr(ch, cov, w)
    bound = min(result.trace.value)
    assert achievable - 1e-8 <= emitted <= bound + 1e-8
    assert bound - achievable <= 1e-8
    (cut,) = result.cuts
    for t1 in np.linspace(0, 10, 31):
        for t2 in np.linspace(0, np.sqrt(max(0.0, 100 - t1 ** 2)), 7):
            Q = [np.diag([t1 / 2, t2 / 2]).astype(complex)] * 2
            assert constraint_value(CovarianceSet("bc", Q), cut) <= cut.P * (1 + 1e-12)


def test_nonlinear_zero_coefficient_halfspace_rejected():
    """x_1 <= 1 leaves x_2 unbounded: every normal with c_2 > 0 has no
    finite support value."""
    ch = ChannelSet([H1_CAP, H2_CAP])
    half = AffineHalfspace([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [1.0, 0.0], 1.0)
    with pytest.raises(InvalidInput, match="unbounded"):
        solve_wsr_nonlinear(ch, half, [1, 1], outer=OUTER, inner=INNER)


SIMPLEX_NORMAL = st.floats(0.0, 1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), t=SIMPLEX_NORMAL, shape=st.sampled_from(["ball", "half"]))
def test_merged_bound_dominates_feasible_rates(seed, t, shape):
    """For every normal c, the merged constraint's value V(c) is at least the
    weighted sum rate of any feasible downlink covariance."""
    rng = np.random.default_rng(seed)
    ch = ChannelSet(rand_channels(rng, 2, 2, 2))
    w = np.sort(rng.uniform(0.1, 1.0, 2))[::-1]  # nonincreasing along the order
    mats = [rand_psd(rng, 2) for _ in range(2)]
    if shape == "ball":
        f = QuadraticBall(mats, 4.0)
    else:
        f = AffineHalfspace(mats, rng.uniform(0.5, 2.0, 2), 2.0)
    Q = [rand_psd(rng, 2) for _ in range(2)]
    p = f.traces(CovarianceSet("bc", Q))
    room = 2.0 / np.linalg.norm(p) if shape == "ball" else f.offset / (f.coeffs @ p)
    cov = CovarianceSet("bc", [rng.uniform(0.2, 1.0) * room * X for X in Q])
    assert f.value(cov) <= 1e-12
    lam = DualWeights([t, 1.0 - t])
    bound, _, _ = eval_wsr_relaxation(ch, None, lam, w, INNER, merged=f.merged(lam))
    assert bound >= _wsr(ch, cov, w) - 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_four_users_four_antenna_constraints_finish(seed):
    """K=4 under four per-antenna constraints: the search reaches merged
    constraint matrices with multipliers at LAMBDA_FLOOR (condition number
    about 1e7), whose transform outputs are Hermitian and PSD only up to
    roundoff at that scale; that used to stop the loop with "not Hermitian"
    (seeds 4, 5) or with an eigenvalue of -1.06e-9 relative "below clamp
    tolerance" (seed 2).  The emitted point meets every constraint, and
    ``converged`` reports its certified gap against the tolerance."""
    ch = ChannelSet(rand_channels(np.random.default_rng(seed), 4, 2, 4))
    cons = [LinearConstraint.per_antenna(4, a, 2.5) for a in range(4)]
    outer = SolverSettings(max_iters=120)
    cov, lam, trace = solve_wsr_multi(ch, cons, np.ones(4), outer)
    assert any(np.min(l) <= 1.000001 * orchestrator.LAMBDA_FLOOR for l in trace.lam)
    assert np.all(np.isfinite(bc_rates_dpc(ch, cov)))
    for c in cons:
        assert c.P - constraint_value(cov, c) >= -1e-12 * c.P
    bound = min(trace.value)
    assert trace.gap == pytest.approx((bound - _wsr(ch, cov, np.ones(4))) / bound, abs=1e-12)
    assert trace.gap >= -1e-12
    assert trace.converged == (trace.gap <= outer.tol)


def _stub_multiplier_loop(bound, achieved, sense="min", tol=1e-8, max_iters=80):
    """The shared search over two constraints with a stub solve: the bound
    and its subgradient come from ``bound(x) -> (value, slope)`` at
    lam = (x, 1 - x), the result is the evaluation's index, and recovery
    reports ``achieved`` with the weights it was given."""
    cons = [LinearConstraint.per_antenna(2, 0, 5.0),
            LinearConstraint.per_antenna(2, 1, 5.0)]
    seen = []

    def evaluate(lam, A, budget):
        value, slope = bound(float(lam.values[0]))
        seen.append(float(lam.values[0]))
        return value, np.array([0.5 * slope, -0.5 * slope]), len(seen) - 1

    def recover(results, theta):
        return achieved, theta

    out = orchestrator._multiplier_loop(partial(combined_constraint, cons), len(cons),
                                        SolverSettings(max_iters=max_iters, tol=tol), sense,
                                        evaluate, recover)
    return out, seen


def test_multiplier_search_bisects_and_time_shares_the_bracket():
    """Bisection on the slope's sign: every evaluation is the midpoint of
    the bracket left by the earlier ones until the bracket collapses to
    rounding, the certified gap is within tolerance, and recovery gets the
    last evaluation on each side, weighted so that their slopes cancel."""
    (value, theta, lam, trace), seen = _stub_multiplier_loop(
        lambda x: (1.0 + (x - 0.3) ** 2, 2.0 * (x - 0.3)), 1.0)
    lo, hi = 0.0, 1.0
    for x in seen:
        assert x == pytest.approx(0.5 * (lo + hi), abs=1e-15)
        lo, hi = (x, hi) if x <= 0.3 else (lo, x)
    assert trace.converged and 0 <= trace.gap <= 1e-8
    assert trace.gap == pytest.approx(min(trace.value) - 1.0, rel=1e-12)
    assert trace.iterations == len(seen) < 80
    assert trace.best_index == int(np.argmin(trace.value))
    assert lam.values[0] == seen[trace.best_index]
    assert abs(seen[-1] - 0.3) <= 1e-15
    left = max((k for k, x in enumerate(seen) if x <= 0.3), key=lambda k: seen[k])
    right = min((k for k, x in enumerate(seen) if x > 0.3), key=lambda k: seen[k])
    assert set(theta) == {left, right}
    assert sum(theta.values()) == pytest.approx(1.0, abs=1e-15)
    assert abs(sum(t * (seen[k] - 0.3) for k, t in theta.items())) <= 1e-15


def test_multiplier_search_maximizes_with_the_sign_flipped():
    (value, theta, lam, trace), seen = _stub_multiplier_loop(
        lambda x: (1.0 - (x - 0.7) ** 2, -2.0 * (x - 0.7)), 1.0, sense="max")
    assert trace.converged and 0 <= trace.gap <= 1e-8
    assert trace.best_index == int(np.argmax(trace.value))
    assert abs(lam.values[0] - 0.7) <= 1e-4


def test_multiplier_search_reports_an_open_gap():
    """A recovered value that never meets the bound leaves the gap open and
    the search unconverged, and it stops at its evaluation budget."""
    (value, theta, lam, trace), seen = _stub_multiplier_loop(
        lambda x: (1.0 + (x - 0.3) ** 2, 2.0 * (x - 0.3)), 0.5)
    assert not trace.converged
    assert trace.gap == pytest.approx((min(trace.value) - 0.5) / min(trace.value))
    (value, theta, lam, trace), seen = _stub_multiplier_loop(
        lambda x: (1.0 + (x - 0.3) ** 2, 2.0 * (x - 0.3)), 0.5, max_iters=10)
    assert not trace.converged and trace.iterations == 10
