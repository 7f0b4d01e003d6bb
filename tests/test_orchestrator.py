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

from conftest import rand_channels, rand_pd, rand_psd, running_best

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
    merged = combined_constraint([c], DualWeights([1.0]))
    g, cov, sol = eval_wsr_relaxation(ch, *merged, [1, 1], INNER)
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
        merged = combined_constraint(cons, DualWeights(lam_try))
        g, _, _ = eval_wsr_relaxation(ch, *merged, [1, 1], INNER)
        assert g >= final - 1e-6


def test_subgradient_inequality(rng):
    ch = ChannelSet(rand_channels(rng, 2, 2, 2, real=True))
    cons = [LinearConstraint(rand_pd(rng, 2), 2.0),
            LinearConstraint(rand_pd(rng, 2), 1.5)]
    w = [1.5, 1.0]
    merged = partial(combined_constraint, cons)
    for _ in range(10):
        lam = DualWeights(rng.dirichlet([1.5, 1.5])).values
        lam2 = DualWeights(rng.dirichlet([1.5, 1.5])).values
        g1, cov1, sol1 = eval_wsr_relaxation(ch, *merged(DualWeights(lam)), w, INNER)
        g2, _, _ = eval_wsr_relaxation(ch, *merged(DualWeights(lam2)), w, INNER)
        sub = sol1.multiplier * model.constraint_slacks(cov1, cons)  # mu (P_l - tr(Q A_l))
        assert g2 >= g1 + float(sub @ (lam2 - lam)) - 1e-5


def test_bound_convexity_midpoint(rng):
    ch = ChannelSet(rand_channels(rng, 2, 2, 2, real=True))
    cons = [LinearConstraint(rand_pd(rng, 2), 2.0),
            LinearConstraint(rand_pd(rng, 2), 1.5)]
    w = [1.0, 1.0]
    merged = partial(combined_constraint, cons)
    for _ in range(5):
        lam = rng.dirichlet([2, 2])
        lam2 = rng.dirichlet([2, 2])
        g = lambda l: eval_wsr_relaxation(ch, *merged(DualWeights(l)), w, INNER)[0]
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
    rb = running_best(tr, "min")
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
    rb = running_best(tr, "min")
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
        assert np.all(bc_sinr(ch, bf, "dpc") >= gam.gamma - 1e-6)


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


def test_nonlinear_halfspace_matches_linear_solve():
    """A one-matrix ball (tr Q)^2 <= 100 is the linear constraint tr Q <= 10
    itself: one evaluation of the same merged constraint as the direct
    sum-power solve."""
    ch = ChannelSet([H1_CAP, H2_CAP])
    lin = QuadraticBall([np.eye(2)], 100.0)
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


SIMPLEX_NORMAL = st.floats(0.0, 1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), t=SIMPLEX_NORMAL)
def test_merged_bound_dominates_feasible_rates(seed, t):
    """For every normal c, the merged constraint's value V(c) is at least the
    weighted sum rate of any feasible downlink covariance."""
    rng = np.random.default_rng(seed)
    ch = ChannelSet(rand_channels(rng, 2, 2, 2))
    w = np.sort(rng.uniform(0.1, 1.0, 2))[::-1]  # nonincreasing along the order
    mats = [rand_psd(rng, 2) for _ in range(2)]
    f = QuadraticBall(mats, 4.0)
    Q = [rand_psd(rng, 2) for _ in range(2)]
    room = 2.0 / np.linalg.norm(f.traces(CovarianceSet("bc", Q)))
    cov = CovarianceSet("bc", [rng.uniform(0.2, 1.0) * room * X for X in Q])
    assert f.value(cov) <= 1e-12
    lam = DualWeights([t, 1.0 - t])
    bound, _, _ = eval_wsr_relaxation(ch, *f.merged(lam), w, INNER)
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


def _stub_multiplier_loop(bound, achieved, sense="min", tol=1e-8, max_iters=80, start=None,
                          short=1e-9):
    """The shared search over two constraints with a stub solve: the bound
    and its subgradient come from ``bound(x) -> (value, slope)`` at
    lam = (x, 1 - x), the result is the evaluation's index, and recovery
    reports ``achieved`` moved ``short`` away from the bound's side with
    the weights it was given: a gap above SETTLE_RTOL, so that the search
    takes its bracket steps rather than stopping at rounding.  With
    ``start`` the search begins at lam = (start, 1 - start)."""
    cons = [LinearConstraint.per_antenna(2, 0, 5.0),
            LinearConstraint.per_antenna(2, 1, 5.0)]
    seen = []

    def evaluate(lam, A, budget):
        value, slope = bound(float(lam.values[0]))
        seen.append(float(lam.values[0]))
        return value, np.array([0.5 * slope, -0.5 * slope]), len(seen) - 1

    def recover(results, theta):
        return achieved - (short if sense == "min" else -short), theta

    start = None if start is None else DualWeights([start, 1 - start])
    out = orchestrator._multiplier_loop(partial(combined_constraint, cons), len(cons),
                                        SolverSettings(max_iters=max_iters, tol=tol), sense,
                                        evaluate, recover, start=start)
    return out, seen


def _assert_inside_brackets(seen, slope):
    """Every evaluation lies strictly inside the bracket the earlier ones
    left; only the last may have a zero slope."""
    lo, hi = 0.0, 1.0
    for k, x in enumerate(seen):
        assert lo < x < hi
        assert slope(x) != 0 or k == len(seen) - 1
        lo, hi = (x, hi) if slope(x) < 0 else (lo, x)


def test_multiplier_search_brackets_and_time_shares_the_ends():
    """A linear slope is met exactly by the bracket's first regula-falsi step,
    whose zero slope certifies the optimum on its own; on a nonlinear slope
    the bracket collapses to rounding and recovery gets the last evaluation
    on each side, weighted so that their slopes cancel."""
    slope = lambda x: 2.0 * (x - 0.3)
    (value, theta, lam, trace), seen = _stub_multiplier_loop(
        lambda x: (1.0 + (x - 0.3) ** 2, slope(x)), 1.0)
    _assert_inside_brackets(seen, slope)
    assert trace.converged and 0 <= trace.gap <= 1e-8
    assert value == 1.0 - 1e-9
    assert trace.gap == pytest.approx((min(trace.value) - (1.0 - 1e-9)) / min(trace.value), rel=1e-12)
    assert trace.iterations == len(seen) <= 4
    assert trace.best_index == int(np.argmin(trace.value))
    assert lam.values[0] == seen[trace.best_index]
    assert abs(seen[-1] - 0.3) <= 1e-15
    assert theta == {len(seen) - 1: 1.0}

    slope = lambda x: x * x - 0.15
    (value, theta, lam, trace), seen = _stub_multiplier_loop(lambda x: (1.0, slope(x)), 1.0)
    _assert_inside_brackets(seen, slope)
    left = max((k for k, x in enumerate(seen) if slope(x) < 0), key=lambda k: seen[k])
    right = min((k for k, x in enumerate(seen) if slope(x) > 0), key=lambda k: seen[k])
    assert set(theta) == {left, right} and seen[right] - seen[left] <= 1e-15
    assert sum(theta.values()) == pytest.approx(1.0, abs=1e-15)
    assert abs(sum(t * slope(seen[k]) for k, t in theta.items())) <= 1e-18
    assert trace.iterations == len(seen) <= 14  # plain regula falsi: 19


def _bisection_count(slope):
    """Evaluations a bisection of [0, 1] on the slope's sign takes until its
    midpoint repeats an end."""
    lo, hi, n = 0.0, 1.0, 0
    while lo < 0.5 * (lo + hi) < hi:
        x, n = 0.5 * (lo + hi), n + 1
        lo, hi = (x, hi) if slope(x) < 0 else (lo, x)
    return n


@pytest.mark.parametrize("slope", [
    lambda x: 1e3 * (x - 0.3) if x > 0.3 else 1e-3 * (x - 0.3),
    lambda x: 1.0 if x >= 0.3 else -1.0,
    lambda x: (x - 0.3) ** 3,
], ids=["lopsided", "step", "cubic"])
def test_multiplier_search_worst_case(slope):
    """Slopes that stall regula falsi still converge within bisection's
    count plus ITP_N0 evaluations, every one inside the bracket."""
    (value, theta, lam, trace), seen = _stub_multiplier_loop(lambda x: (1.0, slope(x)), 1.0)
    _assert_inside_brackets(seen, slope)
    assert trace.iterations <= _bisection_count(slope) + orchestrator.ITP_N0
    assert all(abs(seen[k] - 0.3) <= 1e-15 for k in theta)


def test_multiplier_search_takes_the_vertex_of_an_open_bracket():
    """A slope that never changes sign (a constraint inactive at the optimum)
    leaves the bracket open: from the simplex centre the one-sided step of
    1/4 * 16^(n-1) takes exactly 0.5, then 0.75 (0.25 toward the left edge),
    then the open edge's vertex, floored by DualWeights, and the search stops
    when it repeats (halving toward the edge took 26 evaluations)."""
    for bound, vertex in ((lambda x: (1.0 + (1.0 - x) ** 2, -2.0 * (1.0 - x)), [1.0, 0.0]),
                          (lambda x: (1.0 + x * x, 2.0 * x), [0.0, 1.0])):
        (value, theta, lam, trace), seen = _stub_multiplier_loop(bound, 1.0)
        assert trace.iterations == len(seen)
        _assert_inside_brackets(seen, lambda x: bound(x)[1])
        assert seen == [0.5, 0.75 if vertex[0] else 0.25, DualWeights(vertex).values[0]]
        assert theta == {len(seen) - 1: 1.0} and lam.values[0] == seen[-1]
        assert trace.converged and 0 <= trace.gap <= 1e-8


@pytest.mark.parametrize("start", [0.05, 0.29, 0.3 + 2e-4, 0.31, 0.6, 0.95])
@pytest.mark.parametrize("slope", [
    lambda x: 2.0 * (x - 0.3),
    lambda x: 1e3 * (x - 0.3) if x > 0.3 else 1e-3 * (x - 0.3),
    lambda x: 1.0 if x >= 0.3 else -1.0,
    lambda x: (x - 0.3) ** 3,
], ids=["linear", "lopsided", "step", "cubic"])
def test_warm_search_probes_out_of_its_start(start, slope):
    """From a start the one-sided steps are PROBE * 16^(n-1) from the
    bracket's closed end, at most to the floored vertex, every evaluation
    strictly inside the bracket the earlier ones left, and the search ends
    at the optimum as a cold one does."""
    (value, theta, lam, trace), seen = _stub_multiplier_loop(
        lambda x: (1.0, slope(x)), 1.0, start=start)
    _assert_inside_brackets(seen, slope)
    assert seen[0] == DualWeights([start, 1 - start]).values[0]
    side = np.sign(slope(seen[0]))
    n = next(k for k, x in enumerate(seen) if np.sign(slope(x)) != side)  # closes the bracket
    for k in range(n):  # toward the open edge, at most to it
        x = min(max(seen[k] - side * orchestrator.PROBE * 16.0 ** k, 0.0), 1.0)
        assert seen[k + 1] == pytest.approx(x, rel=1e-9, abs=2 * orchestrator.LAMBDA_FLOOR)
    assert all(abs(seen[k] - 0.3) <= 1e-15 for k in theta)
    assert trace.converged


@pytest.mark.parametrize("start", [0.4, 0.999, 1.0], ids=["inside", "near", "at"])
def test_warm_search_reaches_the_vertex_optimum(start):
    """A warm start whose optimum is the simplex vertex (a constraint
    inactive at the optimum) steps PROBE, 16 PROBE, ... toward it and takes
    the floored vertex once a step passes the edge; started at that vertex
    it stops after the one evaluation."""
    bound = lambda x: (1.0 + (1.0 - x) ** 2, -2.0 * (1.0 - x))
    (value, theta, lam, trace), seen = _stub_multiplier_loop(bound, 1.0, start=start)
    _assert_inside_brackets(seen, lambda x: bound(x)[1])
    vertex = DualWeights([1.0, 0.0]).values[0]
    assert seen[-1] == vertex and lam.values[0] == vertex
    assert theta == {len(seen) - 1: 1.0} and trace.converged
    assert np.diff(seen[:-1]) == pytest.approx(
        orchestrator.PROBE * 16.0 ** np.arange(len(seen) - 2), rel=1e-9)
    assert len(seen) == {0.4: 5, 0.999: 2, 1.0: 1}[start]


@pytest.mark.parametrize("sense", ["min", "max"])
def test_multiplier_search_stops_at_a_gap_at_rounding(sense):
    """A recovered value that meets the bound to SETTLE_RTOL stops the
    two-multiplier search at once, with its bracket still open; a gap just
    above it does not."""
    bound = lambda x: (1.0, x - 0.3)
    (value, theta, lam, trace), seen = _stub_multiplier_loop(bound, 1.0, sense, short=0.0)
    assert seen == [0.5] and trace.converged and trace.gap == 0
    (value, theta, lam, trace), seen = _stub_multiplier_loop(
        bound, 1.0, sense, short=2 * orchestrator.SETTLE_RTOL)
    assert len(seen) > 1 and trace.gap > orchestrator.SETTLE_RTOL


def test_multiplier_search_maximizes_with_the_sign_flipped():
    (value, theta, lam, trace), seen = _stub_multiplier_loop(
        lambda x: (1.0 - (x - 0.7) ** 2, -2.0 * (x - 0.7)), 1.0, sense="max")
    assert trace.converged and 0 <= trace.gap <= 1e-8
    assert trace.best_index == int(np.argmax(trace.value))
    assert abs(lam.values[0] - 0.7) <= 1e-4


def test_multiplier_search_reports_an_open_gap():
    """A recovered value that never meets the bound leaves the gap open and
    the search unconverged, and it stops at its evaluation budget (a cubic
    slope, which the search is still closing in on at ten evaluations)."""
    (value, theta, lam, trace), seen = _stub_multiplier_loop(
        lambda x: (1.0 + (x - 0.3) ** 2, 2.0 * (x - 0.3)), 0.5)
    assert not trace.converged
    assert trace.gap == pytest.approx((min(trace.value) - 0.5) / min(trace.value))
    (value, theta, lam, trace), seen = _stub_multiplier_loop(
        lambda x: (1.0 + (x - 0.3) ** 4, 4.0 * (x - 0.3) ** 3), 0.5, max_iters=10)
    assert not trace.converged and trace.iterations == 10


@pytest.mark.parametrize("targets", [[1.0, 1.0], [1.0, 2.0]])
def test_sinr_balancing_gap_on_the_two_antenna_instance(targets):
    """The beamforming benchmark's instance under the command line's default
    settings: the fixed points settle their powers, so the bounds the search
    records are the merged problems' ratios and the emitted alpha meets the
    best of them to rounding (the signed gap read -6.3e-8 when SINR
    balancing stopped on a 1e-6 change of its ratio)."""
    ch = ChannelSet([[[1.0, 0.0], [0.5, 0.6]], [[0.4, 0.0], [0.5, 1.5]]])
    cons = [LinearConstraint.per_antenna(2, a, 5.0) for a in range(2)]
    _, _, _, tr = solve_sinr_balance_multi(ch, cons, SinrTargets(targets),
                                           SolverSettings(max_iters=80), SolverSettings())
    assert tr.converged and -1e-12 <= tr.gap <= 1e-9


@pytest.mark.parametrize("targets, evaluations", [([1.0, 1.0], (11, 10)), ([1.0, 2.0], (9, 9))])
def test_balancing_searches_stop_once_their_gap_is_at_rounding(targets, evaluations, monkeypatch):
    """Balancing emits a bracket end, so its two-multiplier search runs past
    the tolerance, but it stops once the gap is at most SETTLE_RTOL: the
    evaluation counts on the two-antenna instance are pinned (they read
    (19, 16) and (18, 18) when the search ran until the bracket collapsed),
    and each emitted alpha is within SETTLE_RTOL of the collapsed search's."""
    ch = ChannelSet([[[1.0, 0.0], [0.5, 0.6]], [[0.4, 0.0], [0.5, 1.5]]])
    cons = [LinearConstraint.per_antenna(2, a, 5.0) for a in range(2)]
    args = (ch, cons, SinrTargets(targets), SolverSettings(max_iters=80), SolverSettings())
    solves = (solve_sinr_balance_multi, solve_power_balance_multi)
    runs = [solve(*args) for solve in solves]
    rtol = orchestrator.SETTLE_RTOL
    assert tuple(run[3].iterations for run in runs) == evaluations
    assert all(run[3].gap <= rtol for run in runs)
    monkeypatch.setattr(orchestrator, "SETTLE_RTOL", -np.inf)  # never settled
    for run, solve in zip(runs, solves):
        alpha_full, _, _, trace_full = solve(*args)
        assert trace_full.iterations > run[3].iterations
        assert abs(run[0] - alpha_full) <= rtol * abs(alpha_full)


def _two_constraint_family(seed):
    """K in 2..3 users of 1..3 antennas on 3 transmit antennas under sum
    power 4 and 1.5 on antenna 0; returns the generator for further draws."""
    rng = np.random.default_rng(seed)
    K, nr = rng.integers(2, 4), rng.integers(1, 4)
    cons = [LinearConstraint.sum_power(3, 4.0), LinearConstraint.per_antenna(3, 0, 1.5)]
    return rng, ChannelSet(rand_channels(rng, K, nr, 3)), cons


@pytest.mark.parametrize("seed", [1, 6, 7, 9])
def test_wsr_search_stops_once_certified_and_settled(seed, monkeypatch):
    """Two-multiplier weighted-sum-rate searches that ran 24-29 evaluations
    to a collapsed bracket stop within 12, certified, with the time-shared
    value within 1e-12 of the collapsed search's."""
    rng, ch, cons = _two_constraint_family(seed)
    w = np.sort(rng.uniform(0.5, 2, ch.K))[::-1]
    cov, _, trace = solve_wsr_multi(ch, cons, w)
    assert trace.converged and trace.iterations <= 12
    monkeypatch.setattr(orchestrator, "SETTLE_RTOL", -np.inf)  # never settled
    cov_full, _, trace_full = solve_wsr_multi(ch, cons, w)
    assert trace_full.iterations > 20
    assert _wsr(ch, cov, w) == pytest.approx(_wsr(ch, cov_full, w), rel=1e-12)


def test_balancing_searches_stop_short_of_the_collapsed_bracket(monkeypatch):
    """Power balancing at seed 10 of the crawl family at L = 2 ran 26
    evaluations, most of them after its best bound on slopes whose signs
    are roundoff.  It and both balancing searches at seeds 1, 7 and 9 of the
    two-constraint family emit an alpha within 1e-12 of the never-settled
    search's, in fewer evaluations in all."""
    cases = [(solve_power_balance_multi, _crawl_family(10, L=2))]
    for seed in (1, 7, 9):
        rng, ch, cons = _two_constraint_family(seed)
        args = (ch, cons, SinrTargets(rng.uniform(0.5, 2, ch.K)))
        cases += [(solve_sinr_balance_multi, args), (solve_power_balance_multi, args)]
    runs = [solve(*args) for solve, args in cases]
    monkeypatch.setattr(orchestrator, "SETTLE_RTOL", -np.inf)  # never settled
    full = [solve(*args) for solve, args in cases]
    for (alpha, _, _, trace), (alpha_full, _, _, _) in zip(runs, full):
        assert trace.converged
        assert abs(alpha - alpha_full) <= 1e-12 * abs(alpha_full)
    assert sum(run[3].iterations for run in runs) < sum(run[3].iterations for run in full)


@pytest.mark.parametrize("seed", [11, 21, 28, 34])
def test_sinr_balancing_repair_emits_nonnegative_slacks(seed):
    """The repair steps its factor down on the beamformer it emits, whose
    covariance rounds differently from the scaled covariance (these seeds
    emitted slacks of -2.2e-16 to -8.9e-16 when it checked the latter)."""
    rng, ch, cons = _two_constraint_family(seed)
    _, bf, _, _ = solve_sinr_balance_multi(ch, cons, SinrTargets(rng.uniform(0.5, 2, ch.K)))
    assert min(model.constraint_slacks(bf.bc_covariances(), cons)) >= 0


@pytest.mark.parametrize("settings", [{}, {"outer": OUTER, "inner": INNER}])
def test_nonlinear_point_lies_inside_the_ball(settings):
    """The ball's repair steps its factor down until the emitted covariance
    lies inside the ball once rounded: min(1, room) alone left phi at
    +1.42e-14 on the instance of ``test_nonlinear_quadratic_ball_certified``."""
    ch = ChannelSet([[[2.0, 0.0], [0.5, 0.6]], [[0.3, 0.2], [0.0, 1.5]]])
    ball = QuadraticBall([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 100.0)
    cov, _ = solve_wsr_nonlinear(ch, ball, [2.0, 1.0], **settings)
    assert ball.value(cov) <= 0


def test_dominated_constraints_stop_at_the_vertex():
    """On the instance of ``test_mixed_constraints_dominated`` the per-antenna
    constraints are inactive: the second evaluation takes the sum-power
    vertex, and the centres that close in on it snap to it, a repeat that
    stops the search (the centre alone took all 60 evaluations)."""
    ch = ChannelSet([H1_CAP, H2_CAP])
    cons = [LinearConstraint.sum_power(2, 8.0)] + \
        [LinearConstraint.per_antenna(2, a, 5.0) for a in range(2)]
    _, lam, trace = solve_wsr_multi(ch, cons, [1, 1], OUTER, INNER)
    assert trace.iterations == 2 and lam.values[0] > 1 - 1e-6


def _crawl_family(seed, L, stall=False):
    """The crawl family at a seed that draws L from 2..3: K in 2..3 users of
    1..3 antennas on 3 transmit antennas, sum power 4 and 1.5 on each of
    the first L - 1 antennas, or with ``stall`` (at L = 3) 3 on each antenna
    and no sum power; SINR targets in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    K, nr, drawn = rng.integers(2, 4), rng.integers(1, 4), rng.integers(2, 4)
    assert drawn == L
    ch = ChannelSet(rand_channels(rng, K, nr, 3))
    budgets = [3.0] * 3 if stall else [1.5] * (L - 1)
    cons = [LinearConstraint.per_antenna(3, a, P) for a, P in enumerate(budgets)]
    if not stall:
        cons.insert(0, LinearConstraint.sum_power(3, 4.0))
    return ch, cons, SinrTargets(rng.uniform(0.5, 2, K))


@pytest.mark.parametrize("solve, seed", [(solve_power_balance_multi, 0),
                                         (solve_sinr_balance_multi, 9),
                                         (solve_sinr_balance_multi, 11)])
def test_three_constraint_balancing_converges(solve, seed):
    """The analytic centre certifies balancing searches that the centre of
    the largest ball left unconverged at 80 evaluations (gaps 1.8e-5,
    2.6e-4 and 1.2e-4): its steps do not crawl back beside old cuts."""
    _, _, _, trace = solve(*_crawl_family(seed, L=3))
    assert trace.converged and trace.iterations <= 40


def test_sinr_balancing_under_three_antenna_budgets_returns():
    """Under 3 on each of three antennas, SINR balancing at seed 9 raised
    ``MaxItersExceeded`` when the largest-ball centre led it to multipliers
    where the inner fixed point creeps; it now returns a feasible point."""
    ch, cons, targets = _crawl_family(9, L=3, stall=True)
    _, bf, _, trace = solve_sinr_balance_multi(ch, cons, targets)
    assert trace.converged
    assert min(model.constraint_slacks(bf.bc_covariances(), cons)) >= 0


@pytest.mark.parametrize("seed", range(6))
def test_four_antenna_constraint_searches_converge_within_30(seed):
    """The instances of ``test_four_users_four_antenna_constraints_finish``
    took 39-44 evaluations with the largest-ball centre."""
    ch = ChannelSet(rand_channels(np.random.default_rng(seed), 4, 2, 4))
    cons = [LinearConstraint.per_antenna(4, a, 2.5) for a in range(4)]
    _, _, trace = solve_wsr_multi(ch, cons, np.ones(4), SolverSettings(max_iters=120))
    assert trace.converged and trace.iterations <= 30
