import numpy as np
import pytest

from bcmac import (
    ChannelSet,
    LinearConstraint,
    SinrTargets,
    SolverSettings,
    bc_rates_dpc,
    bc_sinr,
    constraint_value,
    solve_wsr_mac,
)
from bcmac import orchestrator
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
    wsr_bound_subgradient,
)
from bcmac.oracles import GridSpec, brute_power_min, brute_sinr_balance

from conftest import rand_channels, rand_pd

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
        sub = wsr_bound_subgradient(ch, cons, DualWeights(lam), w, cov1, sol1)
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


def test_cutting_plane_linear_terminates_first_cut():
    ch = ChannelSet([H1_CAP, H2_CAP])
    lin = AffineHalfspace([np.eye(2)], [1.0], 10.0)
    cov, state = solve_wsr_nonlinear(ch, lin, [1, 1], eps=1e-6,
                                     outer=OUTER, inner=INNER)
    assert len(state.cuts) == 1
    assert abs(state.f_values[-1]) <= 1e-6
    direct, _, _ = solve_wsr_multi(ch, [LinearConstraint.sum_power(2, 10.0)],
                                   [1, 1], OUTER, INNER)
    assert np.sum(bc_rates_dpc(ch, cov)) == pytest.approx(
        float(np.sum(bc_rates_dpc(ch, direct))), abs=1e-6)


def test_cutting_plane_quadratic_ball():
    H1 = [[2.0, 0.0], [0.5, 0.6]]
    H2 = [[0.3, 0.2], [0.0, 1.5]]
    ch = ChannelSet([H1, H2])
    ball = QuadraticBall([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 100.0)
    cov, state = solve_wsr_nonlinear(ch, ball, [2.0, 1.0], eps=0.01,
                                     outer=OUTER, inner=INNER)
    assert len(state.cuts) <= 30
    assert state.f_values[-1] <= 0.01
    assert np.all(np.diff(state.rates) <= 1e-6)
    # every stored cut supports the feasible region
    for cut in state.cuts:
        for t1 in np.linspace(0, 10, 31):
            for t2 in np.linspace(0, np.sqrt(max(0.0, 100 - t1 ** 2)), 7):
                Q = [np.diag([t1 / 2, t2 / 2]).astype(complex)] * 2
                from bcmac.model import CovarianceSet

                val = constraint_value(CovarianceSet("bc", Q), cut)
                assert val <= cut.P + 1e-9


def test_cutting_plane_huge_ball_matches_initial_cut():
    ch = ChannelSet([H1_CAP, H2_CAP])
    ball = QuadraticBall([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 1e6)
    cov, state = solve_wsr_nonlinear(ch, ball, [1, 1], eps=1e3,
                                     outer=OUTER, inner=INNER)
    assert len(state.cuts) == 1  # loose ball: first tangent already inside eps
    direct, _, _ = solve_wsr_multi(ch, [state.cuts[0]], [1, 1], OUTER, INNER)
    got = float(np.sum(bc_rates_dpc(ch, cov)))
    want = float(np.sum(bc_rates_dpc(ch, direct)))
    assert got == pytest.approx(want, abs=1e-6)


def test_boundary_point_on_ball():
    ball = QuadraticBall([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 10.0)
    p = orchestrator._boundary_point(ball, [1.0, 1.0])
    assert p == pytest.approx([np.sqrt(5.0)] * 2, rel=1e-15)
    assert ball.phi(p) <= 0


def test_boundary_point_rejects_ray_that_stays_inside():
    """x_1 <= 1 never binds along (0, 1): the search must fail clearly
    instead of returning a point after 200 doublings."""
    half = AffineHalfspace([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [1.0, 0.0], 1.0)
    with pytest.raises(InvalidInput, match="never leaves"):
        orchestrator._boundary_point(half, [0.0, 1.0])


def _stub_multiplier_loop(feasible_from):
    """The shared outer loop over two constraints with a stub solve: key and
    value lam_1, feasible when lam_1 >= feasible_from, a subgradient pushing
    lam_1 down.  Returns the loop's output and the (key, feasible) seen."""
    cons = [LinearConstraint.per_antenna(2, 0, 5.0),
            LinearConstraint.per_antenna(2, 1, 5.0)]
    seen = []

    def evaluate(lam, A, budget):
        key = float(lam.values[0])
        seen.append((key, key >= feasible_from))
        return key, np.array([1.0, -1.0]), key, seen[-1][1], len(seen) - 1

    out = orchestrator._multiplier_loop(cons, SolverSettings(max_iters=10), "min", evaluate)
    return out, seen


def test_multiplier_loop_prefers_feasible_evaluation():
    (key, index, lam, trace), seen = _stub_multiplier_loop(0.3)
    feasible = [k for k, ok in seen if ok]
    assert feasible and key == min(feasible)
    assert any(k < key for k, ok in seen if not ok)  # a lower infeasible key lost
    assert trace.converged
    assert trace.best_index == index and trace.iterations == len(seen)
    assert lam.values[0] == key and trace.value[index] == key


def test_multiplier_loop_without_feasible_keeps_best_of_all():
    (key, index, lam, trace), seen = _stub_multiplier_loop(2.0)
    assert not any(ok for _, ok in seen)
    assert key == min(k for k, _ in seen)
    assert not trace.converged
    assert trace.best_index == index and seen[index][0] == key
