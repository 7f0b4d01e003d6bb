from dataclasses import replace

import numpy as np
import pytest

from bcmac import (
    ChannelSet,
    LinearConstraint,
    SinrTargets,
    SolverSettings,
    bc_mmse_receivers,
    mac_rates,
    mac_sinr,
    mac_to_bc_sinr,
    solve_power_min_mac,
    solve_sinr_balance_mac,
    solve_wsr_mac,
)
from bcmac import linalg, macsolver, model
from bcmac.errors import InfeasibleTargets, InvalidInput, SingularConstraintMatrix
from bcmac.model import CovarianceSet
from bcmac.oracles import GridSpec, brute_sinr_balance, brute_wsr, finite_diff_gradient

from conftest import rand_channels, rand_pd, random_mac_cov


TIGHT = SolverSettings(tol=1e-8)


def test_wsr_scalar_closed_form():
    ch = ChannelSet([[[2.0]]])
    sol = solve_wsr_mac(ch, [[0.5]], 3.0, [1.5], TIGHT)
    assert sol.objective == pytest.approx(1.5 * np.log(1 + 3 * 4 / 0.5), rel=1e-10)
    assert sol.converged


def test_wsr_zero_budget(rng):
    ch = ChannelSet(rand_channels(rng, 2, 2, 2))
    sol = solve_wsr_mac(ch, np.eye(2), 0.0, [1, 1])
    assert sol.objective == 0.0
    assert all(np.allclose(Q, 0) for Q in sol.cov.Q)


def test_wsr_budget_tight_and_kkt(rng):
    for _ in range(5):
        ch = ChannelSet(rand_channels(rng, 2, 2, 2))
        A = rand_pd(rng, 2)
        sol = solve_wsr_mac(ch, A, 2.0, [2.0, 1.0], TIGHT)
        used = sum(np.trace(Q).real for Q in sol.cov.Q)
        assert used == pytest.approx(2.0, abs=1e-8)
        assert 0 <= sol.gap <= TIGHT.tol * sol.objective
        assert sol.converged


def test_wsr_matches_grid_oracle(rng):
    for _ in range(3):
        ch = ChannelSet(rand_channels(rng, 2, 2, 2, real=True))
        X = rng.normal(size=(2, 2))
        A = X @ X.T + 0.3 * np.eye(2)
        w = np.sort(rng.uniform(0.5, 2.0, 2))[::-1]
        sol = solve_wsr_mac(ch, A, 2.0, w, TIGHT)
        ref = brute_wsr(ch, [LinearConstraint(A, 2.0)], w,
                        GridSpec(resolution=15, rounds=6, shrink=0.45))
        assert sol.objective == pytest.approx(ref, abs=1e-3)


def test_wsr_whitened_equivalence(rng):
    ch = ChannelSet(rand_channels(rng, 2, 2, 2))
    A = rand_pd(rng, 2)
    W = linalg.inv_sqrt(A)
    ch_wh = ChannelSet([Hi @ W for Hi in ch.H])
    s1 = solve_wsr_mac(ch, A, 2.0, [1, 1], TIGHT)
    s2 = solve_wsr_mac(ch_wh, np.eye(2), 2.0, [1, 1], TIGHT)
    assert s1.objective == pytest.approx(s2.objective, abs=1e-7)


def test_wsr_objective_equals_rates(rng):
    ch = ChannelSet(rand_channels(rng, 3, 2, 2), encoding_order=[1, 2, 0])
    A = rand_pd(rng, 2)
    w = [1.0, 3.0, 2.0]  # nonincreasing along the encoding order
    sol = solve_wsr_mac(ch, A, 1.5, w, TIGHT)
    r = mac_rates(ch, sol.cov, A)
    order_w = np.array(w)
    assert sol.objective == pytest.approx(float(order_w @ r), abs=1e-10)


def test_wsr_rejects_singular_noise(rng):
    ch = ChannelSet(rand_channels(rng, 2, 2, 2))
    with pytest.raises(SingularConstraintMatrix):
        solve_wsr_mac(ch, np.diag([1.0, 0.0]), 1.0, [1, 1])


def test_wsr_monotone_iterates(rng):
    """Armijo-accepted steps never decrease the objective."""
    ch = ChannelSet(rand_channels(rng, 2, 2, 2))
    Ghat = model.whitened_channels(ch, np.eye(2), 1e-8)[0]
    coeffs = macsolver._rate_coeffs(ch, [1.5, 1.0])
    Z = [np.zeros((2, 2), dtype=complex) for _ in range(2)]
    obj = macsolver._objective(ch, Ghat, coeffs, Z)
    for _ in range(25):
        grads = macsolver._gradient(ch, Ghat, coeffs, Z)
        Z = macsolver._project_blocks(
            [Z[i] + 0.2 * grads[i] for i in range(2)], 2.0)
        new_obj = macsolver._objective(ch, Ghat, coeffs, Z)
        assert new_obj >= obj - 1e-12
        obj = new_obj


def test_gradient_matches_finite_differences(rng):
    for _ in range(10):
        K = int(rng.integers(1, 3))
        ch = ChannelSet(rand_channels(rng, K, 2, 2))
        A = rand_pd(rng, 2)
        Ghat = model.whitened_channels(ch, A, 1e-8)[0]
        w = rng.uniform(0.5, 2.0, K)
        coeffs = macsolver._rate_coeffs(ch, w)
        Z = [rand_pd(rng, 2, 0.5) for _ in range(K)]
        grads = macsolver._gradient(ch, Ghat, coeffs, Z)
        for i in range(K):
            def f(Qi, i=i):
                Zi = [Qi if j == i else Z[j] for j in range(K)]
                return macsolver._objective(ch, Ghat, coeffs, Zi)

            G_fd = finite_diff_gradient(f, Z[i], 1e-5)
            scale = max(1.0, np.max(np.abs(grads[i])))
            assert np.max(np.abs(G_fd - grads[i])) <= 1e-5 * scale


def _at(ch, noise, budget, weights, cov):
    """The solver's state at ``cov`` without a step: its objective, gap and
    multiplier there."""
    return solve_wsr_mac(ch, noise, budget, weights, SolverSettings(max_iters=0), init=cov)


def test_fw_gap_scalar_closed_form():
    """One scalar user, gain h^2 / noise = 8: the gradient at power q is
    8 / (1 + 8 q), the gap budget * g - q * g, and the budget's multiplier g
    where the budget binds, 0 where it is slack."""
    ch = ChannelSet([[[2.0]]])
    slack = _at(ch, [[0.5]], 3.0, [1.0], CovarianceSet("mac", [[[1.0]]]))
    assert slack.gap == pytest.approx(2.0 * 8.0 / 9.0, rel=1e-14)
    assert slack.multiplier == 0.0
    tight = _at(ch, [[0.5]], 3.0, [1.0], CovarianceSet("mac", [[[3.0]]]))
    assert abs(tight.gap) <= 1e-15
    assert tight.multiplier == pytest.approx(8.0 / 25.0, rel=1e-14)


def test_fw_gap_detects_suboptimal():
    """Two parallel streams with gains 4 and 1 and equal power 1 of a
    budget of 2: gradients 4/5 and 1/2, so the gap is 2 * 4/5 - (4/5 + 1/2)
    = 0.3, and the optimum (water-filling, 1.375 and 0.625) is within it."""
    ch = ChannelSet([np.diag([2.0, 1.0])])
    sol = _at(ch, np.eye(2), 2.0, [1.0], CovarianceSet("mac", [np.eye(2)]))
    assert sol.objective == pytest.approx(np.log(10.0), rel=1e-14)
    assert sol.gap == pytest.approx(0.3, rel=1e-13)
    assert sol.multiplier == pytest.approx(0.8, rel=1e-14)
    best = np.log(1 + 4 * 1.375) + np.log(1 + 0.625)
    assert sol.objective < best <= sol.objective + sol.gap


def test_fw_gap_after_solve(rng):
    """The solve's gap meets its tolerance and bounds the distance to a
    tighter solve's objective."""
    ch = ChannelSet(rand_channels(rng, 2, 2, 2))
    A = rand_pd(rng, 2)
    sol = solve_wsr_mac(ch, A, 2.0, [1.0, 1.0], SolverSettings(tol=1e-5))
    assert sol.converged and 0 <= sol.gap <= 1e-5 * sol.objective
    tight = solve_wsr_mac(ch, A, 2.0, [1.0, 1.0], SolverSettings(tol=1e-12))
    assert sol.objective <= tight.objective + 1e-12 <= sol.objective + sol.gap + 2e-12


def test_wsr_rejects_weights_increasing_along_the_encoding_order(rng):
    ch = ChannelSet(rand_channels(rng, 2, 2, 2), encoding_order=[1, 0])
    with pytest.raises(InvalidInput, match="nonincreasing"):
        solve_wsr_mac(ch, np.eye(2), 1.0, [2.0, 1.0])
    assert solve_wsr_mac(ch, np.eye(2), 1.0, [1.0, 2.0]).converged


def test_balance_scalar_closed_form():
    ch = ChannelSet([[[1.5]]])
    alpha, bf = solve_sinr_balance_mac(ch, [[0.7]], 2.0, SinrTargets([2.0]), TIGHT)
    assert alpha == pytest.approx(2.0 * 1.5 ** 2 / (0.7 * 2.0), rel=1e-9)


def test_balance_orthogonal_split():
    ch = ChannelSet([[[1.0, 0.0]], [[0.0, 2.0]]])
    gam = SinrTargets([1.0, 1.0])
    alpha, bf = solve_sinr_balance_mac(ch, np.eye(2), 3.0, gam, TIGHT)
    # independent water-level: q_i |h_i|^2 = alpha, sum q = budget
    assert alpha == pytest.approx(3.0 / (1.0 + 0.25), rel=1e-9)


def test_balance_equal_ratio_and_budget(rng):
    for _ in range(5):
        K = int(rng.integers(1, 4))
        ch = ChannelSet(rand_channels(rng, K, 1, 3), sigma2=rng.uniform(0.5, 2, K))
        A = rand_pd(rng, 3)
        gam = SinrTargets(rng.uniform(0.5, 2.0, K))
        alpha, bf = solve_sinr_balance_mac(ch, A, 2.0, gam, TIGHT)
        s = mac_sinr(ch, bf, A)
        ratios = np.array([s[i][0] / gam.gamma[i] for i in range(K)])
        assert np.max(np.abs(ratios - alpha)) <= 1e-6 * alpha
        used = sum(ch.sigma2[i] * bf.q[i][0] for i in range(K))
        assert used == pytest.approx(2.0, abs=1e-8)


def test_balance_scenario_channels_vs_grid():
    H1 = [[1.0, 0.0], [0.5, 0.6]]
    H2 = [[0.4, 0.0], [0.5, 1.5]]
    ch = ChannelSet([H1, H2])
    gam = SinrTargets([1.0, 1.0])
    alpha, bf = solve_sinr_balance_mac(ch, np.eye(2), 10.0, gam,
                                       SolverSettings(tol=1e-10))
    ref = brute_sinr_balance(ch, [LinearConstraint(np.eye(2), 10.0)], gam,
                             GridSpec(resolution=40, rounds=7, shrink=0.35))
    assert alpha == pytest.approx(ref, abs=1e-3)


def test_power_min_scalar():
    ch = ChannelSet([[[1.5]]])
    tot, bf = solve_power_min_mac(ch, [[0.7]], SinrTargets([2.0]))
    assert tot == pytest.approx(0.7 * 2.0 / 1.5 ** 2, rel=1e-12)


def test_power_min_small_targets(rng):
    ch = ChannelSet(rand_channels(rng, 2, 1, 2))
    tots = []
    for g in (1e-3, 1e-6, 1e-9):
        tot, _ = solve_power_min_mac(ch, np.eye(2), SinrTargets([g, g]))
        tots.append(tot)
    assert tots[0] > tots[1] > tots[2]
    assert tots[2] < 1e-8


def test_power_min_meets_targets_exactly(rng):
    for _ in range(5):
        K = int(rng.integers(1, 4))
        ch = ChannelSet(rand_channels(rng, K, 1, 3), sigma2=rng.uniform(0.5, 2, K))
        A = rand_pd(rng, 3)
        gam = SinrTargets(rng.uniform(0.5, 3.0, K))
        tot, bf = solve_power_min_mac(ch, A, gam)
        s = mac_sinr(ch, bf, A)
        for i in range(K):
            assert s[i][0] == pytest.approx(gam.gamma[i], rel=1e-8)


def test_power_min_infeasible_zero_channel():
    ch = ChannelSet([[[0.0, 0.0]]])
    with pytest.raises(InfeasibleTargets):
        solve_power_min_mac(ch, np.eye(2), SinrTargets([1.0]))


@pytest.mark.parametrize("noise, error", [
    ([[1.0, 0.5], [0.0, 1.0]], InvalidInput),  # not Hermitian
    (np.diag([1.0, 0.0]), SingularConstraintMatrix),
])
def test_beamforming_solvers_validate_noise(noise, error):
    ch = ChannelSet([[[1.0, 0.0]], [[0.0, 2.0]]])
    gam = SinrTargets([1.0, 1.0])
    with pytest.raises(error):
        solve_sinr_balance_mac(ch, noise, 3.0, gam)
    with pytest.raises(error):
        solve_power_min_mac(ch, noise, gam)


def test_settings_validation():
    with pytest.raises(InvalidInput):
        SolverSettings(tol=0.0)
    with pytest.raises(InvalidInput):
        SolverSettings(armijo_beta=1.5)


# Stacked layout of the WSR solver (user-order stacks, cumulative matrices in
# encoding order) against plain per-block references.

STACK_ORDER = (2, 0, 3, 1)
STACK_SIGMA2 = [0.7, 1.3, 2.0, 0.9]
STACK_W = np.array([1.4, 0.6, 2.1, 1.0])


def _stack_instance(rng):
    ch = ChannelSet(rand_channels(rng, 4, 2, 3), STACK_SIGMA2, STACK_ORDER)
    return ch, rand_pd(rng, 3)


def _ref_whitened(ch, A):
    """Per-user whitened channels (H_i / sigma_i) A^{-1/2}, in user order."""
    w, V = np.linalg.eigh(A)
    W = (V / np.sqrt(w)) @ V.conj().T
    return [ch.H[i] / np.sqrt(ch.sigma2[i]) @ W for i in range(ch.K)]


def _ref_phis(ch, G, Z):
    """Phi after each encoding position: I + sum of earlier and own terms."""
    phis = []
    cum = np.eye(G[0].shape[1], dtype=complex)
    for i in ch.encoding_order:
        cum = cum + G[i].conj().T @ Z[i] @ G[i]
        phis.append(cum)
    return phis


def _ref_gradient(ch, G, w, Z):
    """d(sum_j w_j r_j)/dZ_i from the rate form r_j = logdet Phi_{p(j)} -
    logdet Phi_{p(j)-1}: user i enters Phi_m for every m >= p(i)."""
    inv = [np.linalg.inv(P) for P in _ref_phis(ch, G, Z)]
    pos = {i: m for m, i in enumerate(ch.encoding_order)}
    grads = []
    for i in range(ch.K):
        S = np.zeros_like(inv[0])
        for j in range(ch.K):
            if pos[j] >= pos[i]:
                S = S + w[j] * inv[pos[j]]
            if pos[j] - 1 >= pos[i]:
                S = S - w[j] * inv[pos[j] - 1]
        g = G[i] @ S @ G[i].conj().T
        grads.append(0.5 * (g + g.conj().T))
    return grads


def _ref_fw(Z, grads, budget):
    """Frank-Wolfe gap and budget multiplier, block by block."""
    top = max(float(np.linalg.eigvalsh(Gi)[-1]) for Gi in grads)
    gap = budget * top - sum(float(np.trace(Gi @ Zi).real) for Gi, Zi in zip(grads, Z))
    used = sum(float(np.trace(Zi).real) for Zi in Z)
    return gap, (top if used >= budget * (1 - 1e-9) else 0.0)


def _rank_one_mac_cov(rng, K, nr, total):
    """Uplink covariances of rank one (every block has a null space)."""
    vs = [rng.normal(size=(nr, 1)) + 1j * rng.normal(size=(nr, 1)) for _ in range(K)]
    mats = [v @ v.conj().T for v in vs]
    tr = sum(float(np.trace(M).real) for M in mats)
    return CovarianceSet("mac", [M * (total / tr) for M in mats])


def test_stacked_objective_and_gradient_match_per_block(rng):
    ch, A = _stack_instance(rng)
    G = _ref_whitened(ch, A)
    Ghat = model.whitened_channels(ch, A, 1e-8)[0]
    np.testing.assert_allclose(Ghat, np.array(G), rtol=1e-12, atol=0)
    coeffs = macsolver._rate_coeffs(ch, STACK_W)
    for _ in range(3):
        cov = random_mac_cov(rng, 4, 2, 2.5)
        Z = np.array([ch.sigma2[i] * cov.Q[i] for i in range(4)])
        ref_obj = float(STACK_W @ mac_rates(ch, cov, A))
        assert macsolver._objective(ch, Ghat, coeffs, Z) == pytest.approx(ref_obj, rel=1e-12)
        grads = macsolver._gradient(ch, Ghat, coeffs, Z)
        for i, g_ref in enumerate(_ref_gradient(ch, G, STACK_W, Z)):
            assert np.max(np.abs(grads[i] - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))


def test_stacked_projection_matches_per_block(rng):
    for budget in (0.5, 50.0):  # water level active, then every block clipped at zero
        M = np.array([rand_pd(rng, 2) - 0.6 * np.eye(2) for _ in range(4)])
        out = macsolver._project_blocks(M, budget)
        eig = [np.linalg.eigh(0.5 * (Mi + Mi.conj().T)) for Mi in M]
        lam = np.concatenate([w for w, _ in eig])
        mu = 0.0
        if np.maximum(lam, 0).sum() > budget:
            lo, hi = 0.0, float(lam.max())
            for _ in range(200):
                mu = 0.5 * (lo + hi)
                lo, hi = (mu, hi) if np.maximum(lam - mu, 0).sum() > budget else (lo, mu)
        for m, (w, V) in enumerate(eig):
            ref = (V * np.maximum(w - mu, 0)) @ V.conj().T
            assert np.max(np.abs(out[m] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        total = sum(np.trace(Zm).real for Zm in out)
        assert total <= budget * (1 + 1e-12)


def test_project_blocks_rejects_nan():
    M = np.array([np.eye(2, dtype=complex)] * 3)
    M[1, 0, 1] = np.nan
    with pytest.raises(InvalidInput):
        macsolver._project_blocks(M, 1.0)


def test_stacked_gap_and_multiplier_match_per_block(rng):
    ch, A = _stack_instance(rng)
    G = _ref_whitened(ch, A)
    covs = [random_mac_cov(rng, 4, 2, 2.5), _rank_one_mac_cov(rng, 4, 2, 2.5)]
    for cov in covs:
        Z = [ch.sigma2[i] * cov.Q[i] for i in range(4)]
        grads = _ref_gradient(ch, G, STACK_W, Z)
        used = sum(float(np.trace(Zi).real) for Zi in Z)
        for budget in (used, 1.6 * used):  # tight, then slack
            gap_ref, mult_ref = _ref_fw(Z, grads, budget)
            sol = _at(ch, A, budget, STACK_W, cov)
            assert sol.gap == pytest.approx(gap_ref, rel=1e-9)
            assert sol.multiplier == pytest.approx(mult_ref, rel=1e-9)
    zero = CovarianceSet("mac", [np.zeros((2, 2))] * 4)
    Z = [np.zeros((2, 2), dtype=complex)] * 4
    gap_ref, mult_ref = _ref_fw(Z, _ref_gradient(ch, G, STACK_W, Z), 0.0)
    assert mult_ref > 0 and gap_ref == 0.0  # zero budget: top gradient eigenvalue
    sol = _at(ch, A, 0.0, STACK_W, zero)
    assert sol.multiplier == pytest.approx(mult_ref, rel=1e-12) and sol.gap == 0.0


def test_stacked_solution_in_user_order(rng):
    ch, A = _stack_instance(rng)
    sol = solve_wsr_mac(ch, A, 3.0, STACK_W, TIGHT)
    assert sol.converged
    assert sol.objective == pytest.approx(float(STACK_W @ mac_rates(ch, sol.cov, A)),
                                          abs=1e-10)
    power = sum(ch.sigma2[i] * np.trace(sol.cov.Q[i]).real for i in range(4))
    assert power == pytest.approx(3.0, rel=1e-9)
    # a warm start given in user order starts one step from the optimum
    warm = solve_wsr_mac(ch, A, 3.0, STACK_W, replace(TIGHT, max_iters=1),
                         init=sol.cov)
    assert warm.objective >= sol.objective - 1e-9


# the two-antenna users of the beamforming benchmark, under the merged
# per-antenna constraints diag(x, 1 - x) <= 5
BAL_H = [[[1.0, 0.0], [0.5, 0.6]], [[0.4, 0.0], [0.5, 1.5]]]


@pytest.mark.parametrize("solve", [
    lambda ch, x, gam, init: solve_sinr_balance_mac(ch, np.diag([x, 1 - x]), 5.0, gam, init=init),
    lambda ch, x, gam, init: solve_power_min_mac(ch, np.diag([x, 1 - x]), gam, init=init),
], ids=["sinr_balance", "power_min"])
def test_warm_start_from_a_nearby_multiplier_matches_the_cold_solve(monkeypatch, solve):
    """Started from the solution at a nearby multiplier, both fixed points
    reach the cold solve's value and total power to 1e-9 relative, in fewer
    MMSE sweeps."""
    ch, gam = ChannelSet(BAL_H), SinrTargets([1.0, 2.0])
    sweeps = [0]
    real = macsolver._mmse_pass

    def counted(*args):
        sweeps[0] += 1
        return real(*args)

    monkeypatch.setattr(macsolver, "_mmse_pass", counted)
    _, near = solve(ch, 0.40, gam, None)
    runs = []
    for init in (None, near):
        sweeps[0] = 0
        value, bf = solve(ch, 0.42, gam, init)
        runs.append((value, float(ch.sigma2 @ [qi[0] for qi in bf.q]), sweeps[0]))
    (cold, cold_power, cold_sweeps), (warm, warm_power, warm_sweeps) = runs
    assert warm == pytest.approx(cold, rel=1e-9)
    assert warm_power == pytest.approx(cold_power, rel=1e-9)
    assert warm_sweeps < cold_sweeps


def test_balanced_ratio_matches_a_bisection(rng):
    """The closed-form ratio spends the budget: it matches a tight bisection
    of the powers' total over alpha, for fixed receivers (stream gains M,
    receiver noise c, streams in encoding order)."""
    def zero_gain(s):
        return InfeasibleTargets(f"user {s}: zero gain")

    for K in (2, 3, 4):
        for _ in range(4):
            gam, sigma2 = rng.uniform(0.5, 2.0, K), rng.uniform(0.5, 2.0, K)
            M = rng.uniform(0.0, 1.0, (K, K))  # the uplink reads its upper triangle
            np.fill_diagonal(M, rng.uniform(0.1, 2.0, K))
            c = rng.uniform(0.5, 2.0, K)
            budget = float(rng.uniform(1.0, 10.0))

            def total(al):
                return float(sigma2 @ model.sinr_powers(M, al * gam, c, model.MAC, zero_gain))

            lo, hi = 0.0, 1.0
            while total(hi) < budget:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if total(mid) <= budget else (lo, mid)
            alpha = macsolver._balanced_ratio(gam, M, c, sigma2, budget, zero_gain)
            assert alpha == pytest.approx(lo, rel=1e-12)
            assert total(alpha) == pytest.approx(budget, rel=1e-12)
    M[1, 1] = 0.0
    with pytest.raises(InfeasibleTargets, match="user 1"):
        macsolver._balanced_ratio(gam, M, c, sigma2, budget, zero_gain)


@pytest.mark.parametrize("nr", [2, 3])
def test_power_min_refresh_matches_the_sinr_transform(rng, nr):
    """Power minimization refreshes its user-side vectors from its own
    sweep: they equal the downlink MMSE receivers of mac_to_bc_sinr's
    output for the sweep's solution."""
    ch = ChannelSet(rand_channels(rng, 3, nr, 3), sigma2=rng.uniform(0.5, 2.0, 3),
                    encoding_order=[2, 0, 1])
    A, gam = rand_pd(rng, 3), SinrTargets(rng.uniform(0.5, 2.0, 3))
    v = [x / np.linalg.norm(x) for x in rand_channels(rng, 3, 1, nr)]
    users = np.array(ch.encoding_order)
    gamma = gam.gamma[users]
    _, links = model.stream_links(ch, v)
    u, q = macsolver._mmse_pass(A, users, links, lambda s, gain, den: gamma[s] * den / gain)
    got = macsolver._power_min_receivers(ch, users, links, u, gamma)
    bf = mac_to_bc_sinr(ch, macsolver._single_stream(ch, u, v, q), A)
    want = bc_mmse_receivers(ch, [ui[0] for ui in bf.u], [pi[0] for pi in bf.p])
    for gi, wi in zip(got, want):
        assert np.max(np.abs(gi[0] - wi)) <= 1e-12


def test_sinr_balance_stops_where_its_receiver_updates_stall():
    """Near singular noise, as merged at a vertex of the multiplier simplex,
    two-antenna users' alternating receiver updates stall: the powers creep
    on by about 5e-7 relative a sweep and never settle.  A stalled sweep
    that moves alpha by at most tol stops the solve within a few sweeps,
    at a solution whose ratios all equal alpha."""
    ch = ChannelSet(rand_channels(np.random.default_rng(1), 2, 2, 3))
    A = np.diag([1e-7, 1.0, 1e-7])
    alpha, bf = solve_sinr_balance_mac(ch, A, 3.0, SinrTargets([1.0, 1.0]),
                                       SolverSettings(max_iters=50))
    s = mac_sinr(ch, bf, A)
    assert [s[i][0] for i in range(2)] == pytest.approx([alpha, alpha], rel=1e-9)
