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
    Ghat = model.whitened_channels(ch, np.eye(2))[0]
    coeffs = macsolver._rate_coeffs(np.array([1.5, 1.0]))
    Z = [np.zeros((2, 2), dtype=complex) for _ in range(2)]
    obj = macsolver._objective(coeffs, macsolver._cum_mats(Ghat, Z, coeffs[0]))
    for _ in range(25):
        grads = macsolver._gradient(Ghat, coeffs, macsolver._cum_mats(Ghat, Z, coeffs[0]))
        Z = macsolver._project_blocks(
            [Z[i] + 0.2 * grads[i] for i in range(2)], 2.0)
        new_obj = macsolver._objective(coeffs, macsolver._cum_mats(Ghat, Z, coeffs[0]))
        assert new_obj >= obj - 1e-12
        obj = new_obj


def test_gradient_matches_finite_differences(rng):
    for _ in range(10):
        K = int(rng.integers(1, 3))
        ch = ChannelSet(rand_channels(rng, K, 2, 2))
        A = rand_pd(rng, 2)
        Ghat = model.whitened_channels(ch, A)[0]
        w = rng.uniform(0.5, 2.0, K)
        coeffs = macsolver._rate_coeffs(w)
        Z = [rand_pd(rng, 2, 0.5) for _ in range(K)]
        grads = macsolver._gradient(Ghat, coeffs, macsolver._cum_mats(Ghat, Z, coeffs[0]))
        for i in range(K):
            def f(Qi, i=i):
                Zi = [Qi if j == i else Z[j] for j in range(K)]
                return macsolver._objective(coeffs, macsolver._cum_mats(Ghat, Zi, coeffs[0]))

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
    alpha, bf, _ = solve_sinr_balance_mac(ch, [[0.7]], 2.0, SinrTargets([2.0]), TIGHT)
    assert alpha == pytest.approx(2.0 * 1.5 ** 2 / (0.7 * 2.0), rel=1e-9)


def test_balance_orthogonal_split():
    ch = ChannelSet([[[1.0, 0.0]], [[0.0, 2.0]]])
    gam = SinrTargets([1.0, 1.0])
    alpha, bf, _ = solve_sinr_balance_mac(ch, np.eye(2), 3.0, gam, TIGHT)
    # independent water-level: q_i |h_i|^2 = alpha, sum q = budget
    assert alpha == pytest.approx(3.0 / (1.0 + 0.25), rel=1e-9)


def test_balance_equal_ratio_and_budget(rng):
    for _ in range(5):
        K = int(rng.integers(1, 4))
        ch = ChannelSet(rand_channels(rng, K, 1, 3), sigma2=rng.uniform(0.5, 2, K))
        A = rand_pd(rng, 3)
        gam = SinrTargets(rng.uniform(0.5, 2.0, K))
        alpha, bf, _ = solve_sinr_balance_mac(ch, A, 2.0, gam, TIGHT)
        ratios = mac_sinr(ch, bf, A) / gam.gamma
        assert np.max(np.abs(ratios - alpha)) <= 1e-6 * alpha
        assert ch.sigma2 @ bf.q == pytest.approx(2.0, abs=1e-8)


def test_balance_scenario_channels_vs_grid():
    H1 = [[1.0, 0.0], [0.5, 0.6]]
    H2 = [[0.4, 0.0], [0.5, 1.5]]
    ch = ChannelSet([H1, H2])
    gam = SinrTargets([1.0, 1.0])
    alpha, bf, _ = solve_sinr_balance_mac(ch, np.eye(2), 10.0, gam,
                                          SolverSettings(tol=1e-10))
    ref = brute_sinr_balance(ch, [LinearConstraint(np.eye(2), 10.0)], gam,
                             GridSpec(resolution=40, rounds=7, shrink=0.35))
    assert alpha == pytest.approx(ref, abs=1e-3)


def test_power_min_scalar():
    ch = ChannelSet([[[1.5]]])
    tot, bf, _ = solve_power_min_mac(ch, [[0.7]], SinrTargets([2.0]))
    assert tot == pytest.approx(0.7 * 2.0 / 1.5 ** 2, rel=1e-12)


def test_power_min_small_targets(rng):
    ch = ChannelSet(rand_channels(rng, 2, 1, 2))
    tots = []
    for g in (1e-3, 1e-6, 1e-9):
        tot = solve_power_min_mac(ch, np.eye(2), SinrTargets([g, g]))[0]
        tots.append(tot)
    assert tots[0] > tots[1] > tots[2]
    assert tots[2] < 1e-8


def test_power_min_meets_targets_exactly(rng):
    for _ in range(5):
        K = int(rng.integers(1, 4))
        ch = ChannelSet(rand_channels(rng, K, 1, 3), sigma2=rng.uniform(0.5, 2, K))
        A = rand_pd(rng, 3)
        gam = SinrTargets(rng.uniform(0.5, 3.0, K))
        tot, bf, _ = solve_power_min_mac(ch, A, gam)
        assert mac_sinr(ch, bf, A) == pytest.approx(gam.gamma, rel=1e-8)


def test_power_min_infeasible_zero_channel():
    ch = ChannelSet([[[0.0, 0.0]]])
    with pytest.raises(InfeasibleTargets):
        solve_power_min_mac(ch, np.eye(2), SinrTargets([1.0]))
    # at a later decode position the error names the user
    ch = ChannelSet([[[1.0, 0.5]], [[0.0, 0.0]]])
    with pytest.raises(InfeasibleTargets, match="user 1: zero effective channel gain"):
        solve_power_min_mac(ch, np.eye(2), SinrTargets([1.0, 1.0]))


@pytest.mark.parametrize("nr", [1, 2, 3])
def test_power_min_meets_every_target(rng, nr):
    """The receiver/power fixed point ends at powers meeting every target,
    for multi-antenna users and a permuted encoding order too."""
    for K in (2, 3):
        ch = ChannelSet(rand_channels(rng, K, nr, 3), sigma2=rng.uniform(0.5, 2, K),
                        encoding_order=rng.permutation(K))
        A, gam = rand_pd(rng, 3), SinrTargets(rng.uniform(0.5, 3.0, K))
        bf = solve_power_min_mac(ch, A, gam)[1]
        assert np.all(mac_sinr(ch, bf, A) >= gam.gamma * (1 - 1e-9))


def test_power_min_powers_beyond_the_cap_are_infeasible():
    """Targets whose powers pass 1e12 raise InfeasibleTargets."""
    ch = ChannelSet([[[1.0, 0.5]], [[0.5, 1.0]]])
    with pytest.raises(InfeasibleTargets, match="diverged"):
        solve_power_min_mac(ch, np.eye(2), SinrTargets([1.0, 1e13]))


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


# Stacked layout of the WSR solver (stacks in encoding order between entry and
# exit) against plain per-block references.

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


def _assert_objective_and_gradient_match(rng, ch, A, w):
    """The stacked objective and gradient, taken on stacks in encoding order
    and the gradient put back in user order, against mac_rates and the
    per-block reference gradient, to 1e-12 relative."""
    G = _ref_whitened(ch, A)
    Ghat = model.whitened_channels(ch, A)[0]
    np.testing.assert_allclose(Ghat, np.array(G), rtol=1e-12, atol=0)
    order = list(ch.encoding_order)
    coeffs = macsolver._rate_coeffs(w[order])
    for _ in range(3):
        cov = random_mac_cov(rng, ch.K, ch.nr, 2.5)
        Z = np.array([ch.sigma2[i] * cov.Q[i] for i in range(ch.K)])
        ref_obj = float(w @ mac_rates(ch, cov, A))
        mats = macsolver._cum_mats(Ghat[order], Z[order], coeffs[0])
        obj = macsolver._objective(coeffs, mats)
        assert obj == pytest.approx(ref_obj, rel=1e-12)
        grads = np.empty_like(Z)
        grads[order] = macsolver._gradient(Ghat[order], coeffs, mats)
        for i, g_ref in enumerate(_ref_gradient(ch, G, w, Z)):
            assert np.max(np.abs(grads[i] - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))


def test_stacked_objective_and_gradient_match_per_block(rng):
    ch, A = _stack_instance(rng)
    _assert_objective_and_gradient_match(rng, ch, A, STACK_W)


# weights in user order; STACK_ORDER encodes users 2, 0, 3, 1
@pytest.mark.parametrize("w, nz", [
    (np.ones(4), [3]),                             # sum rate: the last position only
    (np.array([1.4, 0.6, 2.1, 1.4]), [0, 2, 3]),   # tie at positions 1 and 2
    (np.array([2.0, 1.0, 2.0, 1.0]), [1, 3]),      # ties at positions 0, 1 and 2, 3
])
def test_tied_weights_factorize_only_nonzero_coefficients(rng, w, nz):
    ch, A = _stack_instance(rng)
    assert macsolver._rate_coeffs(w[list(ch.encoding_order)])[0].tolist() == nz
    _assert_objective_and_gradient_match(rng, ch, A, w)


# weights along the encoding order; ties make runs of several users at later
# positions, which the STACK_ORDER instance above cannot
@pytest.mark.parametrize("ordered, nz", [
    ([3.0, 3.0, 3.0, 2.0, 1.5, 1.5, 1.5, 1.5], [2, 3, 7]),  # runs of 3, 1 and 4 positions
    ([1.0] * 8, [7]),                                        # sum rate: one run of 8
])
def test_tied_runs_at_eight_users(rng, ordered, nz):
    ch = ChannelSet(rand_channels(rng, 8, 2, 5), rng.uniform(0.5, 2.0, 8),
                    tuple(rng.permutation(8)))
    w = np.empty(8)
    w[list(ch.encoding_order)] = ordered
    assert macsolver._rate_coeffs(w[list(ch.encoding_order)])[0].tolist() == nz
    _assert_objective_and_gradient_match(rng, ch, rand_pd(rng, 5), w)


def test_single_user_objective_and_gradient(rng):
    ch = ChannelSet(rand_channels(rng, 1, 2, 3), [0.7])
    _assert_objective_and_gradient_match(rng, ch, rand_pd(rng, 3), np.array([1.3]))


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


def test_solvers_reject_an_infinite_budget(rng):
    """An infinite budget is refused where it enters, by name: by the
    weighted-sum-rate solver from a cold start and from a warm one, and by
    SINR balancing."""
    ch = ChannelSet(rand_channels(rng, 2, 2, 2))
    warm = solve_wsr_mac(ch, np.eye(2), 1.0, [1, 1]).cov
    for init in (None, warm):
        with pytest.raises(InvalidInput, match="budget"):
            solve_wsr_mac(ch, np.eye(2), np.inf, [1, 1], init=init)
    with pytest.raises(InvalidInput, match="budget"):
        solve_sinr_balance_mac(ch, np.eye(2), np.inf, SinrTargets([1.0, 1.0]))


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


def _spg_instance(rng, tied):
    """(channels, noise, budget, weights): K = 8 with weights tied in runs of
    3, 1 and 4 positions, or K = 2 with untied ones."""
    if not tied:
        return ChannelSet(rand_channels(rng, 2, 2, 3)), rand_pd(rng, 3), 2.0, np.array([2.0, 1.0])
    ch = ChannelSet(rand_channels(rng, 8, 2, 5), rng.uniform(0.5, 2.0, 8),
                    tuple(rng.permutation(8)))
    w = np.empty(8)
    w[list(ch.encoding_order)] = [3.0, 3.0, 3.0, 2.0, 1.5, 1.5, 1.5, 1.5]
    return ch, rand_pd(rng, 5), 4.0, w


@pytest.mark.parametrize("tied", [True, False], ids=["K8_tied", "K2_untied"])
def test_spg_projects_once_per_iteration_onto_feasible_iterates(rng, monkeypatch, tied):
    """The ascent projects its start and then once per iteration, and every
    iterate it accepts (each one's gradient is taken) is PSD within the
    budget: a backtrack moves between two feasible points."""
    ch, A, budget, w = _spg_instance(rng, tied)
    projections, formed, iterates = [0], [], []
    project, cum_mats = macsolver._project_blocks, macsolver._cum_mats
    gradient = macsolver._gradient

    def counted(mats, b):
        projections[0] += 1
        return project(mats, b)

    def kept(Ghat, Z, nz):
        formed.append((Z, cum_mats(Ghat, Z, nz)))
        return formed[-1][1]

    def recorded(Ghat, coeffs, mats):  # the iterate whose Phi_m these are
        iterates.append(next(Z for Z, m in formed if m is mats))
        return gradient(Ghat, coeffs, mats)

    monkeypatch.setattr(macsolver, "_project_blocks", counted)
    monkeypatch.setattr(macsolver, "_cum_mats", kept)
    monkeypatch.setattr(macsolver, "_gradient", recorded)
    sol = solve_wsr_mac(ch, A, budget, w, TIGHT)
    assert sol.converged and sol.iterations > 1
    assert projections[0] <= sol.iterations + 1
    assert len(iterates) == sol.iterations + 1
    for Z in iterates:
        assert np.linalg.eigvalsh(Z).min() >= -1e-12 * budget
        assert np.trace(Z, axis1=1, axis2=2).real.sum() <= budget * (1 + 1e-12)


@pytest.mark.parametrize("tied", [True, False], ids=["K8_tied", "K2_untied"])
def test_spg_warm_start_at_a_converged_solution_stays_there(rng, tied):
    """Started at its own converged solution, where the objective is flat to
    roundoff (a Barzilai-Borwein curvature <s, -y> there can come out <= 0),
    the ascent converges again on the same objective."""
    ch, A, budget, w = _spg_instance(rng, tied)
    sol = solve_wsr_mac(ch, A, budget, w, TIGHT)
    warm = solve_wsr_mac(ch, A, budget, w, TIGHT, init=sol.cov)
    assert sol.converged and warm.converged
    assert warm.objective == pytest.approx(sol.objective, rel=1e-12)


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
def test_spg_reaches_tolerances_where_the_objective_is_flat_to_roundoff(rng, tol):
    """On the K = 8 tied instance (objective about 30) the ascent's steps
    gain less than the objective's rounding long before the gap reaches
    1e-12 relative.  Such a step is taken unchecked, so the ascent reaches
    the tolerance asked; it stopped at a gap of 4.8e-9 relative after 22
    steps, converged=False, when it backtracked on them."""
    ch, A, budget, w = _spg_instance(rng, True)
    sol = solve_wsr_mac(ch, A, budget, w, SolverSettings(tol=tol))
    assert sol.converged and sol.gap <= tol * abs(sol.objective)
    assert sol.objective >= solve_wsr_mac(ch, A, budget, w, TIGHT).objective


def test_relabelling_users_into_encoding_order_changes_no_bit(rng):
    """The ascent sees only encoding positions, so a channel set whose users
    are relabelled into its encoding order solves to the same bits: the
    covariances (permuted), the objective and the iteration count."""
    for draw in range(40):
        K = int(rng.integers(2, 6))
        H, sigma2 = np.array(rand_channels(rng, K, 2, 3)), rng.uniform(0.5, 2.0, K)
        order = list(rng.permutation(K))
        ch = ChannelSet(H, sigma2, order)
        ordered = np.sort(rng.uniform(0.5, 2.0, K))[::-1]
        if draw % 2:  # ties: every weight rounded to a half
            ordered = np.ceil(2 * ordered) / 2
        w = np.empty(K)
        w[order] = ordered
        A = rand_pd(rng, 3)
        sol = solve_wsr_mac(ch, A, 2.0, w)
        relabelled = solve_wsr_mac(ChannelSet(H[order], sigma2[order]), A, 2.0, w[order])
        assert np.array_equal(sol.cov.Q[order], relabelled.cov.Q)
        assert sol.objective == relabelled.objective
        assert sol.iterations == relabelled.iterations


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
    uplink SIC passes (one a sweep, and SINR balancing's transform one more
    between sweeps)."""
    ch, gam = ChannelSet(BAL_H), SinrTargets([1.0, 2.0])
    sweeps = [0]
    real = model.uplink_sic

    def counted(*args):
        sweeps[0] += 1
        return real(*args)

    monkeypatch.setattr(model, "uplink_sic", counted)
    near = solve(ch, 0.40, gam, None)[1]
    runs = []
    for init in (None, near):
        sweeps[0] = 0
        value, bf, _ = solve(ch, 0.42, gam, init)
        runs.append((value, float(ch.sigma2 @ bf.q), sweeps[0]))
    (cold, cold_power, cold_sweeps), (warm, warm_power, warm_sweeps) = runs
    assert warm == pytest.approx(cold, rel=1e-9)
    assert warm_power == pytest.approx(cold_power, rel=1e-9)
    assert warm_sweeps < cold_sweeps


def test_balanced_ratio_matches_a_bisection(rng):
    """The closed-form ratio spends the budget: it matches a tight bisection
    of the powers' total over alpha, for fixed receivers (stream gains M,
    receiver noise c, streams in encoding order), up to 16 streams and with
    entries over eight decades."""
    def zero_gain(s):
        return InfeasibleTargets(f"user {s}: zero gain")

    def draws():
        for K in (2, 3, 4):
            for _ in range(4):
                gam, sigma2 = rng.uniform(0.5, 2.0, K), rng.uniform(0.5, 2.0, K)
                M = rng.uniform(0.0, 1.0, (K, K))  # the uplink reads its upper triangle
                np.fill_diagonal(M, rng.uniform(0.1, 2.0, K))
                yield gam, sigma2, M, rng.uniform(0.5, 2.0, K), float(rng.uniform(1.0, 10.0))
        for K in (2, 4, 8, 16):  # every entry over eight decades
            for _ in range(4):
                gam, sigma2, M, c = (10.0 ** rng.uniform(-4, 4, n) for n in (K, K, (K, K), K))
                yield gam, sigma2, M, c, float(10.0 ** rng.uniform(-4, 4))

    for gam, sigma2, M, c, budget in draws():
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
    sweep: for receivers MMSE under the powers q and targets equal to the
    SINRs they reach, the refresh equals the downlink MMSE receivers of
    mac_to_bc_sinr's output for that solution."""
    ch = ChannelSet(rand_channels(rng, 3, nr, 3), sigma2=rng.uniform(0.5, 2.0, 3),
                    encoding_order=[2, 0, 1])
    A, q = rand_pd(rng, 3), rng.uniform(0.5, 2.0, 3)  # q in encoding order
    v = np.array([x[0] / np.linalg.norm(x) for x in rand_channels(rng, 3, 1, nr)])
    users = np.array(ch.encoding_order)
    links = model.stream_links(ch, v)
    u, gamma = model.uplink_sic(A, links, q, macsolver._zero_gain(users))
    got = macsolver._refreshed_vectors(ch, users, model.stream_gains(links, u), u, gamma)
    bf = mac_to_bc_sinr(ch, macsolver._uplink_solution(ch, u, v, q), A)
    assert np.max(np.abs(got - bc_mmse_receivers(ch, bf.u, bf.p))) <= 1e-12


def test_sinr_balance_stops_where_its_receiver_updates_stall():
    """Near singular noise, as merged at a vertex of the multiplier simplex,
    two-antenna users' alternating receiver updates stall: the powers creep
    on by about 5e-7 relative a sweep and never settle.  At its sweep cap
    the solve returns its last kept sweep, flagged as not settled, at a
    solution whose ratios all equal alpha."""
    ch = ChannelSet(rand_channels(np.random.default_rng(1), 2, 2, 3))
    A = np.diag([1e-7, 1.0, 1e-7])
    alpha, bf, settled = solve_sinr_balance_mac(ch, A, 3.0, SinrTargets([1.0, 1.0]),
                                                SolverSettings(max_iters=50))
    assert not settled
    assert mac_sinr(ch, bf, A) == pytest.approx([alpha, alpha], rel=1e-9)


def test_power_min_at_its_sweep_cap_returns_an_unsettled_total():
    """Two sweeps do not settle power minimization: it returns the last
    kept sweep, flagged as not settled, whose powers meet every target and
    whose total is no less than the settled minimum."""
    ch, gam = ChannelSet(BAL_H), SinrTargets([1.0, 2.0])
    total, _, settled = solve_power_min_mac(ch, np.eye(2), gam)
    capped, bf, capped_settled = solve_power_min_mac(ch, np.eye(2), gam,
                                                     SolverSettings(max_iters=2))
    assert settled and not capped_settled
    assert capped >= total
    assert np.all(mac_sinr(ch, bf, np.eye(2)) >= gam.gamma * (1 - 1e-9))


# Extrapolated sweeps of the beamforming fixed points against plain sweeps.

def _plain_sweeps(ch, A, targets, budget=None, init=None, rtol=1e-13, max_sweeps=10000):
    """The receiver/power fixed point by plain sweeps, with no extrapolation:
    SINR balancing under ``budget``, or power minimization without one, from
    ``init`` or from scratch, until no power moves by more than ``rtol``
    relative or ``max_sweeps`` ran out.  Returns the value (alpha or the
    total power) and the uplink solution."""
    users = np.array(ch.encoding_order)
    gamma, sigma2, zero_gain = targets.gamma[users], ch.sigma2[users], macsolver._zero_gain(users)
    v, q = macsolver._start(ch, init)
    if budget is not None and q.any():
        q = q * (budget / float(sigma2 @ q))
    for _ in range(max_sweeps):
        links = model.stream_links(ch, v)
        u = model.uplink_sic(A, links, q, zero_gain)[0]
        M, c = model.stream_gains(links, u), model.uplink_noise(u, A)
        value = None if budget is None else \
            macsolver._balanced_ratio(gamma, M, c, sigma2, budget, zero_gain)
        new_q = model.sinr_powers(M, gamma if budget is None else value * gamma, c,
                                  model.MAC, zero_gain)
        done, q = np.max(np.abs(new_q - q) / new_q) <= rtol, new_q
        if done:
            break
        if ch.nr > 1:
            u_r, M_r, gamma_r = u, M, gamma
            if budget is not None:  # the refresh's pass at the rebalanced powers
                u_r, gamma_r = model.uplink_sic(A, links, q, zero_gain)
                M_r = model.stream_gains(links, u_r)
            v = macsolver._refreshed_vectors(ch, users, M_r, u_r, gamma_r)
    value = float(sigma2 @ q) if budget is None else value
    return value, macsolver._uplink_solution(ch, u, v, q)


def _beamforming_instance(seed, nr):
    rng = np.random.default_rng(seed)
    ch = ChannelSet(rand_channels(rng, 3, nr, 3), sigma2=rng.uniform(0.5, 2.0, 3),
                    encoding_order=rng.permutation(3))
    return ch, rand_pd(rng, 3), SinrTargets(rng.uniform(0.5, 2.0, 3))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("nr", [1, 2, 3])
@pytest.mark.parametrize("budget", [4.0, None], ids=["sinr_balance", "power_min"])
def test_extrapolated_sweeps_reach_the_plain_fixed_point(budget, nr, warm):
    """With the extrapolation, both fixed points reach the value, the total
    power and the per-user SINRs of plain sweeps run to 1e-13, within 1e-10
    relative, from scratch and from the solution at a nearby noise."""
    ch, A, gam = _beamforming_instance(10 + nr, nr)
    init = None
    if warm:
        near = A + 0.05 * np.eye(3)
        init = (solve_power_min_mac(ch, near, gam) if budget is None
                else solve_sinr_balance_mac(ch, near, budget, gam))[1]
    if budget is None:
        value, bf, _ = solve_power_min_mac(ch, A, gam, init=init)
    else:
        value, bf, _ = solve_sinr_balance_mac(ch, A, budget, gam, init=init)
    ref, ref_bf = _plain_sweeps(ch, A, gam, budget, init)
    assert value == pytest.approx(ref, rel=1e-10)
    assert float(ch.sigma2 @ bf.q) == pytest.approx(float(ch.sigma2 @ ref_bf.q), rel=1e-10)
    np.testing.assert_allclose(mac_sinr(ch, bf, A), mac_sinr(ch, ref_bf, A), rtol=1e-10)


@pytest.mark.parametrize("nr", [1, 2])
def test_extrapolation_keeps_the_fixed_points_monotone(monkeypatch, nr):
    """Every sweep the fixed points keep is no worse than the one before, to
    rounding (a plain sweep at a settled point moves its value by a few
    ulp): the ratios SINR balancing keeps never fall and the totals power
    minimization keeps never rise.  A sweep is kept when its power move is
    taken, so the spy pairs each taken move with the ratio of the same
    sweep."""
    events, real_move, real_ratio = [], macsolver._move, macsolver._balanced_ratio

    def move(new_q, q):
        events.append(("kept", new_q))
        return real_move(new_q, q)

    def ratio(*args):
        events.append(("alpha", real_ratio(*args)))
        return events[-1][1]

    monkeypatch.setattr(macsolver, "_move", move)
    monkeypatch.setattr(macsolver, "_balanced_ratio", ratio)
    for seed in range(4):
        ch, A, gam = _beamforming_instance(seed, nr)
        sigma2 = ch.sigma2[list(ch.encoding_order)]
        events.clear()
        solve_power_min_mac(ch, A, gam)
        totals = [float(sigma2 @ q) for kind, q in events if kind == "kept"]
        assert len(totals) > 3 and np.all(np.diff(totals) <= 1e-14 * totals[0])
        events.clear()
        solve_sinr_balance_mac(ch, A, 4.0, gam)
        alphas = [a for (kind, a), (nxt, _) in zip(events, events[1:])
                  if kind == "alpha" and nxt == "kept"]
        assert len(alphas) > 3 and np.all(np.diff(alphas) >= -1e-14 * alphas[-1])


def test_cold_starts_on_the_beamform_instance_take_pinned_sic_passes(monkeypatch):
    """The first evaluation of each balancing search on the beamforming
    benchmark's channels (noise I / 2, budget 5, targets [1, 1]) starts from
    scratch; with the extrapolation SINR balancing takes 25 uplink SIC
    passes and power minimization 12 (67 and 16 with plain sweeps)."""
    ch, gam, A = ChannelSet(BAL_H), SinrTargets([1.0, 1.0]), 0.5 * np.eye(2)
    passes, real = [0], model.uplink_sic

    def counted(*args):
        passes[0] += 1
        return real(*args)

    monkeypatch.setattr(model, "uplink_sic", counted)
    solve_sinr_balance_mac(ch, A, 5.0, gam)
    assert passes[0] == 25
    passes[0] = 0
    solve_power_min_mac(ch, A, gam)
    assert passes[0] == 12


@pytest.mark.parametrize("s", [1e-7, 1e3])
def test_power_min_total_scales_with_the_channels(s):
    """Scaling every channel by s scales the minimum total power by 1 / s^2:
    the divergence test reads the received signal-to-noise ratio, which the
    scaling leaves alone (at s = 1e-7 the total is 1.7e14, and an absolute
    cap of 1e12 on the powers raised)."""
    gam = SinrTargets([1.0, 2.0])
    total = solve_power_min_mac(ChannelSet(BAL_H), np.eye(2), gam)[0]
    scaled = solve_power_min_mac(ChannelSet(s * np.array(BAL_H)), np.eye(2), gam)[0]
    assert scaled * s ** 2 == pytest.approx(total, rel=1e-10)


def test_sinr_balance_climbs_further_where_its_receiver_updates_creep(monkeypatch):
    """At a vertex of the multiplier simplex of three per-antenna
    constraints, SINR balancing's ratio creeps up by about 2e-6 relative a
    sweep, so the power rule does not stop it before its sweep cap (the
    multiplier search on this channel draw goes on with the capped ratio).  The
    extrapolated sweeps climb further: within 400 sweeps their ratio gets
    over 4% above that of 400 plain sweeps (15% here)."""
    rng = np.random.default_rng(0)
    K, nr, nt = rng.integers(2, 4), rng.integers(1, 4), max(rng.integers(2, 4), 2)
    ch = ChannelSet(rand_channels(rng, K, nr, nt))
    gam = SinrTargets(rng.uniform(0.5, 2, K))
    A = np.diag([1e-7, 1 - 2e-7, 1e-7])
    alphas, real = [], macsolver._balanced_ratio

    def ratio(*args):
        alphas.append(real(*args))
        return alphas[-1]

    monkeypatch.setattr(macsolver, "_balanced_ratio", ratio)
    solve_sinr_balance_mac(ch, A, 3.0, gam, SolverSettings(max_iters=400))
    climbed = max(alphas)
    plain = _plain_sweeps(ch, A, gam, 3.0, max_sweeps=400)[0]
    assert climbed > 1.04 * plain
