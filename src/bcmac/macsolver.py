"""Convex solvers on the dual multiple-access channel.

All three problems share the same geometry: base-station noise covariance A
(any positive definite matrix), per-user uplink covariances or powers, and a
weighted sum power sum_i sigma_i^2 tr(Q_i).  Internally everything is
whitened (channels (H_i / sigma_i) A^{-1/2}, identity noise, plain trace
budget), where the weighted-sum-rate problem is concave and has a cheap exact
projection, so projected gradient ascent with Armijo backtracking suffices.

The weighted-sum-rate solver holds its per-user blocks as stacked arrays,
whitened channels ``Ghat`` (K, Nr, Nt) and covariances ``Z`` (K, Nr, Nr),
so the objective, gradient, projection and KKT residual are each a few
batched calls.  The stacks stay in user order; only the cumulative
matrices Phi_m are taken in encoding order, by one permutation of the
stacked terms on the way in and one on the way back.  Every sum over
blocks therefore adds its terms in user order whatever the encoding order,
which matters for the projection's budget test: a warm start meets the
budget with equality, and the order of the sum decides which side of it
the rounding falls on.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, model
from .errors import InfeasibleTargets, InvalidInput, MaxItersExceeded

KKT_TOL_FACTOR = 10.0  # returned kkt_residual is driven below this times tol


@dataclass(frozen=True)
class SolverSettings:
    max_iters: int = 4000
    tol: float = 1e-6
    armijo_beta: float = 0.5
    armijo_c: float = 0.1
    pd_floor: float = 1e-8
    restarts: int = 2
    seed: int = 0

    def __post_init__(self):
        if not (self.tol > 0):
            raise InvalidInput("tol must be positive")
        if not (0 < self.armijo_beta < 1 and 0 < self.armijo_c < 1):
            raise InvalidInput("Armijo parameters must lie in (0, 1)")


@dataclass
class MacSolution:
    cov: model.CovarianceSet
    objective: float
    iterations: int
    kkt_residual: float
    converged: bool = True


def _ctrans(X):
    """Conjugate transpose of every block of a stack."""
    return X.conj().swapaxes(-1, -2)


def _lsum(x):
    """Left-to-right sum of a 1-D array; np.sum pairs terms, rounding apart."""
    return float(np.cumsum(x)[-1])


def _rate_coeffs(ch, weights):
    """Coefficients c_m of the telescoped objective
    sum_i w_i r_i = sum_m c_m logdet(Phi_m) over encoding positions."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape != (ch.K,):
        raise InvalidInput(f"weights must have length {ch.K}")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise InvalidInput("weights must be positive and finite")
    ordered = w[list(ch.encoding_order)]
    return ordered - np.append(ordered[1:], 0.0)


def _cum_mats(ch, Ghat, Z):
    """Phi_m = I + sum of Ghat_i^H Z_i Ghat_i over the users encoded at
    positions 0..m, for every position m."""
    terms = (_ctrans(Ghat) @ Z @ Ghat)[list(ch.encoding_order)]
    terms[0] += np.eye(Ghat.shape[2])
    return np.cumsum(terms, axis=0)


def _objective(ch, Ghat, coeffs, Z, mats=None):
    """sum_m c_m logdet(Phi_m); -inf off the positive definite cone."""
    sign, ld = np.linalg.slogdet(_cum_mats(ch, Ghat, Z) if mats is None else mats)
    if np.any(sign.real <= 0):
        return -np.inf
    return _lsum(coeffs * ld)


def _gradient(ch, Ghat, coeffs, Z, mats=None):
    """d(objective)/dZ_i = sum_{m >= pos(i)} c_m Ghat_i Phi_m^{-1} Ghat_i^H."""
    mats = _cum_mats(ch, Ghat, Z) if mats is None else mats
    terms = coeffs[:, None, None] * np.linalg.inv(mats)
    suffix = np.cumsum(terms[::-1], axis=0)[::-1]
    g = Ghat @ suffix[np.argsort(ch.encoding_order)] @ _ctrans(Ghat)
    return linalg.hermitian_part(g)


def _project_blocks(mats, budget):
    """Exact Euclidean projection onto {Z_i >= 0, sum_i tr(Z_i) <= budget}:
    eigen-clip every block, and if the trace budget is exceeded subtract the
    common level mu solving sum (lam - mu)_+ = budget."""
    M = np.asarray(mats, dtype=np.complex128)
    if not np.all(np.isfinite(M)):
        raise InvalidInput("covariance blocks have non-finite entries")
    eigs, V = np.linalg.eigh(linalg.hermitian_part(M))
    lam = eigs.ravel()
    clipped = np.maximum(lam, 0.0)
    if clipped.sum() > budget:
        # common shift mu with sum (lam - mu)_+ = budget: keep the largest
        # rho eigenvalues active, where rho is the last k with srt[k] > mu_k
        srt = np.sort(lam)[::-1]
        csum = np.cumsum(srt)
        ks = np.arange(1, srt.size + 1)
        mu_cand = (csum - budget) / ks
        active = np.nonzero(srt > mu_cand)[0]
        if active.size == 0:
            clipped = np.zeros_like(lam)
        else:
            mu = mu_cand[active[-1]]
            clipped = np.maximum(lam - mu, 0.0)
    z = clipped.reshape(eigs.shape)
    return (V * z[:, None, :]) @ _ctrans(V)


def _used(Z):
    """Total trace, summed user by user."""
    return sum(np.trace(Z, axis1=1, axis2=2).real.tolist())


def _run_pg(ch, Ghat, coeffs, budget, settings, Z0):
    """Projected gradient ascent with Armijo backtracking from Z0."""
    Z = _project_blocks(Z0, budget)
    mats = _cum_mats(ch, Ghat, Z)
    obj = _objective(ch, Ghat, coeffs, Z, mats)
    grads = _gradient(ch, Ghat, coeffs, Z, mats)
    t = 1.0
    iters = 0
    check_every = 10
    for it in range(settings.max_iters):
        iters = it + 1
        accepted = False
        for _ in range(60):
            cand = _project_blocks(Z + t * grads, budget)
            progress = _lsum(np.trace(_ctrans(grads) @ (cand - Z), axis1=1, axis2=2).real)
            if progress <= 1e-18 * max(1.0, abs(obj)):
                break
            cand_mats = _cum_mats(ch, Ghat, cand)
            new_obj = _objective(ch, Ghat, coeffs, cand, cand_mats)
            if new_obj >= obj + settings.armijo_c * progress:
                rel = abs(new_obj - obj) / max(1.0, abs(new_obj))
                Z, obj, mats = cand, new_obj, cand_mats
                accepted = True
                t = min(t * 2.0, 1e8)
                break
            t *= settings.armijo_beta
        if not accepted:
            kkt = _kkt_from_state(Z, grads, budget)
            return Z, obj, iters, kkt, True
        # the gradient at the accepted point serves the KKT check and the
        # next step alike
        grads = _gradient(ch, Ghat, coeffs, Z, mats)
        if rel < settings.tol or it % check_every == check_every - 1:
            kkt = _kkt_from_state(Z, grads, budget)
            if kkt <= KKT_TOL_FACTOR * settings.tol:
                return Z, obj, iters, kkt, True
    kkt = _kkt_from_state(Z, grads, budget)
    return Z, obj, iters, kkt, kkt <= KKT_TOL_FACTOR * settings.tol


def _ls_multiplier(Z, grads, budget, rank_tol=1e-9):
    """Least-squares multiplier of the trace budget: the mean diagonal of the
    gradient restricted to the ranges of the Z_i (the sensitivity of the
    optimal value to the budget at an exact optimum).  Also returns the
    (K, n) range masks and the gradients B_i = V_i^H G_i V_i in the
    eigenbases of the Z_i."""
    w, V = np.linalg.eigh(linalg.hermitian_part(Z))
    mask = w > rank_tol * np.maximum(1.0, w[:, -1:])
    B = _ctrans(V) @ grads @ V
    rank_sum = int(mask.sum())
    if budget - _used(Z) > 1e-9 * max(1.0, budget):
        lam = 0.0
    elif rank_sum > 0:
        diag = np.where(mask, np.diagonal(B, axis1=1, axis2=2).real, 0.0)
        lam = max(0.0, _lsum(diag.sum(axis=1)) / rank_sum)
    else:
        lam = max(0.0, float(np.linalg.eigvalsh(B).max()))
    return lam, mask, B


def _kkt_from_state(Z, grads, budget, rank_tol=1e-9):
    """Stationarity residual of the whitened problem at covariances Z.

    Least-squares trace multiplier on the ranges of the Z_i, then the norm of
    the residual gradient projected on the feasible-cone tangent: free blocks
    on each range, positive part only on each null space.  Zero at an exact
    maximizer.  The null-space part takes the eigenvalues of the residual
    with its range rows and columns zeroed, which only adds zero eigenvalues.
    """
    lam, mask, B = _ls_multiplier(Z, grads, budget, rank_tol)
    R = B - lam * np.eye(B.shape[-1])
    sq = np.abs(R) ** 2
    rr = mask[:, :, None] & mask[:, None, :]
    rn = mask[:, :, None] & ~mask[:, None, :]
    nn = ~mask[:, :, None] & ~mask[:, None, :]
    res_sq = np.sum(sq * rr, axis=(1, 2)) + 2.0 * np.sum(sq * rn, axis=(1, 2))
    has_null = ~mask.all(axis=1)
    if has_null.any():
        w = np.linalg.eigvalsh(np.where(nn, linalg.hermitian_part(R), 0.0)[has_null])
        res_sq[has_null] += np.sum(np.maximum(w, 0.0) ** 2, axis=1)
    return float(np.sqrt(res_sq.max()))


def solve_wsr_mac(ch, noise, budget, weights, settings=None, init=None):
    """Maximize sum_i w_i r_i over uplink covariances subject to the weighted
    sum power sum_i sigma_i^2 tr(Q_i) <= budget, with base-station noise
    covariance ``noise``.

    Decode order is fixed by the channel set (reverse of encoding order).
    Runs ``settings.restarts`` projected-gradient ascents from different
    initial points (``init``, an uplink CovarianceSet, replaces the default
    first point to warm-start outer loops).  The whitened problem is concave
    for weights nonincreasing in encoding order, the order the front end
    always passes, so restarts must agree.  On hitting the iteration budget
    the best iterate is returned with ``converged=False``.
    """
    settings = settings or SolverSettings()
    if not (budget >= 0):
        raise InvalidInput("budget must be nonnegative")
    noise = linalg.check_hermitian(noise, name="noise")
    Ghat = model.whitened_channels(ch, noise, settings.pd_floor)[0]
    coeffs = _rate_coeffs(ch, weights)
    K, nr = ch.K, ch.nr
    if budget == 0.0:
        cov = model.CovarianceSet.zeros(model.MAC, K, nr)
        return MacSolution(cov, 0.0, 0, 0.0, True)
    rng = np.random.default_rng(settings.seed)
    if init is not None:
        inits = [ch.sigma2[:, None, None] * init.Q]
    else:
        eye = np.eye(nr, dtype=np.complex128)
        inits = [budget / (K * nr) * np.broadcast_to(eye, (K, nr, nr))]
    for _ in range(max(0, settings.restarts - 1)):
        X = rng.normal(size=(K, 2, nr, nr))  # per user: real part, then imaginary
        X = X[:, 0] + 1j * X[:, 1]
        blocks = X @ _ctrans(X)
        inits.append(blocks * (budget / _used(blocks)))
    best = None
    total_iters = 0
    objs = []
    for Z0 in inits:
        Z, obj, iters, kkt, ok = _run_pg(ch, Ghat, coeffs, budget, settings, Z0)
        total_iters += iters
        objs.append(obj)
        if best is None or obj > best[1]:
            best = (Z, obj, kkt, ok)
    Z, obj, kkt, ok = best
    agree = max(objs) - min(objs) <= KKT_TOL_FACTOR * settings.tol * max(1.0, abs(obj))
    cov = model.CovarianceSet.built(model.MAC, Z / ch.sigma2[:, None, None])
    return MacSolution(cov, obj, total_iters, kkt, bool(ok and agree))


def _state_at(ch, noise, weights, cov, pd_floor):
    """Stacked whitened covariances of ``cov`` and the gradient there."""
    Z = ch.sigma2[:, None, None] * cov.Q
    Ghat = model.whitened_channels(ch, noise, pd_floor)[0]
    grads = _gradient(ch, Ghat, _rate_coeffs(ch, weights), Z)
    return Z, grads


def kkt_residual_wsr(ch, noise, budget, weights, cov, pd_floor=linalg.PD_FLOOR):
    """Stationarity residual of a feasible uplink covariance set for the
    weighted-sum-rate problem; ~0 at an exact optimum."""
    Z, grads = _state_at(ch, noise, weights, cov, pd_floor)
    budget = float(budget) if budget is not None else _used(Z)
    return _kkt_from_state(Z, grads, budget)


def budget_multiplier_wsr(ch, noise, budget, weights, cov,
                          pd_floor=linalg.PD_FLOOR):
    """Sensitivity of the optimal weighted sum rate to the power budget (the
    budget constraint's Lagrange multiplier) estimated at ``cov`` by least
    squares on the active eigenspaces."""
    Z, grads = _state_at(ch, noise, weights, cov, pd_floor)
    return _ls_multiplier(Z, grads, float(budget))[0]


def _single_stream_setup(ch):
    """Initial user-side unit vectors: the top left singular vector of each
    channel (for one receive antenna this is just the scalar 1)."""
    v = []
    for i in range(ch.K):
        if ch.nr == 1:
            v.append(np.ones((1, 1), dtype=np.complex128))
        else:
            U, _, _ = np.linalg.svd(ch.H[i])
            v.append(U[:, :1].T)
    return [vi / np.linalg.norm(vi) for vi in v]


def _single_stream(ch, u, v, q):
    """Uplink solution with one stream per user from per-user vectors and
    powers (indexed by user)."""
    return model.BeamformingSolution(
        u=[u[i].reshape(1, -1) for i in range(ch.K)],
        v=[v[i].reshape(1, -1) for i in range(ch.K)],
        q=[np.array([q[i]]) for i in range(ch.K)],
    )


def _mac_links(ch, v):
    """Effective uplink signal vectors at the base station, g_i = H_i^H v_i."""
    return [ch.H[i].conj().T @ v[i].ravel() for i in range(ch.K)]


def _mmse_pass(ch, A, g, power):
    """Uplink SIC pass over the users in encoding order with MMSE receive
    vectors; ``power(i, gain, den)`` sets user i's power (see
    :func:`model.uplink_sic`).  Returns vectors and powers keyed by user."""
    u, q, _ = model.uplink_sic(
        A, [(i, g[i]) for i in ch.encoding_order], power,
        vanishing=lambda i: InfeasibleTargets(f"user {i}: zero effective channel"))
    return u, q


def _link_gains(ch, A, g, u):
    """b[i][k] = |u_i^H g_k|^2 for earlier-encoded k, c_i = u_i^H A u_i."""
    K = ch.K
    c = np.zeros(K)
    b = np.zeros((K, K))
    for m in range(K):
        i = ch.encoding_order[m]
        c[i] = float(np.real(u[i].conj() @ A @ u[i]))
        for mm in range(m):
            k = ch.encoding_order[mm]
            b[i, k] = abs(np.vdot(u[i], g[k])) ** 2
    return b, c


def _powers_for_ratio(ch, targets, a, b, c, alpha):
    """Uplink powers meeting SINR_i = alpha * gamma_i exactly, filled in
    encoding order (each user only sees earlier-encoded interference)."""
    K = ch.K
    q = np.zeros(K)
    for m in range(K):
        i = ch.encoding_order[m]
        if a[i] <= 0:
            raise InfeasibleTargets(f"user {i}: zero effective channel gain")
        interf = c[i] + sum(b[i, ch.encoding_order[mm]] * q[ch.encoding_order[mm]]
                            for mm in range(m))
        q[i] = alpha * targets.gamma[i] * interf / a[i]
    return q


def _downlink_receiver_update(ch, A, u, v, q):
    """Refresh user-side vectors as downlink MMSE receivers.

    The SINR-preserving map to the downlink keeps the vectors and reproduces
    every SINR; downlink receive vectors interfere with nobody, so replacing
    them by MMSE weakly improves every stream and the next uplink rebalance
    can only raise the balanced ratio.
    """
    from . import transforms

    bf_bc = transforms.sinr_to_bc(ch, _single_stream(ch, u, v, q), A)
    p = [bf_bc.p[i][0] for i in range(ch.K)]
    beams = [bf_bc.u[i][0] for i in range(ch.K)]
    vnew = model.bc_mmse_receivers(ch, beams, p)
    return [vi.reshape(1, -1) for vi in vnew]


def solve_sinr_balance_mac(ch, noise, budget, targets, settings=None):
    """Maximize the common ratio alpha = SINR_i / gamma_i on the dual uplink
    under sum_i sigma_i^2 q_i = budget, one stream per user.

    Alternates MMSE receive vectors at the base station with an exact power
    rebalance: for fixed vectors the powers meeting a common ratio are a
    triangular system, and the ratio exhausting the budget is found by
    bisection.  When users have several antennas the user-side vectors are
    refreshed as downlink MMSE receivers through the SINR-preserving
    transformation, which keeps the iteration monotone.  At return every
    ratio equals alpha to within the bisection tolerance.
    """
    settings = settings or SolverSettings()
    A = linalg.check_hermitian(noise, name="noise")
    linalg.assert_pd(A, floor=settings.pd_floor, name="uplink noise covariance")
    if targets.gamma.shape != (ch.K,):
        raise InvalidInput(f"need {ch.K} SINR targets")
    if not (budget > 0):
        raise InvalidInput("budget must be positive")
    v = _single_stream_setup(ch)
    q = np.zeros(ch.K)
    alpha = 0.0
    a = np.zeros(ch.K)  # a_i = |u_i^H g_i|^2, recorded by the SIC pass

    def current_power(i, gain, den):
        a[i] = gain
        return q[i]

    for it in range(settings.max_iters):
        g = _mac_links(ch, v)
        u, _ = _mmse_pass(ch, A, g, current_power)
        b, c = _link_gains(ch, A, g, u)

        def total(al):
            return float(ch.sigma2 @ _powers_for_ratio(ch, targets, a, b, c, al))

        new_alpha = linalg.bisect_edge(total, budget, max(alpha, 1.0), 1e-14,
                                       InfeasibleTargets("balance ratio diverged"))
        q = _powers_for_ratio(ch, targets, a, b, c, new_alpha)
        if it > 0 and abs(new_alpha - alpha) <= settings.tol * max(new_alpha, 1e-300):
            alpha = new_alpha
            break
        alpha = new_alpha
        if ch.nr > 1:
            v = _downlink_receiver_update(ch, A, u, v, q)
    else:
        raise MaxItersExceeded("SINR balancing did not converge")
    return alpha, _single_stream(ch, u, v, q)


def solve_power_min_mac(ch, noise, targets, settings=None):
    """Minimize sum_i sigma_i^2 q_i on the dual uplink subject to
    SINR_i >= gamma_i, one stream per user.

    The successive-decoding structure makes the minimum a forward pass: each
    user's power is set to meet its target exactly against already-fixed
    earlier interference, with MMSE receive vectors recomputed each sweep.
    Power growth beyond 1e12 raises InfeasibleTargets.
    """
    settings = settings or SolverSettings()
    A = linalg.check_hermitian(noise, name="noise")
    linalg.assert_pd(A, floor=settings.pd_floor, name="uplink noise covariance")
    if targets.gamma.shape != (ch.K,):
        raise InvalidInput(f"need {ch.K} SINR targets")
    v = _single_stream_setup(ch)
    q = np.zeros(ch.K)

    def target_power(i, gain, den):
        # met exactly against the interference of already-updated earlier users
        if gain <= 0:
            raise InfeasibleTargets(f"user {i}: zero effective channel gain")
        qi = targets.gamma[i] * den / gain
        if qi > 1e12:
            raise InfeasibleTargets("power fixed point diverged")
        return qi

    for it in range(settings.max_iters):
        # Gauss-Seidel sweep: receive vector, then power, user by user
        u, new_q = _mmse_pass(ch, A, _mac_links(ch, v), target_power)
        new_q = np.array([new_q[i] for i in range(ch.K)])
        change = float(np.max(np.abs(new_q - q) / np.maximum(new_q, 1e-300)))
        q = new_q
        if it > 0 and change <= 1e-11:
            break
        if ch.nr > 1:
            v = _downlink_receiver_update(ch, A, u, v, q)
    else:
        raise MaxItersExceeded("power minimization did not converge")
    total = float(sum(ch.sigma2[i] * q[i] for i in range(ch.K)))
    return total, _single_stream(ch, u, v, q)
