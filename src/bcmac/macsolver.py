"""Convex solvers on the dual multiple-access channel.

All three problems share the same geometry: base-station noise covariance A
(any positive definite matrix), per-user uplink covariances or powers, and a
weighted sum power sum_i sigma_i^2 tr(Q_i).  Internally everything is
whitened (channels (H_i / sigma_i) A^{-1/2}, identity noise, plain trace
budget), where the weighted-sum-rate problem is concave and has a cheap exact
projection, so projected gradient ascent with Armijo backtracking suffices.

The weighted-sum-rate ascent makes one deterministic start and stops on its
Frank-Wolfe gap: with gradient blocks G_i at the iterate Z, the linear
oracle over {Z_i >= 0, sum_i tr(Z_i) <= P} is P * max_i lambda_max(G_i), so
gap = P * max_i lambda_max(G_i) - sum_i tr(G_i Z_i) bounds the distance of
the objective to the optimum (Jaggi, ICML 2013), and objective + gap is a
certified upper bound.  This holds because the problem is concave, which it
is for weights nonincreasing along the encoding order; other weights are
rejected.  At an optimum where the budget binds, max_i lambda_max(G_i) is
also the budget's Lagrange multiplier.

The weighted-sum-rate solver holds its per-user blocks as stacked arrays,
whitened channels ``Ghat`` (K, Nr, Nt) and covariances ``Z`` (K, Nr, Nr),
so the objective, gradient, projection and gap are each a few batched
calls.  The stacks stay in user order; only the cumulative
matrices Phi_m are taken in encoding order, by one permutation of the
stacked terms on the way in and one on the way back.  Every sum over
blocks therefore adds its terms in user order whatever the encoding order,
which matters for the projection's budget test: a warm start meets the
budget with equality, and the order of the sum decides which side of it
the rounding falls on.

SINR balancing and power minimization are fixed points of MMSE receivers
and a power update (Schubert and Boche, 2004), one stream per user in
encoding order; for fixed receivers, the powers meeting given SINRs are
one triangular solve (``model.sinr_powers``).  Multi-antenna users'
vectors are refreshed as downlink MMSE receivers after each sweep: power
minimization's from the sweep itself (its receivers are MMSE under the
powers it set, its SINRs the targets), SINR balancing's through
``transforms.sinr_to_bc``, as it rescales the powers after the sweep.
Both take ``init``, the uplink solution of a nearby problem (the previous
evaluation of a multiplier search), and start from its user-side vectors
and powers; both stop once a sweep moves no power by more than POWER_RTOL
relative, after at least two sweeps.  Near singular noise (a merged
constraint near a vertex of the multiplier simplex) SINR balancing's
receiver updates can stall, the powers creeping on for thousands of sweeps;
a stalled sweep also stops it once alpha moved by at most ``tol`` relative.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, model
from .errors import InfeasibleTargets, InvalidInput, MaxItersExceeded

# The beamforming fixed points stop once a sweep moves every power by at
# most POWER_RTOL, relative; a move above STALL times the last one counts as
# stalled (see the module docstring).
POWER_RTOL = 1e-11
STALL = 0.99


@dataclass(frozen=True)
class SolverSettings:
    """Settings of the dual-uplink solvers, and of the multiplier search when
    passed as ``outer``.

    ``tol``: the weighted-sum-rate ascent stops once its Frank-Wolfe gap is
    at most tol * |objective|; for the multiplier search it is the certified
    relative gap that counts as converged.  The beamforming fixed points
    stop on POWER_RTOL instead, SINR balancing on ``tol`` only where it
    stalls (see the module docstring).  ``max_iters`` caps iterations
    (evaluations, for the search).  ``seed`` and ``restarts`` do nothing:
    the ascent makes one deterministic start.  They are still accepted
    because the benchmark's scripts (``perfbench/workloads.py``,
    ``perfbench/make_refs.py``) pass them; scenario configs reject them.
    """

    max_iters: int = 4000
    tol: float = 1e-6
    armijo_beta: float = 0.5
    armijo_c: float = 0.1
    pd_floor: float = 1e-8
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (self.tol > 0):
            raise InvalidInput("tol must be positive")
        if not (0 < self.armijo_beta < 1 and 0 < self.armijo_c < 1):
            raise InvalidInput("Armijo parameters must lie in (0, 1)")


@dataclass
class MacSolution:
    """A weighted-sum-rate solve: ``objective + gap`` bounds the optimum,
    ``multiplier`` is the budget's Lagrange multiplier estimate and
    ``whitened`` the (Ghat, A^{-1/2}) pair of ``model.whitened_channels``
    the solve used."""

    cov: model.CovarianceSet
    objective: float
    iterations: int
    gap: float
    converged: bool
    multiplier: float
    whitened: tuple


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
    """Projected gradient ascent with Armijo backtracking from Z0, stopped
    once the Frank-Wolfe gap is at most tol * |objective| after at least one
    step, so that a warm start from a nearby solve improves on it.  Returns
    the iterate, its objective, the accepted steps, the gap and
    max_i lambda_max(G_i)."""
    Z = _project_blocks(Z0, budget)
    mats = _cum_mats(ch, Ghat, Z)
    obj = _objective(ch, Ghat, coeffs, Z, mats)
    t = 1.0
    iters = 0
    while True:
        grads = _gradient(ch, Ghat, coeffs, Z, mats)
        top = float(np.linalg.eigvalsh(grads)[:, -1].max())
        gap = budget * top - float(np.vdot(grads, Z).real)
        if (iters and gap <= settings.tol * abs(obj)) or iters == settings.max_iters:
            return Z, obj, iters, gap, top
        for _ in range(60):
            cand = _project_blocks(Z + t * grads, budget)
            progress = _lsum(np.trace(_ctrans(grads) @ (cand - Z), axis1=1, axis2=2).real)
            if progress <= 1e-18 * max(1.0, abs(obj)):
                return Z, obj, iters, gap, top
            cand_mats = _cum_mats(ch, Ghat, cand)
            new_obj = _objective(ch, Ghat, coeffs, cand, cand_mats)
            if new_obj >= obj + settings.armijo_c * progress:
                Z, obj, mats = cand, new_obj, cand_mats
                t = min(t * 2.0, 1e8)
                break
            t *= settings.armijo_beta
        else:
            return Z, obj, iters, gap, top
        iters += 1


def budget_multiplier_wsr(Z, top, budget):
    """Lagrange multiplier of the trace budget at whitened covariances Z:
    ``top`` = max_i lambda_max(G_i) where the budget binds, zero where it is
    slack (the KKT conditions at an optimum)."""
    return top if _used(Z) >= budget * (1.0 - 1e-9) else 0.0


def solve_wsr_mac(ch, noise, budget, weights, settings=None, init=None):
    """Maximize sum_i w_i r_i over uplink covariances subject to the weighted
    sum power sum_i sigma_i^2 tr(Q_i) <= budget, with base-station noise
    covariance ``noise``.

    Decode order is fixed by the channel set (reverse of encoding order), and
    the weights must be nonincreasing along the encoding order, where the
    problem is concave; others raise InvalidInput.  One projected-gradient
    ascent runs from ``init`` (an uplink CovarianceSet, to warm-start outer
    loops) or else from equal power on every stream, and stops on its
    Frank-Wolfe gap (see the module docstring); ``converged`` says whether
    the gap met ``settings.tol`` before the iteration budget ran out.
    """
    settings = settings or SolverSettings()
    if not (budget >= 0):
        raise InvalidInput("budget must be nonnegative")
    noise = linalg.check_hermitian(noise, name="noise")
    whitened = model.whitened_channels(ch, noise, settings.pd_floor)
    coeffs = _rate_coeffs(ch, weights)
    if np.any(coeffs < 0):
        raise InvalidInput("weights must be nonincreasing along the encoding order")
    K, nr = ch.K, ch.nr
    if init is not None:
        Z0 = ch.sigma2[:, None, None] * init.Q
    else:
        Z0 = budget / (K * nr) * np.broadcast_to(np.eye(nr, dtype=np.complex128), (K, nr, nr))
    Z, obj, iters, gap, top = _run_pg(ch, whitened[0], coeffs, budget, settings, Z0)
    cov = model.CovarianceSet.built(model.MAC, Z / ch.sigma2[:, None, None])
    return MacSolution(cov, obj, iters, gap, bool(gap <= settings.tol * abs(obj)),
                       budget_multiplier_wsr(Z, top, budget), whitened)


def _start(ch, init):
    """User-side unit vectors (per user) and powers (in encoding order) a
    beamforming fixed point starts from: those of ``init`` (an uplink
    solution with one stream per user), or else the top left singular vector
    of each channel (for one receive antenna the scalar 1) and zero powers."""
    if init is None:
        v = [np.ones((1, 1), dtype=np.complex128) if ch.nr == 1
             else np.linalg.svd(ch.H[i])[0][:, :1].T for i in range(ch.K)]
        return v, np.zeros(ch.K)
    return [vi.copy() for vi in init.v], np.array([float(init.q[i][0]) for i in ch.encoding_order])


def _single_stream(ch, u, v, q):
    """Uplink solution with one stream per user from user-side vectors v (per
    user) and receivers u and powers q (in encoding order)."""
    ones = [1] * ch.K
    return model.BeamformingSolution.built(model.per_user(ch, ones, u), v,
                                           q=model.per_user(ch, ones, q))


def _move(new_q, q):
    """Largest relative change of a power from one sweep to the next."""
    return float(np.max(np.abs(new_q - q) / np.maximum(new_q, 1e-300)))


def _zero_gain(users):
    """The error of a stream whose effective channel vanishes."""
    return lambda s: InfeasibleTargets(f"user {users[s]}: zero effective channel gain")


def _mmse_pass(A, users, links, power):
    """Uplink SIC pass over the streams in encoding order with MMSE receive
    vectors; ``power(s, gain, den)`` sets stream s's power (see
    :func:`model.uplink_sic`).  Returns the receivers and powers."""
    return model.uplink_sic(A, links, power, _zero_gain(users))[:2]


def _balanced_ratio(gamma, M, c, sigma2, budget, degenerate):
    """The ratio alpha whose uplink powers (:func:`model.sinr_powers` at
    targets alpha * gamma, noise c) spend the budget.  With D =
    diag(gamma / diag(M)) and B = triu(M, 1)^T, those powers are
    q(alpha) = sum_k alpha^k (D B)^(k-1) D c, so sigma^2 . q(alpha) =
    sum_k s_k alpha^k has nonnegative coefficients: it is convex and
    increasing for alpha >= 0, and Newton's method from the upper bound
    min_k (budget / s_k)^(1/k) descends onto the root monotonically."""
    a = np.diag(M)
    if np.any(a <= 0):
        raise degenerate(int(np.argmax(a <= 0)))
    K = len(gamma)
    d, B = gamma / a, M.T * (np.arange(K)[:, None] > np.arange(K))  # triu(M, 1).T
    s, x = np.zeros(K), d * c
    for k in range(K):
        s[k] = sigma2 @ x
        x = d * (B @ x)
    k = np.arange(1, K + 1)
    alpha = float(np.min((budget / s[s > 0]) ** (1.0 / k[s > 0])))
    for _ in range(100):
        powers = alpha ** k
        step = (s @ powers - budget) / (s @ (k * powers)) * alpha
        if not step > 1e-15 * alpha:
            break
        alpha -= step
    return alpha


def _downlink_receivers(ch, u, p):
    """User-side vectors refreshed as downlink MMSE receivers of the beams u
    at powers p (one stream per user, in encoding order).  Downlink
    receivers interfere with nobody, so this weakly improves every SINR."""
    pos = np.argsort(ch.encoding_order)
    return [vi.reshape(1, -1) for vi in model.bc_mmse_receivers(ch, u[pos], p[pos])]


def _power_min_receivers(ch, users, links, u, gamma):
    """:func:`_downlink_receivers` after a power minimization sweep that met
    the targets gamma with receivers u on ``links`` (in encoding order), at
    the downlink powers meeting gamma against the sweep's stream gains."""
    return _downlink_receivers(ch, u, model.sinr_powers(
        model.stream_gains(links, u), gamma, ch.sigma2[users], model.BC, _zero_gain(users)))


def solve_sinr_balance_mac(ch, noise, budget, targets, settings=None, init=None):
    """Maximize the common ratio alpha = SINR_i / gamma_i on the dual uplink
    under sum_i sigma_i^2 q_i = budget, one stream per user.

    Alternates MMSE receive vectors at the base station with an exact power
    rebalance: for fixed vectors the powers meeting a common ratio are a
    triangular system, and the ratio exhausting the budget is the root of a
    polynomial (:func:`_balanced_ratio`).  When users have several antennas
    the user-side vectors are refreshed as downlink MMSE receivers through
    the SINR-preserving transformation of the rebalanced powers, which keeps
    the iteration monotone.  Starts from ``init``, its powers rescaled to
    ``budget``, or from scratch (see the module docstring).  At return every
    ratio equals alpha to rounding.
    """
    from . import transforms

    settings = settings or SolverSettings()
    A = linalg.check_hermitian(noise, name="noise")
    linalg.assert_pd(A, floor=settings.pd_floor, name="uplink noise covariance")
    if targets.gamma.shape != (ch.K,):
        raise InvalidInput(f"need {ch.K} SINR targets")
    if not (budget > 0):
        raise InvalidInput("budget must be positive")
    v, q = _start(ch, init)
    users = np.array(ch.encoding_order)
    gamma, sigma2, zero_gain = targets.gamma[users], ch.sigma2[users], _zero_gain(users)
    if q.any():
        q *= budget / float(sigma2 @ q)
    alpha, move = 0.0, np.inf
    for it in range(settings.max_iters):
        _, links = model.stream_links(ch, v)
        u, _ = _mmse_pass(A, users, links, lambda s, gain, den: q[s])
        M, c = model.stream_gains(links, u), model.uplink_noise(u, A)
        new_alpha = _balanced_ratio(gamma, M, c, sigma2, budget, zero_gain)
        new_q = model.sinr_powers(M, new_alpha * gamma, c, model.MAC, zero_gain)
        last, move = move, _move(new_q, q)
        stalled = move > STALL * last and abs(new_alpha - alpha) <= settings.tol * new_alpha
        alpha, q = new_alpha, new_q
        if it > 0 and (move <= POWER_RTOL or stalled):
            break
        if ch.nr > 1:
            # the sweep's receivers are MMSE under the old powers, not q
            bf = transforms.sinr_to_bc(ch, _single_stream(ch, u, v, q), A)
            v = _downlink_receivers(ch, model.stream_order(ch, bf.u), model.stream_order(ch, bf.p))
    else:
        raise MaxItersExceeded("SINR balancing did not converge")
    return alpha, _single_stream(ch, u, v, q)


def solve_power_min_mac(ch, noise, targets, settings=None, init=None):
    """Minimize sum_i sigma_i^2 q_i on the dual uplink subject to
    SINR_i >= gamma_i, one stream per user.

    The successive-decoding structure makes the minimum a forward pass: each
    user's power is set to meet its target exactly against already-fixed
    earlier interference, with MMSE receive vectors recomputed each sweep.
    Multi-antenna users' vectors are then refreshed from the sweep's own
    receivers (:func:`_power_min_receivers`).  Starts from the user-side
    vectors of ``init`` or from scratch (see the module docstring).  Power
    growth beyond 1e12 raises InfeasibleTargets.
    """
    settings = settings or SolverSettings()
    A = linalg.check_hermitian(noise, name="noise")
    linalg.assert_pd(A, floor=settings.pd_floor, name="uplink noise covariance")
    if targets.gamma.shape != (ch.K,):
        raise InvalidInput(f"need {ch.K} SINR targets")
    v, q = _start(ch, init)
    users = np.array(ch.encoding_order)
    gamma = targets.gamma[users]

    def target_power(s, gain, den):
        # met exactly against the interference of already-updated earlier users
        if gain <= 0:
            raise _zero_gain(users)(s)
        qs = gamma[s] * den / gain
        if qs > 1e12:
            raise InfeasibleTargets("power fixed point diverged")
        return qs

    for it in range(settings.max_iters):
        # Gauss-Seidel sweep: receive vector, then power, stream by stream
        _, links = model.stream_links(ch, v)
        u, new_q = _mmse_pass(A, users, links, target_power)
        move, q = _move(new_q, q), new_q
        if it > 0 and move <= POWER_RTOL:
            break
        if ch.nr > 1:
            v = _power_min_receivers(ch, users, links, u, gamma)
    else:
        raise MaxItersExceeded("power minimization did not converge")
    return float(ch.sigma2[users] @ q), _single_stream(ch, u, v, q)
