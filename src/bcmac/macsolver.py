"""Convex solvers on the dual multiple-access channel.

All three problems share the same geometry: base-station noise covariance A
(any positive definite matrix), per-user uplink covariances or powers, and a
weighted sum power sum_i sigma_i^2 tr(Q_i).  Internally everything is
whitened (channels (H_i / sigma_i) A^{-1/2}, identity noise, plain trace
budget), where the weighted-sum-rate problem is concave and has a cheap exact
projection (an eigen-clip of every block and a common water level).

The weighted-sum-rate ascent is spectral projected gradient (Birgin,
Martinez and Raydan, SIAM J. Optim. 2000): at Z with gradient G it takes the
Barzilai-Borwein step t = <s, s> / <s, -y> (IMA J. Numer. Anal. 1988), s and
y the last moves of Z and G, clamped to [1e-10, 1e8], projects once, D =
proj(Z + t G) - Z, and backtracks along Z + a D, between two feasible
points, until the objective gains ARMIJO_C * a * <G, D>; where
|<G, D>| <= ARMIJO_FLAT * max(1, |objective|), a gain no difference of two
rounded objectives resolves, it takes the full step untested, so that it
reaches the gap asked for where the objective is flat to roundoff.  It makes
one deterministic start and stops on its Frank-Wolfe gap: with gradient blocks
G_i at Z, the linear oracle over {Z_i >= 0, sum_i tr(Z_i) <= P} is P * max_i
lambda_max(G_i), so gap = P * max_i lambda_max(G_i) - sum_i tr(G_i Z_i)
bounds the distance of the objective to the optimum (Jaggi, ICML 2013), and
objective + gap is a certified upper bound.  This holds because the problem
is concave, which it is for weights nonincreasing along the encoding order;
other weights are rejected.  At an optimum where the budget binds, max_i
lambda_max(G_i) is also the budget's Lagrange multiplier.

The weighted-sum-rate solver holds its per-user blocks as stacked arrays,
whitened channels ``Ghat`` (K, Nr, Nt) and covariances ``Z`` (K, Nr, Nr),
so the objective, gradient, projection and gap are each a few batched
calls.  ``solve_wsr_mac`` permutes the channels, weights and warm start into
encoding order once on entry and the covariances back to user order once on
exit; the ascent in between knows only encoding positions.

The objective is telescoped, sum_m c_m logdet(Phi_m) with c_m = w_m -
w_(m+1) along the encoding order, and only the Phi_m whose c_m is nonzero
are formed, factorized and inverted.  Tied neighbours drop out: the
positions between two nonzero c_m form a run, whose terms enter every later
Phi_m only as their sum, one GEMM over the run's stacked rows.  For the sum
rate the K users are one run, and an evaluation takes the one
log|I + sum_i Ghat_i^H Z_i Ghat_i| of sum-capacity iterative water-filling
(Jindal et al., IEEE Trans. IT 2005) with no per-user Nt x Nt term.

SINR balancing and power minimization are fixed points of MMSE receivers
and a power update (Schubert and Boche, 2004) with one beam per user, stacked
(K, ...) in user order in their solutions.  A sweep takes the MMSE receivers
at the previous sweep's powers, one batched uplink SIC pass
(``model.uplink_sic``) in encoding order, and then the powers for those
receivers, one triangular solve (``model.sinr_powers``); for SINR balancing
at the ratio that spends the budget, one over the Perron root of the
receivers' extended coupling matrix (:func:`_balanced_ratio`).  Multi-antenna
users' vectors are refreshed after each sweep as downlink MMSE receivers
(``model.bc_mmse_receivers``) at the downlink powers that meet given SINRs
against a SIC pass's stream gains.  Power minimization uses its sweep's own
pass and the targets; SINR balancing a second pass at the rebalanced powers
and the SINRs it reaches, as ``transforms.sinr_to_bc`` does.
Both take ``init``, the uplink solution of a nearby problem (the previous
evaluation of a multiplier search), and start from its user-side vectors
and powers; both stop once a sweep moves no power by more than POWER_RTOL
relative, after at least two sweeps.  Plain sweeps are monotone (alpha
never falls, the total power never rises) and contract at a steady ratio,
so every two in a row, x0 -> x1 -> x2, are extrapolated by SqS3 (Varadhan
and Roland, Scand. J. Stat. 2008) over the vectors and the powers, each
power relative to its value at x2: x' = x0 - 2 s r + s^2 w, r = x1 - x0,
w = x2 - 2 x1 + x0, s = -max(1, ||r|| / ||w||), with unit vectors and
positive (for SINR balancing, spent) powers.  The sweep from x' is kept,
and starts the next two, only if it is no worse than x2; else they go on
from x2.  At ``max_iters`` sweeps a solve returns its last kept sweep as on
POWER_RTOL, flagged as not settled: its ratios still equal its alpha, or its
powers meet every target, but alpha lies below the fixed point's, or the
total above it.  Near singular noise (a merged constraint near a vertex of
the multiplier simplex) SINR balancing's receiver updates can creep for
thousands of sweeps, up to the cap.  Power minimization gives up past a
received SNR q_s M_ss / c_s of SNR_CAP, a test that rescaling leaves alone.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, model
from .errors import InfeasibleTargets, InvalidInput

# The beamforming fixed points stop once a sweep moves every power by at
# most POWER_RTOL, relative; power minimization gives up past a received
# signal-to-noise ratio of SNR_CAP (see the module docstring).
POWER_RTOL = 1e-11
SNR_CAP = 1e12
ARMIJO_BETA = 0.5  # the ascent's backtracking shrinks its step by this factor
ARMIJO_C = 0.1  # until the step gains this share of its first-order progress
ARMIJO_FLAT = 8 * np.finfo(float).eps  # or steps untested below this share of max(1, |obj|)


@dataclass(frozen=True)
class SolverSettings:
    """Settings of the dual-uplink solvers, and of the multiplier search when
    passed as ``outer`` (default ``orchestrator.OUTER``).  Configs set only
    ``tol`` and ``max_iters``; the ARMIJO_* constants and PD_FLOOR are fixed.

    ``tol``: the weighted-sum-rate ascent stops once its Frank-Wolfe gap is
    at most tol * |objective| (min(tol, outer.tol / 10) * |objective| inside a
    multiplier search over two or more constraints, whose few evaluations
    need each bound tight); for the multiplier search it is the certified
    relative gap that counts as converged.  The beamforming fixed points
    read only ``max_iters``: they stop on POWER_RTOL and extrapolate with no
    setting of their own (see the module docstring).  ``max_iters`` caps
    iterations (sweeps, for the fixed points; evaluations, for the search).
    ``seed`` and ``restarts`` do nothing: the ascent makes one deterministic
    start; ``perfbench/`` passes them, and configs reject them.
    """

    max_iters: int = 4000
    tol: float = 1e-6
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.tol < np.inf):
            raise InvalidInput("tol must be positive and finite")


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


def _rate_coeffs(w):
    """sum_m w_m r_m = sum_m c_m logdet(Phi_m), weights w along the encoding
    order, as (nz, c[nz], slot): the positions with c_m nonzero (always the
    last, c_(K-1) = w_(K-1) > 0), their c_m, and per position the index in
    nz of the first at or after it, which is the index of its run (positions
    nz[r-1] + 1 .. nz[r])."""
    c = w - np.append(w[1:], 0.0)
    nz = np.flatnonzero(c)
    return nz, c[nz], np.searchsorted(nz, np.arange(len(w)))


def _cum_mats(Ghat, Z, nz):
    """Phi_m = I + sum of Ghat_i^H Z_i Ghat_i over positions 0..m, at the
    positions m in nz: each run of positions nz[r-1] + 1 .. nz[r] adds its
    terms as one GEMM over its stacked rows, Ghat_run^H (Z Ghat)_run of shape
    (Nt x K_run Nr)(K_run Nr x Nt), and the run sums are accumulated; the sum
    rate is one GEMM."""
    nr, nt = Ghat.shape[1:]
    G, ZG = Ghat.reshape(-1, nt), (Z @ Ghat).reshape(-1, nt)
    mats = np.empty((len(nz), nt, nt), dtype=np.complex128)
    acc, start = np.eye(nt), 0
    for r, stop in enumerate((nz + 1) * nr):
        acc = acc + G[start:stop].conj().T @ ZG[start:stop]
        mats[r], start = acc, stop
    return mats


def _objective(coeffs, mats):
    """sum_m c_m logdet(Phi_m) over the nonzero c_m of ``coeffs`` (see
    :func:`_rate_coeffs`), ``mats`` the Phi_m of :func:`_cum_mats`; -inf off
    the positive definite cone."""
    sign, ld = np.linalg.slogdet(mats)
    if np.any(sign.real <= 0):
        return -np.inf
    return float(coeffs[1] @ ld)


def _gradient(Ghat, coeffs, mats):
    """d(objective)/dZ_m = sum_{n >= m} c_n Ghat_m Phi_n^{-1} Ghat_m^H,
    summed over the nonzero c_n only: position m takes the suffix sum from
    the first nonzero position at or after its own."""
    _, c, slot = coeffs
    suffix = np.cumsum((c[:, None, None] * np.linalg.inv(mats))[::-1], axis=0)[::-1]
    g = Ghat @ suffix[slot] @ linalg.ctrans(Ghat)
    return linalg.hermitian_part(g)


def _project_blocks(mats, budget):
    """Exact Euclidean projection onto {Z_i >= 0, sum_i tr(Z_i) <= budget}:
    eigen-clip every block, and if the trace budget is exceeded subtract the
    common level mu solving sum (lam - mu)_+ = budget."""
    eigs, V = np.linalg.eigh(linalg.hermitian_part(mats))
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
    return (V * z[:, None, :]) @ linalg.ctrans(V)


def _run_pg(Ghat, coeffs, budget, settings, Z0):
    """Spectral projected gradient (Birgin, Martinez and Raydan 2000) with
    Barzilai-Borwein steps (1988) from Z0, as in the module docstring, stopped
    once the Frank-Wolfe gap is at most tol * |objective| after at least one
    step, so that a warm start from a nearby solve improves on it.  Returns
    the iterate, its objective, the accepted steps, the gap and
    max_i lambda_max(G_i)."""
    Z = _project_blocks(Z0, budget)
    mats = _cum_mats(Ghat, Z, coeffs[0])
    obj = _objective(coeffs, mats)
    t, prev = 1.0, None
    iters = 0
    while True:
        grads = _gradient(Ghat, coeffs, mats)
        top = float(np.linalg.eigvalsh(grads)[:, -1].max())
        gap = budget * top - float(np.vdot(grads, Z).real)
        if (iters and gap <= settings.tol * abs(obj)) or iters == settings.max_iters:
            return Z, obj, iters, gap, top
        if prev is not None:
            s, y = Z - prev[0], grads - prev[1]
            sy = -float(np.vdot(s, y).real)
            t = min(max(float(np.vdot(s, s).real) / sy, 1e-10), 1e8) if sy > 0 else 1e8
        prev = Z, grads
        d = _project_blocks(Z + t * grads, budget) - Z
        progress = float(np.vdot(grads, d).real)
        flat = abs(progress) <= ARMIJO_FLAT * max(1.0, abs(obj))
        a = 1.0
        for _ in range(60):
            if not flat and a * progress <= 1e-18 * max(1.0, abs(obj)):
                return Z, obj, iters, gap, top
            cand = Z + a * d  # between Z and a projection: feasible
            cand_mats = _cum_mats(Ghat, cand, coeffs[0])
            new_obj = _objective(coeffs, cand_mats)
            if flat or new_obj >= obj + ARMIJO_C * a * progress:
                Z, obj, mats = cand, new_obj, cand_mats
                break
            a *= ARMIJO_BETA
        else:
            return Z, obj, iters, gap, top
        iters += 1


def budget_multiplier_wsr(Z, top, budget):
    """Lagrange multiplier of the trace budget at whitened covariances Z:
    ``top`` = max_i lambda_max(G_i) where the budget binds, zero where it is
    slack (the KKT conditions at an optimum)."""
    used = np.trace(Z, axis1=1, axis2=2).real.sum()
    return top if used >= budget * (1.0 - 1e-9) else 0.0


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
    if not (0 <= budget < np.inf):
        raise InvalidInput("budget must be nonnegative and finite")
    noise = linalg.check_hermitian(noise, name="noise")
    whitened = model.whitened_channels(ch, noise)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape != (ch.K,):
        raise InvalidInput(f"weights must have length {ch.K}")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise InvalidInput("weights must be positive and finite")
    order = list(ch.encoding_order)
    coeffs = _rate_coeffs(w[order])
    if np.any(coeffs[1] < 0):
        raise InvalidInput("weights must be nonincreasing along the encoding order")
    K, nr, sigma2 = ch.K, ch.nr, ch.sigma2[order, None, None]
    if init is not None:
        Z0 = sigma2 * init.Q[order]
    else:
        Z0 = budget / (K * nr) * np.broadcast_to(np.eye(nr, dtype=np.complex128), (K, nr, nr))
    Z, obj, iters, gap, top = _run_pg(whitened[0][order], coeffs, budget, settings, Z0)
    cov = model.CovarianceSet.built(model.MAC, (Z / sigma2)[np.argsort(order)])
    return MacSolution(cov, obj, iters, gap, bool(gap <= settings.tol * abs(obj)),
                       budget_multiplier_wsr(Z, top, budget), whitened)


def _start(ch, init):
    """User-side unit vectors (K, Nr) in user order and powers in encoding
    order a beamforming fixed point starts from: those of ``init`` (an uplink
    solution), or else the top left singular vector of each channel (for one
    receive antenna the scalar 1) and zero powers."""
    if init is None:
        v = np.ones((ch.K, 1), dtype=np.complex128) if ch.nr == 1 \
            else np.linalg.svd(np.asarray(ch.H))[0][:, :, 0]
        return v, np.zeros(ch.K)
    return init.v.copy(), init.q[list(ch.encoding_order)]


def _uplink_solution(ch, u, v, q):
    """Uplink solution from user-side vectors v (in user order) and
    receivers u and powers q (in encoding order)."""
    pos = np.argsort(ch.encoding_order)
    return model.BeamformingSolution.built(u[pos], v, q=q[pos])


def _move(new_q, q):
    """Largest relative change of a power from one sweep to the next."""
    return float(np.max(np.abs(new_q - q) / np.maximum(new_q, 1e-300)))


def _zero_gain(users):
    """The error of a user whose effective channel vanishes, ``users`` the
    users in encoding order."""
    return lambda s: InfeasibleTargets(f"user {users[s]}: zero effective channel gain")


def _balanced_ratio(gamma, M, c, sigma2, budget, degenerate):
    """The ratio alpha whose uplink powers (:func:`model.sinr_powers` at
    targets alpha * gamma, noise c) spend the budget.  With D =
    diag(gamma / diag(M)) and B = triu(M, 1)^T those powers solve
    q = alpha D (B q + c), so [q; 1] is the Perron vector, at eigenvalue
    1 / alpha, of the nonnegative extended coupling matrix
    Psi = [[D B, D c], [sigma^2 D B / P, sigma^2 D c / P]] (Schubert and
    Boche, IEEE Trans. Veh. Technol. 2004): alpha is one over its spectral
    radius, the largest real part of its eigenvalues."""
    a = np.diag(M)
    if np.any(a <= 0):
        raise degenerate(int(np.argmax(a <= 0)))
    top = (gamma / a)[:, None] * np.column_stack([np.tril(M.T, -1), c])
    psi = np.vstack([top, sigma2 @ top / budget])
    return 1.0 / float(np.linalg.eigvals(psi).real.max())


def _refreshed_vectors(ch, users, M, u, gamma):
    """User-side vectors refreshed after a sweep whose receivers u reach the
    SINRs gamma with stream gains M (in encoding order): the downlink MMSE
    receivers at the downlink powers meeting gamma against M.  Downlink
    receivers interfere with nobody, so this weakly improves every SINR."""
    pos = np.argsort(ch.encoding_order)
    p = model.sinr_powers(M, gamma, ch.sigma2[users], model.BC, _zero_gain(users))
    return model.bc_mmse_receivers(ch, u[pos], p[pos])


def _fixed_point(sweep, v, q, settings, spend):
    """Extrapolated sweeps from (v, q), as in the module docstring.
    ``sweep(v, q)`` returns a value no plain sweep lowers, the powers, the
    receivers and a thunk refreshing the vectors; ``spend`` rescales the
    powers of x'.  Returns the last kept sweep's value, powers and receivers,
    the vectors it started from, and whether it settled: False where
    ``settings.max_iters`` sweeps (at least one) ran out first."""
    run, held = [(v, q)], None
    for it in range(max(settings.max_iters, 1)):
        value, new_q, u, refresh = sweep(v, q)
        if held is not None and value < held[2]:  # x' lost ground: go on from x2
            (v, q, _), run, held = held, [held[:2]], None
            continue
        settled = _move(new_q, q) <= POWER_RTOL and it > 0
        q, kept = new_q, (value, new_q, u, v)
        if settled:
            break
        v = refresh()
        if held is not None:  # the sweep from x' starts the next run
            run, held = [], None
        run.append((v, q))
        if len(run) == 3:  # SqS3, each power relative to its value at x2
            held, scale = (v, q, value), np.maximum(q, 1e-300)
            x0, x1, x2 = (np.append(vs, qs / scale) for vs, qs in run)
            r, w = x1 - x0, x2 - 2 * x1 + x0
            s = -max(1.0, np.linalg.norm(r) / np.linalg.norm(w)) if w.any() else -1.0
            x = x0 - 2 * s * r + s * s * w
            v, q = x[:v.size].reshape(v.shape), spend(np.abs(x[v.size:].real) * scale)
            v = v / np.linalg.norm(v, axis=1, keepdims=True)
    return (*kept, settled)


def solve_sinr_balance_mac(ch, noise, budget, targets, settings=None, init=None):
    """Maximize the common ratio alpha = SINR_i / gamma_i on the dual uplink
    under sum_i sigma_i^2 q_i = budget, one beam per user.

    Alternates MMSE receive vectors at the base station with an exact power
    rebalance: for fixed vectors the powers meeting a common ratio are a
    triangular system, and the ratio exhausting the budget is one over the
    Perron root of the extended coupling matrix (:func:`_balanced_ratio`).
    When users have several antennas the user-side vectors are refreshed as
    downlink MMSE receivers through the SINR-preserving transformation of
    the rebalanced powers, which keeps the iteration monotone; an
    extrapolated sweep is kept only where alpha does not fall.  Starts from
    ``init``, its powers rescaled to ``budget``, or from scratch (see the
    module docstring).  Returns alpha, the uplink solution, whose every
    ratio equals alpha to rounding, and whether it settled.
    """
    settings = settings or SolverSettings()
    A = linalg.check_pd(noise, name="uplink noise covariance")
    if targets.gamma.shape != (ch.K,):
        raise InvalidInput(f"need {ch.K} SINR targets")
    if not (0 < budget < np.inf):
        raise InvalidInput("budget must be positive and finite")
    v, q = _start(ch, init)
    users = np.array(ch.encoding_order)
    gamma, sigma2, zero_gain = targets.gamma[users], ch.sigma2[users], _zero_gain(users)

    def spend(q):
        return q * (budget / float(sigma2 @ q)) if q.any() else q

    def sweep(v, q):
        links = model.stream_links(ch, v)
        u = model.uplink_sic(A, links, q, zero_gain)[0]
        M, c = model.stream_gains(links, u), model.uplink_noise(u, A)
        alpha = _balanced_ratio(gamma, M, c, sigma2, budget, zero_gain)
        q = model.sinr_powers(M, alpha * gamma, c, model.MAC, zero_gain)

        def refresh():  # the sweep's receivers are MMSE under the old powers, not q
            u_bc, sinr = model.uplink_sic(A, links, q, zero_gain)
            return _refreshed_vectors(ch, users, model.stream_gains(links, u_bc), u_bc, sinr)
        return alpha, q, u, (lambda: v) if ch.nr == 1 else refresh

    alpha, q, u, v, settled = _fixed_point(sweep, v, spend(q), settings, spend)
    return alpha, _uplink_solution(ch, u, v, q), settled


def solve_power_min_mac(ch, noise, targets, settings=None, init=None):
    """Minimize sum_i sigma_i^2 q_i on the dual uplink subject to
    SINR_i >= gamma_i, one beam per user.

    Each sweep takes the MMSE receive vectors at the previous sweep's
    powers, then the powers meeting every target exactly for those
    receivers, one triangular solve through the successive-decoding
    structure (the receiver/power fixed point of Schubert and Boche, 2004).
    Multi-antenna users' vectors are then refreshed from the sweep's own
    receivers (:func:`_refreshed_vectors`); an extrapolated sweep is kept
    only where the total power does not rise.  Starts from the user-side
    vectors and powers of ``init`` or from scratch (see the module
    docstring).  A received SNR q_s M_ss / c_s beyond SNR_CAP raises
    InfeasibleTargets.  Returns the total power, the uplink solution and
    whether it settled.
    """
    settings = settings or SolverSettings()
    A = linalg.check_pd(noise, name="uplink noise covariance")
    if targets.gamma.shape != (ch.K,):
        raise InvalidInput(f"need {ch.K} SINR targets")
    v, q = _start(ch, init)
    users = np.array(ch.encoding_order)
    gamma, sigma2, zero_gain = targets.gamma[users], ch.sigma2[users], _zero_gain(users)

    def sweep(v, q):
        links = model.stream_links(ch, v)
        u = model.uplink_sic(A, links, q, zero_gain)[0]
        M, c = model.stream_gains(links, u), model.uplink_noise(u, A)
        q = model.sinr_powers(M, gamma, c, model.MAC, zero_gain)
        if np.any(q * np.diag(M) > SNR_CAP * c):
            raise InfeasibleTargets("power fixed point diverged")
        return (-float(sigma2 @ q), q, u,
                lambda: v if ch.nr == 1 else _refreshed_vectors(ch, users, M, u, gamma))

    value, q, u, v, settled = _fixed_point(sweep, v, q, settings, lambda q: q)
    return -value, _uplink_solution(ch, u, v, q), settled  # the value is minus the total
