"""Accuracy certificates computed with plain numpy, independent of the solver.

Everything here works on the dual multiple-access channel of a broadcast
instance: channels ``H[i]`` (nr x nt), noise powers ``sigma2[i]``, an
encoding order, a positive definite noise covariance ``A`` (the merged
transmit constraint) and a weighted power budget
``sum_i sigma2[i] tr(Q_i) <= P``.

For weights sorted along the encoding order the weighted sum rate is a
concave function of the uplink covariances, so the Frank-Wolfe gap at any
feasible point turns that point's value into an upper bound on the optimum,
however inexact the point is.
"""

import math

import numpy as np

LN2 = math.log(2.0)


def _logdet(M):
    sign, ld = np.linalg.slogdet(M)
    if sign.real <= 0:
        raise ValueError("matrix is not positive definite")
    return float(ld)


def weight_sorted_order(weights):
    """Encoding order (0-based) with nonincreasing weights, the order in which
    the weighted sum rate is concave on the dual channel."""
    w = np.asarray(weights, dtype=float)
    return tuple(int(i) for i in sorted(range(w.size), key=lambda i: (-w[i], i)))


def project_feasible(Q, sigma2, budget):
    """Clip each uplink covariance to PSD, then scale the set into the budget
    sum_i sigma2[i] tr(Q_i) <= budget."""
    out = []
    for Qi in Q:
        M = 0.5 * (np.asarray(Qi) + np.asarray(Qi).conj().T)
        w, V = np.linalg.eigh(M)
        out.append((V * np.maximum(w, 0.0)) @ V.conj().T)
    used = sum(s * float(np.trace(Qi).real) for s, Qi in zip(sigma2, out))
    scale = min(1.0, budget / used) if used > 0 else 1.0
    return [scale * Qi for Qi in out]


def frank_wolfe_bound(H, sigma2, order, A, budget, weights, Q):
    """(value, gap) of the uplink weighted sum rate at Q after projection to
    feasibility.  value + gap is an upper bound on the optimum under the
    budget; the projected point's value is achievable.

    The objective sum_m c_m (logdet Phi_m - logdet A) with
    Phi_m = A + sum_{k <= m} H_k^H Q_k H_k (k over encoding positions) and
    c_m = w_{o_m} - w_{o_{m+1}} is concave only when every c_m >= 0.
    """
    w = np.asarray(weights, dtype=float)
    K = len(H)
    coeffs = np.array([w[order[m]] - (w[order[m + 1]] if m + 1 < K else 0.0)
                       for m in range(K)])
    if np.any(coeffs < 0):
        raise ValueError("weights must be nonincreasing along the encoding order")
    Q = project_feasible(Q, sigma2, budget)
    A = np.asarray(A, dtype=np.complex128)
    ld_A = _logdet(A)
    Phi = A.copy()
    inverses = []
    value = 0.0
    for m in range(K):
        i = order[m]
        Phi = Phi + H[i].conj().T @ Q[i] @ H[i]
        value += coeffs[m] * (_logdet(Phi) - ld_A)
        inverses.append(np.linalg.inv(Phi))
    suffix = np.zeros_like(A)
    linear_at_q = 0.0
    best_direction = 0.0
    for m in range(K - 1, -1, -1):
        suffix = suffix + coeffs[m] * inverses[m]
        i = order[m]
        G = H[i] @ suffix @ H[i].conj().T
        G = 0.5 * (G + G.conj().T)
        linear_at_q += float(np.real(np.trace(G @ Q[i])))
        best_direction = max(best_direction,
                             float(np.linalg.eigvalsh(G)[-1]) / sigma2[i])
    gap = budget * best_direction - linear_at_q
    return value, max(gap, 0.0)


def bc_rates(H, sigma2, order, Q):
    """Downlink rates (nats) of covariances Q under dirty-paper encoding in
    ``order``: the user at position m is interfered by positions > m."""
    K = len(H)
    nr = H[0].shape[0]
    rates = np.zeros(K)
    suffix = np.zeros_like(np.asarray(Q[0], dtype=np.complex128))
    suffixes = [None] * (K + 1)
    suffixes[K] = suffix
    for m in range(K - 1, -1, -1):
        suffix = suffix + Q[order[m]]
        suffixes[m] = suffix
    for m in range(K):
        i = order[m]
        noise = sigma2[i] * np.eye(nr)
        rates[i] = (_logdet(noise + H[i] @ suffixes[m] @ H[i].conj().T)
                    - _logdet(noise + H[i] @ suffixes[m + 1] @ H[i].conj().T))
    return rates


def shortfall_rel(value, reference, sense):
    """Relative distance from an emitted objective to its reference, signed so
    that worse is positive: below the reference for a maximised objective,
    above it for a minimised one."""
    if sense == "max":
        diff = reference - value
    elif sense == "min":
        diff = value - reference
    else:
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
    return diff / abs(reference)


def violation_rel(slacks, budgets):
    """Largest relative constraint violation max(0, -slack_l) / P_l."""
    s = np.asarray(slacks, dtype=float)
    p = np.asarray(budgets, dtype=float)
    return float(np.max(np.maximum(-s, 0.0) / p))


def digits(err, floor):
    """Correct decimal digits of a relative error: -log10(max(err, floor)).
    Errors at or below zero (the output matches or beats its reference) and
    errors below ``floor`` read as the floor's digits."""
    return -math.log10(max(err, floor))


def mean_digits(errors, floors):
    """Mean of digits(err, floor) over paired errors and floors: -log10 of
    the geometric mean of the floored errors.  Every error counts, and a
    change of all of them by a factor F moves the mean by log10(F)."""
    d = [digits(e, f) for e, f in zip(errors, floors)]
    if not d:
        raise ValueError("no errors to average")
    return sum(d) / len(d)


def beam_usage(H, sigma2, order, gamma, A, P, thetas, alpha):
    """Largest constraint usage max_l sum_m p_m u_m^T A_l u_m / P_l of the
    one-beam-per-user downlink that meets SINR = alpha * gamma exactly.

    Real channels with two transmit antennas: the beam of encoding position m
    is u_m = (cos t_m, sin t_m), ``thetas`` is (N, K) and ``alpha`` (N,).
    Every user has its MMSE receiver, and under dirty-paper encoding the user
    at position m is interfered by positions > m, so the powers follow in
    closed form from the last position backwards."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    N, K = thetas.shape
    u = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
    nr = H[0].shape[0]
    p = np.zeros((N, K))
    for m in range(K - 1, -1, -1):
        Hi = np.real(np.asarray(H[order[m]]))
        C = np.broadcast_to(sigma2[order[m]] * np.eye(nr), (N, nr, nr)).copy()
        for mm in range(m + 1, K):
            g = u[:, mm] @ Hi.T
            C += p[:, mm, None, None] * g[:, :, None] * g[:, None, :]
        g = u[:, m] @ Hi.T
        unit = np.einsum("na,na->n", g, np.linalg.solve(C, g[..., None])[..., 0])
        p[:, m] = alpha * gamma[order[m]] / unit
    return np.max([np.einsum("nm,nma,ab,nmb->n", p, u, np.real(Al), u) / Pl
                   for Al, Pl in zip(A, P)], axis=0)


def beam_balance(H, sigma2, order, gamma, A, P, thetas, iters=40):
    """Largest alpha with beam_usage(..., alpha) <= 1.  The usage grows with
    alpha from 0 at alpha = 0; the root is bracketed by doubling and found by
    the Illinois variant of regula falsi, keeping the feasible end."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))

    def excess(alpha):
        return beam_usage(H, sigma2, order, gamma, A, P, thetas, alpha) - 1.0

    lo, f_lo = np.zeros(thetas.shape[0]), np.full(thetas.shape[0], -1.0)
    hi = np.ones(thetas.shape[0])
    f_hi = excess(hi)
    for _ in range(200):
        low = f_hi < 0.0
        if not np.any(low):
            break
        lo, f_lo = np.where(low, hi, lo), np.where(low, f_hi, f_lo)
        hi = np.where(low, 2.0 * hi, hi)
        f_hi = excess(hi)
    side = np.zeros(thetas.shape[0])
    for _ in range(iters):
        denom = f_hi - f_lo
        c = np.where(denom > 0, (lo * f_hi - hi * f_lo) / np.where(denom > 0, denom, 1.0),
                     0.5 * (lo + hi))
        c = np.clip(c, lo, hi)
        f_c = excess(c)
        feasible = f_c <= 0.0
        # Illinois: halve the stale end's value when one end is kept twice
        f_hi = np.where(feasible & (side > 0), 0.5 * f_hi, f_hi)
        f_lo = np.where(~feasible & (side < 0), 0.5 * f_lo, f_lo)
        lo, f_lo = np.where(feasible, c, lo), np.where(feasible, f_c, f_lo)
        hi, f_hi = np.where(feasible, hi, c), np.where(feasible, f_hi, f_c)
        side = np.where(feasible, 1.0, -1.0)
        if np.all(hi - lo <= 1e-15 * hi):
            break
    return lo
def golden_max(f, a, b, iters):
    """Golden-section search for the maximum of a unimodal f on [a, b];
    returns (x, f(x))."""
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)
