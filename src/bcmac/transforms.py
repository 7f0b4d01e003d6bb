"""Covariance and beamforming transformations between a broadcast channel
under a linear constraint tr(QA) <= P and its dual multiple-access channel
with noise covariance A and weighted sum power sum_i sigma_i^2 tr(Q_i) <= P.

Both directions preserve the per-user rate vector exactly; the transformed
total (weighted) power never exceeds the source side's, with equality
whenever no transmit power is wasted in channel null space (always the case
for Nr <= Nt and for solver-optimal inputs).

Everything here reduces to the classical identity-noise duality when A = I
and sigma^2 = 1.

The rate-preserving construction whitens the constraint (channels H_k A^{-1/2},
identity noise), then flips each user's covariance through the SVD of its
effective channel, walking users from the last encoding position to the
first so each step sees the interference it needs.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, model
from .errors import DegenerateTransform, InvalidInput


@dataclass(frozen=True)
class TransformReport:
    """Audit record for a transformation: worst per-user rate (or per-stream
    SINR) gap and the slack of the transferred power constraint."""

    side_from: str
    side_to: str
    rate_or_sinr_gap: float
    constraint_slack: float


def _svd_phase_fixed(G):
    """SVD with a deterministic phase convention: the largest-magnitude entry
    of each left singular vector is made real positive, with the matching
    right vector rotated to compensate."""
    R, d, Lh = np.linalg.svd(G)
    L = Lh.conj().T
    m = min(G.shape)
    for k in range(R.shape[1]):
        idx = int(np.argmax(np.abs(R[:, k])))
        a = R[idx, k]
        if abs(a) > 0:
            phase = a / abs(a)
            R[:, k] = R[:, k] / phase
            if k < m:
                L[:, k] = L[:, k] / phase
    for k in range(m, L.shape[1]):
        idx = int(np.argmax(np.abs(L[:, k])))
        a = L[idx, k]
        if abs(a) > 0:
            L[:, k] = L[:, k] / (a / abs(a))
    return R, d, L


def _roots(M):
    """M^{1/2} and M^{-1/2} of a positive definite M, one eigendecomposition
    of its Hermitian part (M is a sum of products, Hermitian up to roundoff)."""
    r, V = linalg.pd_roots(M, floor=1e-14)
    return (V * r) @ V.conj().T, (V / r) @ V.conj().T


def _flip(Phi, Om, Hhat, Q_src, to_bc):
    """Flip one user's covariance through the SVD of the effective channel
    G = Om^{-1/2} Hhat Phi^{-1/2}.  Phi is the (Nt,Nt) uplink-side cumulative
    interference, Om the (Nr,Nr) downlink-side one.  Rates only pass through
    the leading min(Nr,Nt) block, which both directions keep intact."""
    nr, nt = Hhat.shape
    m = min(nr, nt)
    Phi_s, Phi_is = _roots(Phi)
    Om_s, Om_is = _roots(Om)
    G = Om_is @ Hhat @ Phi_is
    R, _, L = _svd_phase_fixed(G)
    if to_bc:
        S = R.conj().T @ Om_s @ Q_src @ Om_s @ R
        Sp = np.zeros((nt, nt), dtype=np.complex128)
        Sp[:m, :m] = S[:m, :m]
        out = Phi_is @ L @ Sp @ L.conj().T @ Phi_is
    else:
        T = L.conj().T @ Phi_s @ Q_src @ Phi_s @ L
        Tp = np.zeros((nr, nr), dtype=np.complex128)
        Tp[:m, :m] = T[:m, :m]
        out = Om_is @ R @ Tp @ R.conj().T @ Om_is
    return linalg.hermitian_part(out)


def _omega(ch, Hhat, Qw, pos):
    """Downlink-side cumulative interference of the user at encoding
    position ``pos``: I + its whitened channel through every later-encoded
    whitened downlink covariance."""
    i = ch.encoding_order[pos]
    Om = np.eye(ch.nr, dtype=np.complex128)
    for j in ch.encoding_order[pos + 1:]:
        Om += Hhat[i] @ Qw[j] @ Hhat[i].conj().T
    return Om


def mac_to_bc_capacity(ch, cov_mac, A, whitened=None):
    """Map dual-uplink covariances to downlink covariances achieving the same
    per-user rate vector, with tr((sum Q) A) <= sum_i sigma_i^2 tr(Q_i^(m)).
    ``whitened`` is ``model.whitened_channels(ch, A)`` when the caller has it
    already (a weighted-sum-rate solve returns it)."""
    if cov_mac.side != model.MAC or cov_mac.K != ch.K:
        raise InvalidInput("expected uplink covariances matching the channel set")
    Hhat, W = whitened or model.whitened_channels(ch, A)
    order = ch.encoding_order
    # absorb the per-user noise weights so the budget is a plain trace
    Z = ch.sigma2[:, None, None] * cov_mac.Q
    # Phis[pos] = I + sum of the uplink terms of the users encoded before pos
    Phis = [np.eye(ch.nt, dtype=np.complex128)]
    for j in order[:-1]:
        Phis.append(Phis[-1] + Hhat[j].conj().T @ Z[j] @ Hhat[j])
    Qw = np.zeros((ch.K, ch.nt, ch.nt), dtype=np.complex128)  # whitened downlink
    for pos in range(ch.K - 1, -1, -1):
        i = order[pos]
        Qw[i] = _flip(Phis[pos], _omega(ch, Hhat, Qw, pos), Hhat[i], Z[i], to_bc=True)
    return model.CovarianceSet.built(model.BC, W @ Qw @ W)


def bc_to_mac_capacity(ch, cov_bc, A):
    """Mirror of :func:`mac_to_bc_capacity`: downlink covariances to uplink
    ones preserving rates, with sum_i sigma_i^2 tr(Q_i^(m)) <= tr((sum Q) A)."""
    if cov_bc.side != model.BC or cov_bc.K != ch.K:
        raise InvalidInput("expected downlink covariances matching the channel set")
    r, V = linalg.pd_roots(A, linalg.PD_FLOOR)  # A^{1/2} and A^{-1/2}, one eigh
    As, W = (V * r) @ V.conj().T, (V / r) @ V.conj().T
    Hhat = ch.H / np.sqrt(ch.sigma2)[:, None, None] @ W
    Qw = linalg.hermitian_part(As @ cov_bc.Q @ As)
    Z = np.zeros((ch.K, ch.nr, ch.nr), dtype=np.complex128)
    Phi = np.eye(ch.nt, dtype=np.complex128)  # running I + earlier uplink terms
    for pos, i in enumerate(ch.encoding_order):
        Z[i] = _flip(Phi, _omega(ch, Hhat, Qw, pos), Hhat[i], Qw[i], to_bc=False)
        Phi = Phi + Hhat[i].conj().T @ Z[i] @ Hhat[i]
    return model.CovarianceSet.built(model.MAC, Z / ch.sigma2[:, None, None])


def mac_to_bc_sinr(ch, bf_mac, A):
    """SINR-preserving transformation of an uplink beamforming solution.

    Keeps the user-side vectors v and uplink powers q, computes the MMSE
    base-station receive vectors u stream by stream, then solves the
    triangular system equating downlink and uplink SINRs for the downlink
    powers p.  The result satisfies, stream by stream, SINR_bc = SINR_mac and
    sum p u^H A u = sum sigma^2 q.
    """
    A = linalg.check_hermitian(A, name="A")
    linalg.assert_pd(A, floor=0.0, name="constraint matrix")
    return sinr_to_bc(ch, bf_mac, A)


def sinr_to_bc(ch, bf_mac, A):
    """The transformation of :func:`mac_to_bc_sinr` without validating
    ``A``, for solver loops that validated it once on entry."""
    if bf_mac.q is None:
        raise InvalidInput("uplink powers required")
    K = ch.K
    links, power = model.stream_links(ch, bf_mac)
    seq = [s for s, _ in links]
    u_mmse, _, sinr_mac = model.uplink_sic(
        A, links, power, vanishing=lambda s: DegenerateTransform(
            f"stream ({s[0]},{s[1]}): vanishing receive vector"))
    u = [np.zeros((bf_mac.v[i].shape[0], ch.nt), dtype=np.complex128) for i in range(K)]
    for (i, j), uij in u_mmse.items():
        u[i][j] = uij
    # downlink powers from the SINR equalities, solved in reverse encoding
    # order (each equation only involves powers of later-encoded streams)
    p = [np.zeros(bf_mac.v[i].shape[0]) for i in range(K)]
    for pos in range(len(seq) - 1, -1, -1):
        i, j = seq[pos]
        vij = bf_mac.v[i][j]
        gain = abs(np.vdot(vij, ch.H[i] @ u[i][j])) ** 2
        interf_bc = ch.sigma2[i]
        for (k, l) in seq[pos + 1:]:
            interf_bc += p[k][l] * abs(np.vdot(vij, ch.H[i] @ u[k][l])) ** 2
        target = sinr_mac[(i, j)]
        if target == 0.0:
            p[i][j] = 0.0
            continue
        if gain <= 0:
            raise DegenerateTransform(
                f"stream ({i},{j}): zero gain with positive target SINR"
            )
        p[i][j] = target * interf_bc / gain
    return model.BeamformingSolution(u=u, v=[vi.copy() for vi in bf_mac.v],
                                     p=p, q=[np.array(qi) for qi in bf_mac.q])


def verify_capacity_transform(ch, cov_mac, cov_bc, A):
    """Audit record for a rate-preserving transformation pair."""
    r_mac = model.mac_rates(ch, cov_mac, A)
    r_bc = model.bc_rates_dpc(ch, cov_bc)
    gap = float(np.max(np.abs(r_mac - r_bc)))
    budget = float(sum(ch.sigma2[i] * np.trace(cov_mac.Q[i]).real for i in range(ch.K)))
    used = model.constraint_value(cov_bc, model.LinearConstraint(A, max(budget, 1e-300)))
    return TransformReport(model.MAC, model.BC, gap, budget - used)


def verify_sinr_transform(ch, bf, A):
    """Audit record for an SINR-preserving transformation: per-stream SINR gap
    and the weighted-power identity residual sum p u^H A u - sum sigma^2 q."""
    s_bc = model.bc_sinr(ch, bf, scheme="dpc")
    s_mac = model.mac_sinr(ch, bf, A)
    gap = 0.0
    for i in range(ch.K):
        if s_bc[i].size:
            gap = max(gap, float(np.max(np.abs(s_bc[i] - s_mac[i]))))
    lhs = sum(
        float(bf.p[i][j] * np.real(bf.u[i][j].conj() @ A @ bf.u[i][j]))
        for i in range(ch.K)
        for j in range(bf.u[i].shape[0])
    )
    rhs = sum(
        float(ch.sigma2[i] * bf.q[i][j])
        for i in range(ch.K)
        for j in range(bf.q[i].shape[0])
    )
    return TransformReport(model.MAC, model.BC, gap, rhs - lhs)
