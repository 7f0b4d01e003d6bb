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
first so each step sees the interference it needs.  A flip pairs column k
of the left singular vectors with column k of the right ones, so whatever
phases the SVD picks cancel.

The SINR-preserving construction keeps the user-side vectors and uplink
powers, takes MMSE base-station vectors and solves the downlink powers
against the stream gains of ``model.stream_gains``, a triangular system
in encoding order.
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
    R, _, Lh = np.linalg.svd(G)
    L = Lh.conj().T
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
    users, links = model.stream_links(ch, bf_mac.v)
    q = model.stream_order(ch, bf_mac.q)

    def degenerate(s):
        return DegenerateTransform(f"stream {s} (user {users[s]}) in encoding order: zero gain")

    u, _, sinr = model.uplink_sic(A, links, lambda s, gain, den: q[s], degenerate)
    # downlink powers meeting the uplink SINRs, from the last-encoded stream
    p = model.sinr_powers(model.stream_gains(links, u), sinr, ch.sigma2[users], model.BC,
                          degenerate)
    counts = bf_mac.streams()
    return model.BeamformingSolution.built(
        model.per_user(ch, counts, u), [vi.copy() for vi in bf_mac.v],
        model.per_user(ch, counts, p), [np.array(qi) for qi in bf_mac.q])


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
    gaps = [np.abs(b - m) for b, m in zip(model.bc_sinr(ch, bf), model.mac_sinr(ch, bf, A))]
    used = model.stream_order(ch, bf.p) @ model.uplink_noise(model.stream_order(ch, bf.u), A)
    budget = sum(s2 * np.sum(qi) for s2, qi in zip(ch.sigma2, bf.q))
    return TransformReport(model.MAC, model.BC, float(np.max(np.concatenate([[0.0]] + gaps))),
                           float(budget - used))
