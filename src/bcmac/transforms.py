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
phases the SVD picks cancel.  The downlink-side interference of a user is
the sum of the whitened downlink covariances encoded after it, a running
sum (MAC to BC) or one suffix cumsum (BC to MAC): O(K) products per transform.
Both interference matrices, the uplink-side Phi (Nt x Nt) and the
downlink-side Omega (Nr x Nr), enter a flip only through their Cholesky
factors (see :func:`_flip`), so neither direction eigendecomposes anything
per user: one formula serves both, with the two sides swapped.

The SINR-preserving construction works on beamforming solutions with one
beam per user, stacked (K, ...) in user order.  It keeps the user-side
vectors and uplink powers, takes MMSE base-station vectors and solves the
downlink powers against the stream gains of ``model.stream_gains``, a
triangular system in encoding order.
"""

import numpy as np

from . import linalg, model
from .errors import DegenerateTransform, InvalidInput


def _flip(C_src, C_dst, M, Q_src):
    """Flip one user's covariance Q_src across the link M, which maps the
    destination side to the source side (Hhat for MAC to BC, Hhat^H for BC
    to MAC), through the SVD G = C_src^{-1} M C_dst^{-H} = U S V^H.  C_src
    and C_dst are Cholesky factors (C C^H) of the source- and
    destination-side interference.  Rates only pass through the leading
    m = min(Nr, Nt) singular pairs, so the flip is
    C_dst^{-H} V_m (U_m^H C_src^H Q_src C_src U_m) V_m^H C_dst^{-1}.

    Any factors give the flip of the symmetric roots: C_src = X^{1/2} W
    (X the interference, W unitary) turns G into W^H G and U into W^H U, so
    C_src U = X^{1/2} U is unchanged, and so is C_dst^{-H} V on the right."""
    m = min(M.shape)
    Csi = np.linalg.inv(C_src)
    D = np.linalg.inv(C_dst).conj().T
    U, _, Vh = np.linalg.svd(Csi @ M @ D)
    Um, Vm = U[:, :m], Vh[:m].conj().T
    S = Um.conj().T @ C_src.conj().T @ Q_src @ C_src @ Um
    return linalg.hermitian_part(D @ Vm @ S @ Vm.conj().T @ D.conj().T)


def mac_to_bc_capacity(ch, cov_mac, A, whitened=None):
    """Map dual-uplink covariances to downlink covariances achieving the same
    per-user rate vector, with tr((sum Q) A) <= sum_i sigma_i^2 tr(Q_i^(m)).
    ``whitened`` is ``model.whitened_channels(ch, A)`` when the caller has it
    already (a weighted-sum-rate solve returns it); ``A`` is then unused."""
    model._check_dims(ch, cov_mac, model.MAC)
    Hhat, W = whitened or model.whitened_channels(ch, linalg.check_hermitian(A, name="A"))
    order = ch.encoding_order
    # absorb the per-user noise weights so the budget is a plain trace
    Z = ch.sigma2[:, None, None] * cov_mac.Q
    # Phis[pos] = I + sum of the uplink terms of the users encoded before pos
    Phis = [np.eye(ch.nt, dtype=np.complex128)]
    for j in order[:-1]:
        Phis.append(Phis[-1] + Hhat[j].conj().T @ Z[j] @ Hhat[j])
    Qw = np.zeros((ch.K, ch.nt, ch.nt), dtype=np.complex128)  # whitened downlink
    later = np.zeros((ch.nt, ch.nt), dtype=np.complex128)  # sum of Qw encoded after pos
    for pos in range(ch.K - 1, -1, -1):
        i = order[pos]
        Om = linalg.hermitian_part(np.eye(ch.nr) + Hhat[i] @ later @ Hhat[i].conj().T)
        Qw[i] = _flip(np.linalg.cholesky(Om), np.linalg.cholesky(Phis[pos]), Hhat[i], Z[i])
        later = later + Qw[i]
    return model.CovarianceSet.built(model.BC, W @ Qw @ W)


def bc_to_mac_capacity(ch, cov_bc, A):
    """Mirror of :func:`mac_to_bc_capacity`: downlink covariances to uplink
    ones preserving rates, with sum_i sigma_i^2 tr(Q_i^(m)) <= tr((sum Q) A)."""
    model._check_dims(ch, cov_bc, model.BC)
    A = linalg.check_hermitian(A, name="A")
    Hhat, W = model.whitened_channels(ch, A)
    As = A @ W  # A^{1/2}
    order = list(ch.encoding_order)
    Qw = linalg.hermitian_part(As @ cov_bc.Q @ As)
    # later[pos] = sum of Qw over the users encoded after pos
    later = np.zeros_like(Qw)
    later[:-1] = np.cumsum(Qw[order[:0:-1]], axis=0)[::-1]
    Z = np.zeros((ch.K, ch.nr, ch.nr), dtype=np.complex128)
    Phi = np.eye(ch.nt, dtype=np.complex128)  # running I + earlier uplink terms
    for pos, i in enumerate(order):
        Om = linalg.hermitian_part(np.eye(ch.nr) + Hhat[i] @ later[pos] @ Hhat[i].conj().T)
        Z[i] = _flip(np.linalg.cholesky(Phi), np.linalg.cholesky(Om), Hhat[i].conj().T, Qw[i])
        Phi = Phi + Hhat[i].conj().T @ Z[i] @ Hhat[i]
    return model.CovarianceSet.built(model.MAC, Z / ch.sigma2[:, None, None])


def mac_to_bc_sinr(ch, bf_mac, A):
    """SINR-preserving transformation of an uplink beamforming solution.

    Keeps the user-side vectors v and uplink powers q, takes the MMSE
    base-station receive vectors u of one batched SIC pass
    (``model.uplink_sic``), then solves the triangular system equating
    downlink and uplink SINRs for the downlink powers p.  The result
    satisfies, user by user, SINR_bc = SINR_mac and
    sum p u^H A u = sum sigma^2 q.
    """
    return sinr_to_bc(ch, bf_mac, linalg.check_pd(A, name="A"))


def sinr_to_bc(ch, bf_mac, A):
    """The transformation of :func:`mac_to_bc_sinr` without validating
    ``A``, for solver loops that validated it once on entry."""
    if bf_mac.q is None:
        raise InvalidInput("uplink powers required")
    users = list(ch.encoding_order)

    def degenerate(s):
        return DegenerateTransform(f"user {users[s]} (encoding position {s}): zero gain")

    # the MMSE vectors of the SIC pass at q, and the powers meeting its SINRs
    # from the last-encoded user, both in encoding order
    links = model.stream_links(ch, bf_mac.v)
    u, sinr = model.uplink_sic(A, links, bf_mac.q[users], degenerate)
    p = model.sinr_powers(model.stream_gains(links, u), sinr, ch.sigma2[users], model.BC,
                          degenerate)
    pos = np.argsort(users)
    return model.BeamformingSolution.built(u[pos], bf_mac.v.copy(), p[pos], bf_mac.q.copy())
