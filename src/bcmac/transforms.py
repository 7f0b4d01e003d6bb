"""Covariance and beamforming transformations between a broadcast channel
under a linear constraint tr(QA) <= P and its dual multiple-access channel
with noise covariance A and weighted sum power sum_i sigma_i^2 tr(Q_i) <= P.

Both directions preserve the per-user rate vector exactly; the transformed
total (weighted) power never exceeds the source side's, with equality
whenever no transmit power is wasted in channel null space (always the case
for Nr <= Nt and for solver-optimal inputs).

Everything here reduces to the classical identity-noise duality when A = I
and sigma^2 = 1.

The rate-preserving construction whitens the constraint (channels
Hhat_i = H_i A^{-1/2}, identity noise) and flips each user's covariance
through the SVD G = C^{-1} Hhat_i L^{-H} = U S V^H, with L L^H = Phi (Nt x
Nt: I plus the uplink terms of the users encoded before i) and C C^H = Omega
(Nr x Nr: I plus the downlink interference of those encoded after).  Rates
pass only through the leading m = min(Nr, Nt) singular pairs, so the MAC to
BC flip of Z = sigma_i^2 Q_i is L^{-H} V_m (U_m^H C^H Z C U_m) V_m^H L^{-1};
BC to MAC is the same formula with the sides swapped, walking the users from
the first encoding position.  Column k of U is paired with column k of V, so
the phases the SVD picks cancel, and any factors give the flip of the
symmetric roots (C = Omega^{1/2} X, X unitary, leaves C U unchanged).

Only Omega depends on other flips, so MAC to BC does its Nt-sized work up
front, one batched call per step over the encoding positions: the prefix
sums Phi and their Cholesky factors L, the thin SVD L^{-1} Hhat^H =
Q_R diag(s) V_R, B = L^{-H} Q_R (Nt x m) and the cross gains Hhat_p B_t.
As G = (C^{-1} V_R^H diag(s)) Q_R^H, the right singular vectors of G are
Q_R times those, V', of the Nr x m matrix in brackets, and the walk from the
last position to the first touches Nr x Nr and m x m matrices only: C, that
SVD, the flip in the basis B, Y = V' (U_m^H C^H Z C U_m) V'^H, and the term
(Hhat_p B_t) Y_t (Hhat_p B_t)^H it adds to every earlier Omega_p.  The last
position sees Omega = I, so its flip reads off the up-front SVD.  The
downlink covariance is A^{-1/2} B Y B^H A^{-1/2}.  Nothing is squared or
divided by a singular value, and nothing is eigendecomposed per user.

The SINR-preserving construction works on beamforming solutions with one
beam per user, stacked (K, ...) in user order.  It keeps the user-side
vectors and uplink powers, takes MMSE base-station vectors and solves the
downlink powers against the stream gains of ``model.stream_gains``, a
triangular system in encoding order.
"""

import numpy as np

from . import linalg, model
from .errors import DegenerateTransform, InvalidInput


def mac_to_bc_capacity(ch, cov_mac, A, whitened=None):
    """Map dual-uplink covariances to downlink covariances achieving the same
    per-user rate vector, with tr((sum Q) A) <= sum_i sigma_i^2 tr(Q_i^(m)).
    ``whitened`` is ``model.whitened_channels(ch, A)`` when the caller has it
    already (a weighted-sum-rate solve returns it); ``A`` is then unused."""
    model._check_dims(ch, cov_mac, model.MAC)
    Hhat, W = whitened or model.whitened_channels(ch, linalg.check_hermitian(A, name="A"))
    order = list(ch.encoding_order)
    K, nr, nt, m = ch.K, ch.nr, ch.nt, min(ch.nr, ch.nt)
    # whitened channels and noise-weighted uplink covariances in encoding order
    G, Z = Hhat[order], ch.sigma2[order, None, None] * cov_mac.Q[order]
    Gh = linalg.ctrans(G)
    # Phi[pos] = I + the uplink terms of the positions before pos, added block
    # by block (np.cumsum along the stack strides across it, many times slower)
    Phi = np.concatenate([np.eye(nt)[None], Gh[:-1] @ Z[:-1] @ G[:-1]])
    for pos in range(1, K):
        Phi[pos] += Phi[pos - 1]
    L = np.linalg.cholesky(Phi)
    QR, s, Vr = np.linalg.svd(np.linalg.solve(L, Gh), full_matrices=False)
    rh = linalg.ctrans(Vr) * s[:, None, :]  # G_pos L_pos^{-H} = rh_pos QR_pos^H
    B = np.linalg.solve(linalg.ctrans(L), QR)
    del Phi, L  # free the K x Nt x Nt stacks before the output is built
    # block (p, t) of cross is G_p B_t, and of XY G_p B_t Y_t once Y_t is known
    cross = G.reshape(K * nr, nt) @ B.swapaxes(0, 1).reshape(nt, K * m)
    XY = np.empty_like(cross)
    Y = np.empty((K, m, m), dtype=np.complex128)
    P = linalg.ctrans(Vr[-1])  # C U_m V'^H; Omega = I at the last position
    for pos in range(K - 1, -1, -1):
        Y[pos] = P.conj().T @ Z[pos] @ P
        if pos:
            cols = slice(pos * m, (pos + 1) * m)
            np.matmul(cross[:pos * nr, cols], Y[pos], out=XY[:pos * nr, cols])
            rows, later = slice((pos - 1) * nr, pos * nr), slice(pos * m, None)
            C = np.linalg.cholesky(np.eye(nr) + XY[rows, later] @ cross[rows, later].conj().T)
            U, _, Vh = np.linalg.svd(np.linalg.solve(C, rh[pos - 1]))
            P = C @ U[:, :m] @ Vh
    users = np.argsort(order)
    WB = W @ B[users]
    return model.CovarianceSet.built(model.BC, WB @ Y[users] @ linalg.ctrans(WB))


def bc_to_mac_capacity(ch, cov_bc, A):
    """Mirror of :func:`mac_to_bc_capacity`: downlink covariances to uplink
    ones preserving rates, with sum_i sigma_i^2 tr(Q_i^(m)) <= tr((sum Q) A),
    one flip per user from the first encoding position (module docstring)."""
    model._check_dims(ch, cov_bc, model.BC)
    A = linalg.check_hermitian(A, name="A")
    Hhat, W = model.whitened_channels(ch, A)
    As = A @ W  # A^{1/2}
    order = list(ch.encoding_order)
    m = min(ch.nr, ch.nt)
    Qw = linalg.hermitian_part(As @ cov_bc.Q @ As)
    # later[pos] = sum of Qw over the users encoded after pos
    later = np.zeros_like(Qw)
    later[:-1] = np.cumsum(Qw[order[:0:-1]], axis=0)[::-1]
    Z = np.zeros((ch.K, ch.nr, ch.nr), dtype=np.complex128)
    Phi = np.eye(ch.nt, dtype=np.complex128)  # running I + earlier uplink terms
    for pos, i in enumerate(order):
        Om = linalg.hermitian_part(np.eye(ch.nr) + Hhat[i] @ later[pos] @ Hhat[i].conj().T)
        L, C = np.linalg.cholesky(Phi), np.linalg.cholesky(Om)
        D = np.linalg.inv(C).conj().T
        U, _, Vh = np.linalg.svd(np.linalg.inv(L) @ Hhat[i].conj().T @ D)
        Um, Vm = U[:, :m], Vh[:m].conj().T
        S = Um.conj().T @ L.conj().T @ Qw[i] @ L @ Um
        Z[i] = linalg.hermitian_part(D @ Vm @ S @ Vm.conj().T @ D.conj().T)
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
