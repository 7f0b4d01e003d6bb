"""Broadcast-channel instances and rate/SINR evaluation.

A downlink instance is a :class:`ChannelSet`: per-user channel matrices
``H[i]`` of shape (Nr, Nt), per-user noise powers ``sigma2[i]`` and an
explicit ``encoding_order``.  The user at the first encoding position is
encoded first and therefore sees interference from everyone encoded after it;
in the dual uplink the decode order is the reverse, so that same user is
decoded last and sees no interference.

Rates are natural-log (nats per channel use) throughout the library; the CLI
converts to bits on output.

Beamforming SINRs of both links come from one matrix of stream gains,
M[s, t] = |g_s^H u_t|^2 over streams in encoding order, g_s = H_i^H v_s the
uplink link of stream s (of user i), u_t the base-station vector of t:

    downlink (DPC):  SINR_s = p_s M_ss / (sigma_i^2 + sum_{t>s} M_st p_t),
    uplink:          SINR_s = q_s M_ss / (u_s^H A u_s + sum_{t<s} M_ts q_t),

both triangular, so the powers meeting given SINRs are one pass.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import InvalidInput

BC = "bc"
MAC = "mac"


def _as_order(order, K):
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(K)):
        raise InvalidInput(f"encoding_order {order} is not a permutation of 0..{K - 1}")
    return order


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """A broadcast-channel instance.

    H: list of K channel matrices, each (Nr, Nt), identical shapes.
    sigma2: K positive noise powers (defaults to all ones).
    encoding_order: 0-based permutation; entry m is the user encoded at
        position m.  Defaults to index order.
    """

    H: tuple
    sigma2: np.ndarray
    encoding_order: tuple

    def __init__(self, H, sigma2=None, encoding_order=None):
        mats = tuple(linalg.as_matrix(Hi, name=f"H[{i}]") for i, Hi in enumerate(H))
        if not mats:
            raise InvalidInput("need at least one user channel")
        shape = mats[0].shape
        if any(Hi.shape != shape for Hi in mats):
            raise InvalidInput("all user channels must share one (Nr, Nt) shape")
        K = len(mats)
        if sigma2 is None:
            s2 = np.ones(K)
        else:
            s2 = np.asarray(sigma2, dtype=float).reshape(-1)
            if s2.shape != (K,):
                raise InvalidInput(f"sigma2 must have length {K}")
        if np.any(s2 <= 0) or not np.all(np.isfinite(s2)):
            raise InvalidInput("noise powers must be positive and finite")
        order = _as_order(encoding_order if encoding_order is not None else range(K), K)
        object.__setattr__(self, "H", mats)
        object.__setattr__(self, "sigma2", s2)
        object.__setattr__(self, "encoding_order", order)

    @property
    def K(self):
        return len(self.H)

    @property
    def nr(self):
        return self.H[0].shape[0]

    @property
    def nt(self):
        return self.H[0].shape[1]

    def with_order(self, encoding_order):
        return ChannelSet(self.H, self.sigma2, encoding_order)


@dataclass(frozen=True, eq=False)
class LinearConstraint:
    """Transmit covariance constraint tr(Q A) <= P with A PSD and P > 0."""

    A: np.ndarray
    P: float

    def __init__(self, A, P):
        mat = linalg.check_hermitian(A, name="constraint matrix")
        w, _ = np.linalg.eigh(mat)
        if w[0] < -linalg.CLAMP_TOL * max(1.0, w[-1]):
            raise InvalidInput("constraint matrix must be PSD")
        if not (float(P) > 0):
            raise InvalidInput("constraint budget must be positive")
        object.__setattr__(self, "A", mat)
        object.__setattr__(self, "P", float(P))

    @staticmethod
    def sum_power(nt, budget):
        return LinearConstraint(np.eye(nt), budget)

    @staticmethod
    def per_antenna(nt, antenna, budget):
        A = np.zeros((nt, nt))
        A[antenna, antenna] = 1.0
        return LinearConstraint(A, budget)


@dataclass(frozen=True, eq=False)
class CovarianceSet:
    """Per-user transmit covariances, downlink (Nt x Nt) or uplink (Nr x Nr),
    held as one stacked (K, n, n) array ``Q``.

    Covariances a caller passes in are validated here: each block must be
    Hermitian and PSD; roundoff-negative eigenvalues (above -1e-9 relative)
    are clamped to zero, anything worse raises.  Covariances the library
    builds itself (solver outputs, both transforms, beamformer covariances,
    rescaled points) are PSD by construction and go through :meth:`built`,
    which only takes the Hermitian part.
    """

    side: str
    Q: np.ndarray

    def __init__(self, side, Q):
        mats = [linalg.check_hermitian(Qi, name=f"Q[{i}]") for i, Qi in enumerate(Q)]
        if not mats:
            raise InvalidInput("need at least one covariance")
        if any(M.shape != mats[0].shape for M in mats):
            raise InvalidInput("all covariances must share one shape")
        Q = np.array(mats)
        w, V = np.linalg.eigh(Q)
        low = w[:, 0] < -linalg.CLAMP_TOL * np.maximum(1.0, w[:, -1])
        if low.any():
            i = int(np.argmax(low))
            raise InvalidInput(f"Q[{i}] has eigenvalue {w[i, 0]:g}, below clamp tolerance")
        neg = w[:, 0] < 0
        Q[neg] = (V[neg] * np.maximum(w[neg], 0.0)[:, None, :]) @ V[neg].conj().swapaxes(1, 2)
        self._set(side, Q)

    def _set(self, side, Q):
        if side not in (BC, MAC):
            raise InvalidInput(f"side must be '{BC}' or '{MAC}'")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "Q", Q)

    @classmethod
    def built(cls, side, Q):
        """A set of covariances the library computed, stacked (K, n, n):
        PSD by construction, so only the Hermitian part is taken."""
        cov = object.__new__(cls)
        cov._set(side, linalg.hermitian_part(Q))
        return cov

    @property
    def K(self):
        return len(self.Q)

    def total(self):
        """Sum of the blocks, added in user order."""
        return sum(self.Q[1:], start=self.Q[0].copy())

    @staticmethod
    def zeros(side, K, dim):
        return CovarianceSet.built(side, np.zeros((K, dim, dim)))


@dataclass(frozen=True, eq=False)
class SinrTargets:
    """Per-user positive SINR targets (linear ratios)."""

    gamma: np.ndarray

    def __init__(self, gamma):
        g = np.asarray(gamma, dtype=float).reshape(-1)
        if g.size == 0 or np.any(g <= 0) or not np.all(np.isfinite(g)):
            raise InvalidInput("targets must be positive and finite")
        object.__setattr__(self, "gamma", g)


@dataclass
class BeamformingSolution:
    """Per-stream beamvectors and powers.

    u[i]: (S_i, Nt) unit rows, base-station side vectors (transmit in the
        downlink, receive in the dual uplink).
    v[i]: (S_i, Nr) unit rows, user-side vectors.
    p[i]: downlink stream powers, q[i]: uplink stream powers; either may be
        None before the corresponding side has been populated.
    Solutions the library builds skip the constructor's checks (:meth:`built`).
    """

    u: list
    v: list
    p: list = None
    q: list = None

    def __post_init__(self):
        K = len(self.u)
        if len(self.v) != K:
            raise InvalidInput("u and v must list the same number of users")
        for i in range(K):
            self.u[i] = np.atleast_2d(np.asarray(self.u[i], dtype=np.complex128))
            self.v[i] = np.atleast_2d(np.asarray(self.v[i], dtype=np.complex128))
            if self.u[i].shape[0] != self.v[i].shape[0]:
                raise InvalidInput(f"user {i}: u and v stream counts differ")
            for name, mat in (("u", self.u[i]), ("v", self.v[i])):
                norms = np.linalg.norm(mat, axis=1)
                if mat.shape[0] and np.max(np.abs(norms - 1.0)) > 1e-10:
                    raise InvalidInput(f"user {i}: {name} rows must be unit norm")
        for name in ("p", "q"):
            vals = getattr(self, name)
            if vals is None:
                continue
            vals = [np.asarray(x, dtype=float).reshape(-1) for x in vals]
            if len(vals) != K or any(
                v.shape[0] != self.u[i].shape[0] for i, v in enumerate(vals)
            ):
                raise InvalidInput(f"{name} must match stream counts")
            if any(np.any(v < 0) for v in vals):
                raise InvalidInput(f"{name} powers must be nonnegative")
            setattr(self, name, vals)

    @classmethod
    def built(cls, u, v, p=None, q=None):
        """A solution the library computed, in the constructor's normal form
        (2-D complex u[i], v[i] with unit rows; 1-D float nonnegative p[i],
        q[i]) by construction."""
        bf = object.__new__(cls)
        bf.u, bf.v, bf.p, bf.q = u, v, p, q
        return bf

    @property
    def K(self):
        return len(self.u)

    def streams(self):
        return [ui.shape[0] for ui in self.u]

    def bc_covariances(self):
        """Q_i = sum_j p_ij u_ij u_ij^H (downlink side)."""
        if self.p is None:
            raise InvalidInput("downlink powers not set")
        nt = self.u[0].shape[1]
        out = np.zeros((self.K, nt, nt), dtype=np.complex128)
        for i in range(self.K):
            for j in range(self.u[i].shape[0]):
                uj = self.u[i][j]
                out[i] += self.p[i][j] * np.outer(uj, uj.conj())
        return CovarianceSet.built(BC, out)


def mac_eigenbeams(cov, drop_tol=1e-12):
    """Eigendecompose uplink covariances into unit beams and powers.

    Returns (v, q): per-user arrays of eigenvector rows and eigenvalues.
    Zero-power eigenstreams (relative to the largest eigenvalue across users)
    are dropped; they carry no rate and would only inject noise into
    downstream transformations.
    """
    if cov.side != MAC:
        raise InvalidInput("expected an uplink covariance set")
    scale = max(float(np.linalg.eigvalsh(Q)[-1]) for Q in cov.Q)
    v, q = [], []
    nr = cov.Q[0].shape[0]
    for Qi in cov.Q:
        w, V = np.linalg.eigh(Qi)
        keep = w > max(drop_tol * scale, 0.0)
        vi = V[:, keep].T
        v.append(vi if vi.size else np.zeros((0, nr), dtype=np.complex128))
        q.append(w[keep])
    return v, q


def _check_dims(ch, cov, side):
    """Raise InvalidInput unless ``cov`` holds K covariances of ``side``
    sized for the channel set: Nt x Nt downlink, Nr x Nr uplink."""
    if cov.side != side:
        raise InvalidInput(f"expected {'downlink' if side == BC else 'uplink'} covariances")
    n = ch.nt if side == BC else ch.nr
    if cov.Q.shape != (ch.K, n, n):
        raise InvalidInput("covariance dimensions do not match the channel set")


def bc_rates_dpc(ch, cov):
    """Per-user downlink rates (nats) under sequential known-interference
    encoding: the user at encoding position m is interfered only by users at
    positions > m."""
    _check_dims(ch, cov, BC)
    order = list(ch.encoding_order)
    H = np.asarray(ch.H)[order]
    Hh = H.conj().swapaxes(1, 2)
    # covariances encoded at positions >= m (own[m]) and > m (later[m])
    own = np.cumsum(cov.Q[order[::-1]], axis=0)[::-1]
    later = np.concatenate([own[1:], np.zeros_like(own[:1])])
    noise = ch.sigma2[order, None, None] * np.eye(ch.nr)
    rates = np.zeros(ch.K)
    rates[order] = (linalg.logdet_psd(noise + H @ own @ Hh)
                    - linalg.logdet_psd(noise + H @ later @ Hh))
    return rates


def mac_rates(ch, cov, noise):
    """Per-user rates (nats) of the dual uplink with base-station noise
    covariance ``noise``; decode order is the reverse of the encoding order,
    so the user at encoding position m is interfered by positions < m."""
    _check_dims(ch, cov, MAC)
    A = linalg.check_hermitian(noise, name="noise")
    linalg.assert_pd(A, floor=1e-14, name="uplink noise covariance")
    order = list(ch.encoding_order)
    H = np.asarray(ch.H)[order]
    # A, then A plus the terms of the users encoded at positions 0..m
    terms = np.concatenate([A[None], H.conj().swapaxes(1, 2) @ cov.Q[order] @ H])
    rates = np.zeros(ch.K)
    rates[order] = np.diff(linalg.logdet_psd(np.cumsum(terms, axis=0)))
    return rates


def stream_order(ch, per_user):
    """Per-user stream arrays (rows of u or v, entries of p or q) stacked
    over every stream in encoding order."""
    return np.concatenate([np.asarray(per_user[i]) for i in ch.encoding_order])


def per_user(ch, counts, x):
    """Values stacked over streams in encoding order split back into per-user
    arrays, ``counts[i]`` the stream count of user i (the inverse of
    :func:`stream_order`)."""
    out, start = [None] * ch.K, 0
    for i in ch.encoding_order:
        out[i], start = x[start:start + counts[i]], start + counts[i]
    return out


def stream_links(ch, v):
    """The user of every stream and its uplink link g = H_i^H v, stacked
    (S, Nt) in encoding order; ``v`` lists each user's (S_i, Nr) vectors."""
    order = ch.encoding_order
    return (np.array([i for i in order for _ in range(len(v[i]))], dtype=int),
            np.concatenate([v[i] @ ch.H[i].conj() for i in order]))


def stream_gains(links, u):
    """M[s, t] = |g_s^H u_t|^2 between links g_s and base-station vectors
    u_t, both stacked (S, Nt) in encoding order (see the module docstring)."""
    return np.abs(links.conj() @ u.T) ** 2


def uplink_noise(u, A):
    """u_s^H A u_s for base-station vectors stacked (S, Nt)."""
    return np.einsum("si,ij,sj->s", u.conj(), A, u).real


def sinr_powers(M, gamma, noise, side, degenerate):
    """Powers meeting SINR_s = gamma_s exactly against the gains M on the
    downlink (side BC) or the uplink (MAC), by substitution from the last
    stream or the first (see the module docstring).  A zero target gets zero
    power; a positive one on a zero gain raises ``degenerate(s)``."""
    rows = M if side == BC else M.T
    x = np.zeros(len(gamma))
    for s in (range(len(x) - 1, -1, -1) if side == BC else range(len(x))):
        if gamma[s] == 0:
            continue
        if not M[s, s] > 0:
            raise degenerate(s)
        # entries not yet filled are zero, so only solved streams interfere
        x[s] = gamma[s] * (noise[s] + rows[s] @ x) / M[s, s]
    return x


def bc_sinr(ch, bf, scheme="dpc"):
    """Per-stream downlink SINRs.

    scheme="dpc": a stream is interfered only by streams encoded after it.
    scheme="linear": every other stream interferes.
    Returns a list of per-user arrays.
    """
    if scheme not in ("dpc", "linear"):
        raise InvalidInput("scheme must be 'dpc' or 'linear'")
    users, links = stream_links(ch, bf.v)
    M = stream_gains(links, stream_order(ch, bf.u))
    p = stream_order(ch, bf.p)
    others = np.triu(M, 1) if scheme == "dpc" else M - np.diag(np.diag(M))
    return per_user(ch, bf.streams(), p * np.diag(M) / (ch.sigma2[users] + others @ p))


def whitened_channels(ch, A):
    """Channels of the equivalent identity-noise problem, (H_i / sigma_i)
    A^{-1/2}, stacked (K, Nr, Nt), and the whitening matrix A^{-1/2}; an
    eigenvalue of A at most ``linalg.PD_FLOOR`` raises SingularConstraintMatrix."""
    W = linalg.inv_sqrt(A)
    return np.array([ch.H[i] / np.sqrt(ch.sigma2[i]) @ W for i in range(ch.K)]), W


def uplink_sic(A, links, power, vanishing):
    """Successive interference cancellation on the dual uplink.

    ``links`` stacks the streams' links g = H_i^H v, (S, Nt), in encoding
    order; stream s is decoded against C = A plus the streams before it,
    with the unit-norm MMSE vector C^{-1} g normalized (raising
    ``vanishing(s)`` if it vanishes).  Its power is ``power(s, gain, den)``
    with gain = |u^H g|^2, den = u^H C u.  Returns the receive vectors
    stacked (S, Nt), the powers and the SINRs q gain / den.
    """
    C = A.astype(np.complex128)
    u, q, sinr = [], [], []
    for s, g in enumerate(links):
        x = np.linalg.solve(C, g)
        n = np.linalg.norm(x)
        if n <= 0:
            raise vanishing(s)
        x = x / n
        gain = abs(np.vdot(x, g)) ** 2
        den = float(np.real(x.conj() @ C @ x))
        qs = power(s, gain, den)
        u.append(x)
        q.append(qs)
        sinr.append(qs * gain / den)
        C = C + qs * np.outer(g, g.conj())
    return np.array(u).reshape(links.shape), np.array(q, dtype=float), np.array(sinr)


def mac_sinr(ch, bf, noise):
    """Per-stream dual-uplink SINRs: stream (i,j) is decoded after everything
    encoded later, so it sees interference from streams encoded before it
    plus the base-station noise covariance."""
    A = linalg.check_hermitian(noise, name="noise")
    linalg.assert_pd(A, floor=1e-14, name="uplink noise covariance")
    _, links = stream_links(ch, bf.v)
    u, q = stream_order(ch, bf.u), stream_order(ch, bf.q)
    M = stream_gains(links, u)
    return per_user(ch, bf.streams(), q * np.diag(M) / (uplink_noise(u, A) + np.triu(M, 1).T @ q))


def constraint_value(cov, c):
    """tr((sum_i Q_i) A) for a downlink covariance set; linear in each Q_i."""
    _tot = cov.total()
    if _tot.shape != c.A.shape:
        raise InvalidInput("constraint matrix dimension mismatch")
    return float(np.real(np.trace(_tot @ c.A)))


def constraint_slacks(cov, constraints):
    """P_l - tr((sum_i Q_i) A_l) for every constraint."""
    return np.array([c.P - constraint_value(cov, c) for c in constraints])


def feasible_scale(cov, constraints):
    """min(1, P_l / tr((sum_i Q_i) A_l)) over the constraints: the largest
    factor at most 1 by which ``cov`` meets every one of them."""
    return min([1.0] + [c.P / max(constraint_value(cov, c), 1e-300) for c in constraints])


def bc_mmse_receivers(ch, u, p):
    """Unit-norm MMSE receive vectors for single-stream-per-user downlink
    beams under the DPC interference structure (user at position m interfered
    by positions > m).  u: list of K unit Nt-vectors, p: K powers.  The K
    interference-plus-noise covariances are built and solved as one stack."""
    G = np.einsum("irt,kt->ikr", np.array(ch.H), np.asarray(u, dtype=np.complex128))
    pos = np.argsort(ch.encoding_order)
    load = (pos[None, :] > pos[:, None]) * np.asarray(p, dtype=float)  # [i, k]: k hurts i
    C = ch.sigma2[:, None, None] * np.eye(ch.nr) + np.einsum("ik,ikr,iks->irs", load, G, G.conj())
    v = np.linalg.solve(C, np.einsum("iir->ir", G)[..., None])[..., 0]
    n = np.linalg.norm(v, axis=1)
    v[n == 0] = np.eye(ch.nr)[0]
    return list(v / np.where(n > 0, n, 1.0)[:, None])
