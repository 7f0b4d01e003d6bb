"""Broadcast-channel instances and rate/SINR evaluation.

A downlink instance is a :class:`ChannelSet`: per-user channel matrices
``H[i]`` of shape (Nr, Nt), per-user noise powers ``sigma2[i]`` and an
explicit ``encoding_order``.  The user at the first encoding position is
encoded first and therefore sees interference from everyone encoded after it;
in the dual uplink the decode order is the reverse, so that same user is
decoded last and sees no interference.

Rates are natural-log (nats per channel use) throughout the library; the CLI
converts to bits on output.

Beamforming carries one beam per user, stacked (K, ...) in user order
(:class:`BeamformingSolution`).  The SINRs of both links come from one
matrix of stream gains, M[s, t] = |g_s^H u_t|^2 over the users in encoding
order, g_s = H_i^H v_i the uplink link of the user i at position s, u_t the
base-station vector of the user at position t:

    downlink (DPC):  SINR_s = p_s M_ss / (sigma_i^2 + sum_{t>s} M_st p_t),
    uplink:          SINR_s = q_s M_ss / (u_s^H A u_s + sum_{t<s} M_ts q_t),

both triangular, so the powers meeting given SINRs are one pass.  At fixed
uplink powers the covariances the uplink decodes against,
C_s = A + sum_{t<s} q_t g_t g_t^H, are one prefix sum, so the K MMSE
receivers C_s^{-1} g_s are one batched solve (:func:`uplink_sic`).
"""

from dataclasses import dataclass

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
        if not (0 < float(P) < np.inf):
            raise InvalidInput("constraint budget must be positive and finite")
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
    """One beam per user, stacked (K, ...) in user order.

    u: (K, Nt) unit rows, base-station side vectors (transmit in the
        downlink, receive in the dual uplink).
    v: (K, Nr) unit rows, user-side vectors.
    p: (K,) downlink powers, q: (K,) uplink powers; either may be None
        before the corresponding side has been populated.
    Solutions the library builds skip the constructor's checks (:meth:`built`).
    """

    u: np.ndarray
    v: np.ndarray
    p: np.ndarray = None
    q: np.ndarray = None

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.complex128)
        self.v = np.asarray(self.v, dtype=np.complex128)
        if self.u.ndim != 2 or self.v.ndim != 2 or len(self.u) != len(self.v) or not len(self.u):
            raise InvalidInput("u and v must stack one row per user")
        for name, mat in (("u", self.u), ("v", self.v)):
            if np.max(np.abs(np.linalg.norm(mat, axis=1) - 1.0)) > 1e-10:
                raise InvalidInput(f"{name} rows must be unit norm")
        for name in ("p", "q"):
            vals = getattr(self, name)
            if vals is None:
                continue
            vals = np.asarray(vals, dtype=float)
            if vals.shape != (self.K,):
                raise InvalidInput(f"{name} must hold one power per user")
            if np.any(vals < 0):
                raise InvalidInput(f"{name} powers must be nonnegative")
            setattr(self, name, vals)

    @classmethod
    def built(cls, u, v, p=None, q=None):
        """A solution the library computed, in the constructor's normal form
        (complex u, v with unit rows; float nonnegative p, q) by construction."""
        bf = object.__new__(cls)
        bf.u, bf.v, bf.p, bf.q = u, v, p, q
        return bf

    @property
    def K(self):
        return len(self.u)

    def bc_covariances(self):
        """Q_i = p_i u_i u_i^H (downlink side)."""
        if self.p is None:
            raise InvalidInput("downlink powers not set")
        outer = self.u[:, :, None] * self.u.conj()[:, None, :]
        return CovarianceSet.built(BC, self.p[:, None, None] * outer)


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


def stream_links(ch, v):
    """Uplink links g_i = H_i^H v_i of user-side vectors ``v`` (K, Nr) in
    user order, stacked (K, Nt) in encoding order."""
    order = list(ch.encoding_order)
    return (v[order, None, :] @ np.asarray(ch.H)[order].conj())[:, 0]


def stream_gains(links, u):
    """M[s, t] = |g_s^H u_t|^2 between links g_s and base-station vectors
    u_t, both stacked (K, Nt) in encoding order (see the module docstring)."""
    return np.abs(links.conj() @ u.T) ** 2


def uplink_noise(u, A):
    """u_s^H A u_s for base-station vectors stacked (K, Nt)."""
    return np.einsum("si,ij,sj->s", u.conj(), A, u).real


def sinr_powers(M, gamma, noise, side, degenerate):
    """Powers meeting SINR_s = gamma_s exactly against the gains M on the
    downlink (side BC) or the uplink (MAC), by substitution from the last
    position or the first (see the module docstring).  A zero target gets zero
    power; a positive one on a zero gain raises ``degenerate(s)``."""
    rows = M if side == BC else M.T
    x = np.zeros(len(gamma))
    for s in (range(len(x) - 1, -1, -1) if side == BC else range(len(x))):
        if gamma[s] == 0:
            continue
        if not M[s, s] > 0:
            raise degenerate(s)
        # entries not yet filled are zero, so only solved users interfere
        x[s] = gamma[s] * (noise[s] + rows[s] @ x) / M[s, s]
    return x


def bc_sinr(ch, bf, scheme="dpc"):
    """Downlink SINRs, (K,) in user order.

    scheme="dpc": a user is interfered only by users encoded after it.
    scheme="linear": every other user interferes.
    """
    if scheme not in ("dpc", "linear"):
        raise InvalidInput("scheme must be 'dpc' or 'linear'")
    order = list(ch.encoding_order)
    M = stream_gains(stream_links(ch, bf.v), bf.u[order])
    p = bf.p[order]
    others = np.triu(M, 1) if scheme == "dpc" else M - np.diag(np.diag(M))
    sinr = np.empty(ch.K)
    sinr[order] = p * np.diag(M) / (ch.sigma2[order] + others @ p)
    return sinr


def whitened_channels(ch, A):
    """Channels of the equivalent identity-noise problem, (H_i / sigma_i)
    A^{-1/2}, stacked (K, Nr, Nt), and the whitening matrix A^{-1/2}; an
    eigenvalue of A at most ``linalg.PD_FLOOR`` raises SingularConstraintMatrix."""
    W = linalg.inv_sqrt(A)
    return np.array([ch.H[i] / np.sqrt(ch.sigma2[i]) @ W for i in range(ch.K)]), W


def uplink_sic(A, links, q, vanishing):
    """Successive interference cancellation on the dual uplink at fixed powers.

    ``links`` stacks the users' links g_s = H_i^H v_i, (K, Nt), and ``q``
    their powers, both in encoding order.  Position s is decoded against
    C_s = A + sum_{t<s} q_t g_t g_t^H, an exclusive prefix sum, so the K
    MMSE vectors x_s = C_s^{-1} g_s are one batched solve, and
    SINR_s = q_s g_s^H x_s.  Returns the unit-norm receive vectors stacked
    (K, Nt), raising ``vanishing(s)`` where x_s vanishes, and the SINRs, in
    encoding order.
    """
    terms = q[:-1, None, None] * (links[:-1, :, None] * links[:-1, None, :].conj())
    C = np.cumsum(np.concatenate([A[None], terms]), axis=0)  # complex, as the terms
    x = np.linalg.solve(C, links[:, :, None])[:, :, 0]
    n = np.linalg.norm(x, axis=1)
    if not n.all():
        raise vanishing(int(np.argmin(n)))
    return x / n[:, None], q * np.einsum("si,si->s", links.conj(), x).real


def mac_sinr(ch, bf, noise):
    """Dual-uplink SINRs, (K,) in user order: a user is decoded after
    everyone encoded later, so it sees interference from the users encoded
    before it plus the base-station noise covariance."""
    A = linalg.check_hermitian(noise, name="noise")
    linalg.assert_pd(A, floor=1e-14, name="uplink noise covariance")
    order = list(ch.encoding_order)
    u, q = bf.u[order], bf.q[order]
    M = stream_gains(stream_links(ch, bf.v), u)
    sinr = np.empty(ch.K)
    sinr[order] = q * np.diag(M) / (uplink_noise(u, A) + np.triu(M, 1).T @ q)
    return sinr


def constraint_value(cov, c):
    """tr((sum_i Q_i) A) for a downlink covariance set; linear in each Q_i."""
    _tot = cov.total()
    if _tot.shape != c.A.shape:
        raise InvalidInput("constraint matrix dimension mismatch")
    return float(np.real(np.trace(_tot @ c.A)))


def constraint_slacks(cov, constraints):
    """P_l - tr((sum_i Q_i) A_l) for every constraint."""
    return np.array([c.P - constraint_value(cov, c) for c in constraints])


def step_down(s, meets):
    """The factor ``s`` stepped down an ulp at a time, at most 16, until ``meets(s)``."""
    for _ in range(16):
        if meets(s):
            break
        s = float(np.nextafter(s, 0.0))
    return s


def feasible_scale(cov, constraints, scaled=None):
    """min(1, P_l / tr((sum_i Q_i) A_l)) over the constraints, stepped down until
    ``scaled(s)``, the covariance emitted at s (default s * cov), meets them rounded."""
    scaled = scaled or (lambda s: CovarianceSet.built(cov.side, s * cov.Q))
    s = min([1.0] + [c.P / max(constraint_value(cov, c), 1e-300) for c in constraints])
    return step_down(s, lambda s: np.all(constraint_slacks(scaled(s), constraints) >= 0))


def bc_mmse_receivers(ch, u, p):
    """Unit-norm MMSE receive vectors, (K, Nr) in user order, of the downlink
    beams u (K, Nt) at powers p (K,) under the DPC interference structure
    (user at position m interfered by positions > m).  The K
    interference-plus-noise covariances are built and solved as one stack."""
    G = np.einsum("irt,kt->ikr", np.array(ch.H), np.asarray(u, dtype=np.complex128))
    pos = np.argsort(ch.encoding_order)
    load = (pos[None, :] > pos[:, None]) * np.asarray(p, dtype=float)  # [i, k]: k hurts i
    C = ch.sigma2[:, None, None] * np.eye(ch.nr) + np.einsum("ik,ikr,iks->irs", load, G, G.conj())
    v = np.linalg.solve(C, np.einsum("iir->ir", G)[..., None])[..., 0]
    n = np.linalg.norm(v, axis=1)
    v[n == 0] = np.eye(ch.nr)[0]
    return v / np.where(n > 0, n, 1.0)[:, None]
