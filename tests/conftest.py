"""Shared fixtures and independent reference evaluators.

The reference evaluators here are deliberately separate implementations
(plain slogdet chains and explicit scalar loops) so tests never validate the
library against its own code paths.  The transform audits and the running
best of a search trace at the end are test helpers built on the library's
own rate and SINR functions.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from bcmac import model
from bcmac.model import MAC, CovarianceSet


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def rand_complex(rng, shape, scale=1.0):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def rand_psd(rng, n, scale=1.0):
    X = rand_complex(rng, (n, n))
    return scale * (X @ X.conj().T) / n


def rand_pd(rng, n, scale=1.0, ridge=0.1):
    return rand_psd(rng, n, scale) + ridge * np.eye(n)


def rand_channels(rng, K, nr, nt, real=False):
    if real:
        return [rng.normal(size=(nr, nt)).astype(complex) for _ in range(K)]
    return [rand_complex(rng, (nr, nt)) for _ in range(K)]


def ref_logdet(M):
    sign, ld = np.linalg.slogdet(M)
    assert sign.real > 0
    return float(ld)


def ref_bc_rates(H, sigma2, order, Q):
    """Downlink rates by direct determinant evaluation (independent path).
    With more receive than transmit antennas each determinant is taken on the
    Nt side, det(s I_Nr + H S H^H) = s^(Nr - Nt) det(s I_Nt + S H^H H): the
    Nr x Nr matrix has Nr - Nt eigenvalues s beside ones of order
    ||H S H^H||, and at high SNR its float64 determinant loses their digits."""
    K = len(H)
    nr, nt = H[0].shape

    def logdet(s, Hi, S):
        if nr > nt:
            return (nr - nt) * np.log(s) + ref_logdet(s * np.eye(nt) + S @ Hi.conj().T @ Hi)
        return ref_logdet(s * np.eye(nr) + Hi @ S @ Hi.conj().T)

    rates = np.zeros(K)
    for pos in range(K):
        i = order[pos]
        later = [Q[order[p]] for p in range(pos + 1, K)]
        S_all = sum([Q[i]] + later) if later else Q[i]
        S_later = sum(later) if later else np.zeros_like(Q[i])
        rates[i] = logdet(sigma2[i], H[i], S_all) - logdet(sigma2[i], H[i], S_later)
    return rates


def ref_mac_rates(H, order, Qm, noise):
    """Dual-uplink rates by direct determinant evaluation."""
    K = len(H)
    rates = np.zeros(K)
    cum = np.array(noise, dtype=complex)
    prev = ref_logdet(cum)
    for pos in range(K):
        i = order[pos]
        cum = cum + H[i].conj().T @ Qm[i] @ H[i]
        cur = ref_logdet(cum)
        rates[i] = cur - prev
        prev = cur
    return rates


def ref_bc_sinr_dpc(H, sigma2, order, u, v, p):
    """Per-stream downlink SINRs by explicit scalar loops: stream (i, j) is
    interfered by streams of later-encoded users and later streams of its own
    user."""
    seq = []
    for pos in range(len(H)):
        i = order[pos]
        for j in range(len(p[i])):
            seq.append((i, j))
    out = {s: 0.0 for s in seq}
    for a, (i, j) in enumerate(seq):
        sig = p[i][j] * abs(np.vdot(v[i][j], H[i] @ u[i][j])) ** 2
        interf = 0.0
        for (k, l) in seq[a + 1:]:
            interf += p[k][l] * abs(np.vdot(v[i][j], H[i] @ u[k][l])) ** 2
        out[(i, j)] = sig / (interf + sigma2[i])
    return out


def ref_bc_mmse_receivers(H, sigma2, order, u, p):
    """Unit-norm downlink MMSE receivers, one stream per user, by an explicit
    loop: user i's covariance adds the beams of later-encoded users."""
    pos = {k: m for m, k in enumerate(order)}
    v = []
    for i, Hi in enumerate(H):
        C = sigma2[i] * np.eye(Hi.shape[0], dtype=complex)
        for k in range(len(H)):
            if pos[k] > pos[i]:
                g = Hi @ u[k]
                C = C + p[k] * np.outer(g, g.conj())
        vi = np.linalg.solve(C, Hi @ u[i])
        n = np.linalg.norm(vi)
        v.append(vi / n if n > 0 else np.eye(Hi.shape[0], dtype=complex)[0])
    return v


def ref_mac_sinr(H, order, u, v, q, noise):
    """Per-stream uplink SINRs by explicit scalar loops: stream (i, j) sees
    earlier-encoded streams plus the noise covariance."""
    seq = []
    for pos in range(len(H)):
        i = order[pos]
        for j in range(len(q[i])):
            seq.append((i, j))
    out = {}
    for a, (i, j) in enumerate(seq):
        C = np.array(noise, dtype=complex)
        for (k, l) in seq[:a]:
            g = H[k].conj().T @ v[k][l]
            C = C + q[k][l] * np.outer(g, g.conj())
        g = H[i].conj().T @ v[i][j]
        sig = q[i][j] * abs(np.vdot(u[i][j], g)) ** 2
        den = float(np.real(u[i][j].conj() @ C @ u[i][j]))
        out[(i, j)] = sig / den
    return out


def random_mac_cov(rng, K, nr, total):
    """Random uplink covariances with given total trace."""
    mats = [rand_psd(rng, nr, 1.0) for _ in range(K)]
    tr = sum(float(np.trace(M).real) for M in mats)
    return CovarianceSet(MAC, [M * (total / tr) for M in mats])


@dataclass(frozen=True)
class TransformReport:
    """Audit record for a transformation: worst per-user rate (or per-stream
    SINR) gap and the slack of the transferred power constraint."""

    side_from: str
    side_to: str
    rate_or_sinr_gap: float
    constraint_slack: float


def verify_capacity_transform(ch, cov_mac, cov_bc, A):
    """Audit record for a rate-preserving transformation pair."""
    r_mac = model.mac_rates(ch, cov_mac, A)
    r_bc = model.bc_rates_dpc(ch, cov_bc)
    gap = float(np.max(np.abs(r_mac - r_bc)))
    budget = float(sum(ch.sigma2[i] * np.trace(cov_mac.Q[i]).real for i in range(ch.K)))
    used = model.constraint_value(cov_bc, model.LinearConstraint(A, max(budget, 1e-300)))
    return TransformReport(model.MAC, model.BC, gap, budget - used)


def verify_sinr_transform(ch, bf, A):
    """Audit record for an SINR-preserving transformation: per-user SINR gap
    and the weighted-power identity residual sum p u^H A u - sum sigma^2 q."""
    gap = np.max(np.abs(model.bc_sinr(ch, bf) - model.mac_sinr(ch, bf, A)))
    used = bf.p @ model.uplink_noise(bf.u, A)
    return TransformReport(model.MAC, model.BC, float(gap), float(ch.sigma2 @ bf.q - used))


def running_best(trace, sense="min"):
    """Running best of a multiplier search's recorded bounds."""
    agg = np.minimum if sense == "min" else np.maximum
    return agg.accumulate(np.asarray(trace.value, dtype=float))
