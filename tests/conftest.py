"""Shared fixtures and independent reference evaluators.

The reference evaluators here are deliberately separate implementations
(plain slogdet chains and explicit scalar loops) so tests never validate the
library against its own code paths.
"""

import numpy as np
import pytest

from bcmac.model import BC, MAC, CovarianceSet


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
    """Downlink rates by direct determinant evaluation (independent path)."""
    K = len(H)
    nr = H[0].shape[0]
    rates = np.zeros(K)
    for pos in range(K):
        i = order[pos]
        later = [Q[order[p]] for p in range(pos + 1, K)]
        S_all = sum([Q[i]] + later) if later else Q[i]
        S_later = sum(later) if later else np.zeros_like(Q[i])
        noise = sigma2[i] * np.eye(nr)
        rates[i] = ref_logdet(noise + H[i] @ S_all @ H[i].conj().T) \
            - ref_logdet(noise + H[i] @ S_later @ H[i].conj().T)
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


def ref_bc_sinr_dpc(H, sigma2, order, u, v, p, linear=False):
    """Per-stream downlink SINRs by explicit scalar loops: stream (i, j) is
    interfered by streams of later-encoded users and later streams of its own
    user, or with ``linear`` by every other stream."""
    seq = []
    for pos in range(len(H)):
        i = order[pos]
        for j in range(len(p[i])):
            seq.append((i, j))
    out = {s: 0.0 for s in seq}
    for a, (i, j) in enumerate(seq):
        sig = p[i][j] * abs(np.vdot(v[i][j], H[i] @ u[i][j])) ** 2
        interf = 0.0
        for (k, l) in (seq[:a] if linear else []) + seq[a + 1:]:
            interf += p[k][l] * abs(np.vdot(v[i][j], H[i] @ u[k][l])) ** 2
        out[(i, j)] = sig / (interf + sigma2[i])
    return out


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
