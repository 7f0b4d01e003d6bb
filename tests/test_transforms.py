import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcmac import (
    BeamformingSolution,
    ChannelSet,
    CovarianceSet,
    LinearConstraint,
    bc_rates_dpc,
    bc_to_mac_capacity,
    constraint_value,
    mac_rates,
    mac_to_bc_capacity,
    mac_to_bc_sinr,
    verify_capacity_transform,
    verify_sinr_transform,
)
from bcmac import model
from bcmac.errors import DegenerateTransform, InvalidInput, SingularConstraintMatrix
from bcmac.orchestrator import combined_constraint

from conftest import (
    rand_channels,
    rand_complex,
    rand_pd,
    rand_psd,
    random_mac_cov,
    ref_bc_rates,
    ref_mac_rates,
)


def _random_instance(rng, K=None, nt=None, nr=None, sigma=False):
    K = K or int(rng.integers(1, 4))
    nt = nt or int(rng.integers(1, 4))
    nr = nr or int(rng.integers(1, 4))
    sigma2 = rng.uniform(0.5, 2.0, K) if sigma else None
    order = tuple(rng.permutation(K))
    return ChannelSet(rand_channels(rng, K, nr, nt), sigma2, order)


def test_capacity_transform_single_user_identity(rng):
    h = rand_complex(rng, (1, 1))
    ch = ChannelSet([h])
    cov = CovarianceSet("mac", [[[2.0]]])
    out = mac_to_bc_capacity(ch, cov, np.eye(1))
    assert out.Q[0][0, 0].real == pytest.approx(2.0, rel=1e-12)


def test_capacity_transform_zeros(rng):
    ch = _random_instance(rng, K=2, nt=2, nr=2)
    cov = CovarianceSet.zeros("mac", 2, 2)
    out = mac_to_bc_capacity(ch, cov, rand_pd(rng, 2))
    assert all(np.allclose(Q, 0) for Q in out.Q)


def test_capacity_transform_preserves_rates(rng):
    for _ in range(40):
        ch = _random_instance(rng, sigma=True)
        A = rand_pd(rng, ch.nt)
        cov_mac = random_mac_cov(rng, ch.K, ch.nr, float(rng.uniform(0.5, 4.0)))
        cov_bc = mac_to_bc_capacity(ch, cov_mac, A)
        r_mac = ref_mac_rates([Hi / np.sqrt(s) for Hi, s in zip(ch.H, ch.sigma2)],
                              ch.encoding_order,
                              [ch.sigma2[i] * cov_mac.Q[i] for i in range(ch.K)], A)
        r_bc = ref_bc_rates(ch.H, ch.sigma2, ch.encoding_order, list(cov_bc.Q))
        assert np.allclose(r_mac, r_bc, atol=1e-9)
        # transferred budget never exceeded
        budget = sum(ch.sigma2[i] * np.trace(cov_mac.Q[i]).real for i in range(ch.K))
        used = constraint_value(cov_bc, LinearConstraint(A, budget + 1.0))
        assert used <= budget + 1e-8


def test_capacity_transform_trace_equality_square(rng):
    # no power is wasted when users have at least as many transmit antennas
    for _ in range(20):
        nr = int(rng.integers(1, 3))
        nt = int(rng.integers(nr, 4))
        ch = _random_instance(rng, nt=nt, nr=nr, sigma=True)
        A = rand_pd(rng, nt)
        cov_mac = random_mac_cov(rng, ch.K, nr, 2.0)
        cov_bc = mac_to_bc_capacity(ch, cov_mac, A)
        budget = sum(ch.sigma2[i] * np.trace(cov_mac.Q[i]).real for i in range(ch.K))
        used = constraint_value(cov_bc, LinearConstraint(A, budget))
        assert used == pytest.approx(budget, abs=1e-7)


def test_capacity_transform_section_six_channels(rng):
    H1 = [[1.0, 0.0], [0.2, 0.6]]
    H2 = [[0.5, 0.0], [0.2, 1.0]]
    ch = ChannelSet([H1, H2])
    A = np.diag([1.0, 1e-6]) + 1e-6 * np.eye(2)  # near-singular per-antenna surrogate
    cov_mac = random_mac_cov(rng, 2, 2, 3.0)
    cov_bc = mac_to_bc_capacity(ch, cov_mac, A)
    rep = verify_capacity_transform(ch, cov_mac, cov_bc, A)
    assert rep.rate_or_sinr_gap < 1e-7


def test_bc_to_mac_roundtrip(rng):
    for _ in range(30):
        ch = _random_instance(rng, sigma=True)
        A = rand_pd(rng, ch.nt)
        cov_bc_in = CovarianceSet(
            "bc", [rand_psd(rng, ch.nt, float(rng.uniform(0.3, 2))) for _ in range(ch.K)]
        )
        cov_mac = bc_to_mac_capacity(ch, cov_bc_in, A)
        r_in = bc_rates_dpc(ch, cov_bc_in)
        r_mac = mac_rates(ch, cov_mac, A)
        assert np.allclose(r_in, r_mac, atol=1e-9)
        # budget direction: uplink never needs more weighted power
        used_bc = constraint_value(cov_bc_in, LinearConstraint(A, 1.0))
        used_mac = sum(ch.sigma2[i] * np.trace(cov_mac.Q[i]).real
                       for i in range(ch.K))
        assert used_mac <= used_bc + 1e-8
        # and back again preserves the rate vector
        cov_bc2 = mac_to_bc_capacity(ch, cov_mac, A)
        assert np.allclose(bc_rates_dpc(ch, cov_bc2), r_in, atol=1e-6)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), K=st.integers(1, 3), nr=st.integers(1, 3),
       nt=st.integers(1, 4), exponents=st.lists(st.floats(-8.0, 0.0), min_size=4, max_size=4))
def test_capacity_round_trip_under_ill_conditioned_merge(seed, K, nr, nt, exponents):
    """Both capacity transforms keep the rates, and mac_to_bc_capacity the
    budget, when A is a per-antenna merge whose multipliers reach
    LAMBDA_FLOOR (condition number up to about 1e7, as in the multiplier
    loop); the tolerances scale with the condition number."""
    rng = np.random.default_rng(seed)
    ch = ChannelSet(rand_channels(rng, K, nr, nt), rng.uniform(0.5, 2.0, K),
                    tuple(rng.permutation(K)))
    A, _ = combined_constraint([LinearConstraint.per_antenna(nt, a, 1.0) for a in range(nt)],
                               10.0 ** np.array(exponents[:nt]))
    w = np.linalg.eigvalsh(A)
    tol = 1e-13 * w[-1] / w[0]
    cov_mac = random_mac_cov(rng, K, nr, float(rng.uniform(0.5, 4.0)))
    r_mac = mac_rates(ch, cov_mac, A)
    scale = max(1.0, float(np.sum(r_mac)))
    cov_bc = mac_to_bc_capacity(ch, cov_mac, A)
    assert np.max(np.abs(bc_rates_dpc(ch, cov_bc) - r_mac)) <= tol * scale
    budget = sum(ch.sigma2[i] * np.trace(cov_mac.Q[i]).real for i in range(K))
    assert constraint_value(cov_bc, LinearConstraint(A, budget)) <= budget * (1.0 + tol)
    back = bc_to_mac_capacity(ch, cov_bc, A)
    assert np.max(np.abs(mac_rates(ch, back, A) - r_mac)) <= tol * scale


def test_capacity_transform_rejects_singular_A(rng):
    ch = _random_instance(rng, K=2, nt=2, nr=2)
    cov = random_mac_cov(rng, 2, 2, 1.0)
    with pytest.raises(SingularConstraintMatrix):
        mac_to_bc_capacity(ch, cov, np.diag([1.0, 0.0]))


def test_transform_deterministic(rng):
    ch = _random_instance(rng, K=2, nt=2, nr=2)
    A = rand_pd(rng, 2)
    cov = random_mac_cov(rng, 2, 2, 2.0)
    out1 = mac_to_bc_capacity(ch, cov, A)
    out2 = mac_to_bc_capacity(ch, cov, A)
    for Q1, Q2 in zip(out1.Q, out2.Q):
        assert np.array_equal(Q1, Q2)


def _mac_bf(rng, ch, cov=None):
    if cov is None:
        cov = random_mac_cov(rng, ch.K, ch.nr, 2.0)
    v, q = model.mac_eigenbeams(cov)
    u = [np.tile(np.eye(ch.nt)[0], (vi.shape[0], 1)).astype(complex) for vi in v]
    return BeamformingSolution(u=u, v=v, q=q)


def test_sinr_transform_single_user_identity(rng):
    h = rand_complex(rng, (1, 2))
    ch = ChannelSet([h])
    bf_mac = BeamformingSolution(u=[np.zeros((1, 2))+np.array([1, 0])],
                                 v=[np.ones((1, 1))], q=[[1.7]])
    bf = mac_to_bc_sinr(ch, bf_mac, np.eye(2))
    # conventional duality: same power, MMSE direction is the matched filter
    assert bf.p[0][0] == pytest.approx(1.7, rel=1e-10)
    mf = (h.conj().T @ np.ones(1)).ravel()
    mf /= np.linalg.norm(mf)
    assert abs(abs(np.vdot(mf, bf.u[0][0])) - 1.0) < 1e-10


@pytest.mark.parametrize("A, error", [
    ([[1.0, 0.5], [0.0, 1.0]], InvalidInput),  # not Hermitian
    (np.diag([1.0, 0.0]), SingularConstraintMatrix),
])
def test_sinr_transform_validates_A(A, error):
    ch = ChannelSet([[[1.0, 0.5]]])
    bf_mac = BeamformingSolution(u=[[[1.0, 0.0]]], v=[[[1.0]]], q=[[1.0]])
    with pytest.raises(error):
        mac_to_bc_sinr(ch, bf_mac, A)


def test_sinr_transform_zero_powers(rng):
    ch = _random_instance(rng, K=2, nt=2, nr=2)
    bf_mac = BeamformingSolution(
        u=[np.eye(2)[:1].astype(complex)] * 2,
        v=[np.eye(2)[:1].astype(complex)] * 2,
        q=[[0.0], [0.0]],
    )
    bf = mac_to_bc_sinr(ch, bf_mac, rand_pd(rng, 2))
    assert all(np.allclose(p, 0) for p in bf.p)


def test_sinr_transform_zero_gain_and_zero_target(rng):
    """A stream whose link vanishes raises DegenerateTransform however much
    power it has; a stream with zero uplink power (zero target SINR) gets
    zero downlink power while the other keeps its SINR."""
    h = rand_complex(rng, (1, 3))
    ch = ChannelSet([rand_complex(rng, (2, 3)), np.vstack([h, h])], sigma2=[0.8, 1.2])
    A = rand_pd(rng, 3)
    u, e1 = [np.eye(3)[:1].astype(complex)] * 2, np.eye(2)[:1].astype(complex)
    null = np.array([[1.0, -1.0]], dtype=complex) / np.sqrt(2.0)  # H_1^H null = 0
    with pytest.raises(DegenerateTransform):
        mac_to_bc_sinr(ch, BeamformingSolution(u=u, v=[e1, null], q=[[1.0], [2.0]]), A)
    bf = mac_to_bc_sinr(ch, BeamformingSolution(u=u, v=[e1, e1], q=[[0.0], [2.0]]), A)
    assert bf.p[0][0] == 0.0 and bf.p[1][0] > 0
    assert verify_sinr_transform(ch, bf, A).rate_or_sinr_gap <= 1e-12


def test_sinr_transform_matches_both_sides(rng):
    for _ in range(40):
        K = int(rng.integers(1, 4))
        nt = int(rng.integers(1, 4))
        ch = _random_instance(rng, K=K, nt=nt, nr=1, sigma=True)
        A = rand_pd(rng, nt)
        bf_mac = _mac_bf(rng, ch)
        bf = mac_to_bc_sinr(ch, bf_mac, A)
        rep = verify_sinr_transform(ch, bf, A)
        assert rep.rate_or_sinr_gap <= 1e-8
        assert abs(rep.constraint_slack) <= 1e-8  # weighted power identity


def test_sinr_transform_mimo_streams(rng):
    ch = _random_instance(rng, K=2, nt=3, nr=2, sigma=True)
    A = rand_pd(rng, 3)
    bf = mac_to_bc_sinr(ch, _mac_bf(rng, ch), A)
    rep = verify_sinr_transform(ch, bf, A)
    assert rep.rate_or_sinr_gap <= 1e-8
    assert abs(rep.constraint_slack) <= 1e-8


def test_conventional_duality_reduction(rng):
    """A = I, sigma = 1: transformed rates match the classical identity-noise
    duality evaluated by independent determinant chains."""
    for _ in range(20):
        ch = _random_instance(rng)
        cov_mac = random_mac_cov(rng, ch.K, ch.nr, 2.5)
        cov_bc = mac_to_bc_capacity(ch, cov_mac, np.eye(ch.nt))
        r_mac = ref_mac_rates(ch.H, ch.encoding_order, list(cov_mac.Q),
                              np.eye(ch.nt))
        r_bc = ref_bc_rates(ch.H, ch.sigma2, ch.encoding_order, list(cov_bc.Q))
        assert np.allclose(r_mac, r_bc, atol=1e-9)
        assert sum(np.trace(Q).real for Q in cov_bc.Q) <= \
            sum(np.trace(Q).real for Q in cov_mac.Q) + 1e-8
