import numpy as np
import pytest

from bcmac import (
    BeamformingSolution,
    ChannelSet,
    CovarianceSet,
    LinearConstraint,
    bc_mmse_receivers,
    bc_rates_dpc,
    bc_sinr,
    constraint_value,
    mac_rates,
    mac_sinr,
)
from bcmac.errors import InvalidInput, SingularConstraintMatrix
from bcmac import linalg, model

from conftest import (
    rand_channels,
    rand_complex,
    rand_pd,
    rand_psd,
    random_mac_cov,
    ref_bc_rates,
    ref_bc_sinr_dpc,
    ref_mac_rates,
    ref_mac_sinr,
)

# channels of the two-user capacity scenario
H1 = np.array([[1.0, 0.0], [0.2, 0.6]])
H2 = np.array([[0.5, 0.0], [0.2, 1.0]])


def test_covariance_set_validates_caller_input():
    with pytest.raises(InvalidInput, match="Hermitian"):
        CovarianceSet("bc", [np.eye(2), [[1.0, 0.5], [0.0, 1.0]]])
    # below -CLAMP_TOL times the block's scale max(1, largest eigenvalue)
    with pytest.raises(InvalidInput, match=r"Q\[0\] has eigenvalue"):
        CovarianceSet("bc", [np.diag([4.0, -5e-9])])
    cov = CovarianceSet("bc", [np.diag([4.0, -1e-12]), np.eye(2)])
    assert np.linalg.eigvalsh(cov.Q[0])[0] == 0.0
    assert cov.Q.shape == (2, 2, 2)
    with pytest.raises(InvalidInput, match="side"):
        CovarianceSet("up", [np.eye(2)])


def test_covariance_set_built_takes_hermitian_part():
    # library-built blocks are not eigen-checked: a roundoff-negative
    # eigenvalue below the clamp tolerance is kept as it is
    X = np.diag([1e6, -0.01]) + np.array([[0.0, 1e-12], [0.0, 0.0]])
    cov = CovarianceSet.built("bc", X[None])
    assert np.array_equal(cov.Q[0], 0.5 * (X + X.conj().T))
    assert np.linalg.eigvalsh(cov.Q[0])[0] < 0


def test_channelset_validation():
    with pytest.raises(InvalidInput):
        ChannelSet([np.ones((2, 2)), np.ones((1, 2))])
    with pytest.raises(InvalidInput):
        ChannelSet([np.ones((2, 2))], sigma2=[-1.0])
    with pytest.raises(InvalidInput):
        ChannelSet([np.ones((2, 2)), np.ones((2, 2))], encoding_order=[0, 0])


def test_scalar_awgn_rate():
    ch = ChannelSet([[[1.0]]], sigma2=[1.0])
    cov = CovarianceSet("bc", [[[3.0]]])
    assert bc_rates_dpc(ch, cov)[0] == pytest.approx(np.log(4.0), abs=1e-14)


def test_zero_power_rates():
    ch = ChannelSet([H1, H2])
    cov = CovarianceSet.zeros("bc", 2, 2)
    assert np.allclose(bc_rates_dpc(ch, cov), 0.0)


def test_bc_rates_vs_determinant_oracle(rng):
    ch = ChannelSet([H1, H2])
    for _ in range(20):
        cov = CovarianceSet("bc", [rand_psd(rng, 2, 2.0) for _ in range(2)])
        ref = ref_bc_rates(ch.H, ch.sigma2, ch.encoding_order, list(cov.Q))
        assert np.allclose(bc_rates_dpc(ch, cov), ref, atol=1e-12)
        assert np.all(bc_rates_dpc(ch, cov) >= -1e-12)


def test_bc_rates_encoding_order(rng):
    ch = ChannelSet([H1, H2], encoding_order=[1, 0])
    cov = CovarianceSet("bc", [rand_psd(rng, 2), rand_psd(rng, 2)])
    ref = ref_bc_rates(ch.H, ch.sigma2, (1, 0), list(cov.Q))
    assert np.allclose(bc_rates_dpc(ch, cov), ref, atol=1e-12)


def test_single_user_capacity_formula(rng):
    for _ in range(20):
        H = rand_complex(rng, (2, 3))
        Q = rand_psd(rng, 3, 1.5)
        ch = ChannelSet([H], sigma2=[0.8])
        got = bc_rates_dpc(ch, CovarianceSet("bc", [Q]))[0]
        want = np.linalg.slogdet(0.8 * np.eye(2) + H @ Q @ H.conj().T)[1] \
            - 2 * np.log(0.8)
        assert got == pytest.approx(float(want.real), abs=1e-10)


def _random_bf(rng, ch, n_streams):
    u, v, p, q = [], [], [], []
    for i in range(ch.K):
        ui = rand_complex(rng, (n_streams, ch.nt))
        vi = rand_complex(rng, (n_streams, ch.nr))
        ui /= np.linalg.norm(ui, axis=1, keepdims=True)
        vi /= np.linalg.norm(vi, axis=1, keepdims=True)
        u.append(ui)
        v.append(vi)
        p.append(rng.uniform(0.1, 2.0, n_streams))
        q.append(rng.uniform(0.1, 2.0, n_streams))
    return BeamformingSolution(u=u, v=v, p=p, q=q)


def test_bc_sinr_single_stream_no_interference(rng):
    ch = ChannelSet([rand_complex(rng, (2, 2))], sigma2=[0.5])
    bf = _random_bf(rng, ch, 1)
    s = bc_sinr(ch, bf, "dpc")[0][0]
    expect = bf.p[0][0] * abs(np.vdot(bf.v[0][0], ch.H[0] @ bf.u[0][0])) ** 2 / 0.5
    assert s == pytest.approx(expect, rel=1e-12)


def test_bc_sinr_orthogonal_streams():
    ch = ChannelSet([np.eye(2)])
    bf = BeamformingSolution(
        u=[np.eye(2)], v=[np.eye(2)], p=[[2.0, 3.0]], q=[[0.0, 0.0]]
    )
    s = bc_sinr(ch, bf, "dpc")[0]
    assert np.allclose(s, [2.0, 3.0])
    s_lin = bc_sinr(ch, bf, "linear")[0]
    assert np.allclose(s_lin, [2.0, 3.0])


def _oracle_cases(rng):
    """K=3 in a permuted order with stream counts (1, 3, 2), then with a user
    that has no streams (as mac_eigenbeams can leave one); the first stream
    of user 2 has zero power on both links."""
    for counts in ([1, 3, 2], [2, 0, 2]):
        ch = ChannelSet(rand_channels(rng, 3, 3, 4), sigma2=[0.7, 1.3, 1.1],
                        encoding_order=[2, 0, 1])
        bf = _random_bf(rng, ch, 3)
        bf = BeamformingSolution(*([x[:n] for x, n in zip(getattr(bf, f), counts)]
                                   for f in "uvpq"))
        bf.p[2][0] = bf.q[2][0] = 0.0
        yield ch, bf


def test_bc_sinr_vs_loop_oracle(rng):
    ch = ChannelSet(rand_channels(rng, 2, 1, 3), sigma2=[0.7, 1.3])
    for ch, bf in [(ch, _random_bf(rng, ch, 1))] + list(_oracle_cases(rng)):
        for scheme in ("dpc", "linear"):
            got = bc_sinr(ch, bf, scheme)
            assert [len(x) for x in got] == bf.streams()
            ref = ref_bc_sinr_dpc(ch.H, ch.sigma2, ch.encoding_order, bf.u, bf.v, bf.p,
                                  linear=scheme == "linear")
            for (i, j), val in ref.items():
                assert got[i][j] == pytest.approx(val, rel=1e-12)


def test_bc_sinr_linear_includes_all_interference(rng):
    ch = ChannelSet(rand_channels(rng, 2, 2, 2))
    bf = _random_bf(rng, ch, 2)
    dpc = bc_sinr(ch, bf, "dpc")
    lin = bc_sinr(ch, bf, "linear")
    # linear scheme sees at least as much interference
    for i in range(2):
        assert np.all(lin[i] <= dpc[i] + 1e-15)


def test_mac_rates_scalar():
    ch = ChannelSet([[[2.0]]])
    cov = CovarianceSet("mac", [[[0.5]]])
    got = mac_rates(ch, cov, [[1.0]])
    assert got[0] == pytest.approx(np.log(1 + 0.5 * 4.0), abs=1e-14)


def test_mac_rates_zero():
    ch = ChannelSet([H1, H2])
    cov = CovarianceSet.zeros("mac", 2, 2)
    assert np.allclose(mac_rates(ch, cov, np.eye(2)), 0.0)


def test_mac_rates_whitened_equivalence(rng):
    ch = ChannelSet(rand_channels(rng, 3, 2, 2))
    cov = random_mac_cov(rng, 3, 2, 3.0)
    A = rand_pd(rng, 2)
    W = linalg.inv_sqrt(A)
    ch_wh = ChannelSet([Hi @ W for Hi in ch.H])
    r1 = mac_rates(ch, cov, A)
    r2 = mac_rates(ch_wh, cov, np.eye(2))
    assert np.allclose(r1, r2, atol=1e-9)


def test_mac_rates_vs_oracle(rng):
    ch = ChannelSet(rand_channels(rng, 3, 2, 2), encoding_order=[2, 0, 1])
    cov = random_mac_cov(rng, 3, 2, 2.0)
    A = rand_pd(rng, 2)
    ref = ref_mac_rates(ch.H, ch.encoding_order, list(cov.Q), A)
    assert np.allclose(mac_rates(ch, cov, A), ref, atol=1e-12)


def test_mac_rates_rejects_singular_noise(rng):
    ch = ChannelSet(rand_channels(rng, 2, 2, 2))
    cov = random_mac_cov(rng, 2, 2, 1.0)
    with pytest.raises(SingularConstraintMatrix):
        mac_rates(ch, cov, np.diag([1.0, 0.0]))


def test_mac_sinr_vs_loop_oracle(rng):
    ch = ChannelSet(rand_channels(rng, 2, 2, 3), sigma2=[1.0, 2.0])
    for ch, bf in [(ch, _random_bf(rng, ch, 2))] + list(_oracle_cases(rng)):
        A = rand_pd(rng, ch.nt)
        got = mac_sinr(ch, bf, A)
        assert [len(x) for x in got] == bf.streams()
        ref = ref_mac_sinr(ch.H, ch.encoding_order, bf.u, bf.v, bf.q, A)
        for (i, j), val in ref.items():
            assert got[i][j] == pytest.approx(val, rel=1e-12)


def test_constraint_value_cases(rng):
    Q1, Q2 = rand_psd(rng, 2), rand_psd(rng, 2)
    cov = CovarianceSet("bc", [Q1, Q2])
    tot = Q1 + Q2
    # sum power
    assert constraint_value(cov, LinearConstraint(np.eye(2), 1.0)) == \
        pytest.approx(float(np.trace(tot).real), rel=1e-12)
    # per-antenna
    c = LinearConstraint.per_antenna(2, 1, 1.0)
    assert constraint_value(cov, c) == pytest.approx(float(tot[1, 1].real), rel=1e-12)
    # point-receiver interference power: A = h h^H
    h = rand_complex(rng, (2,))
    c = LinearConstraint(np.outer(h, h.conj()), 1.0)
    assert constraint_value(cov, c) == pytest.approx(
        float(np.real(h.conj() @ tot @ h)), rel=1e-12)


def test_constraint_value_linear_in_q(rng):
    Q1, Q2 = rand_psd(rng, 2), rand_psd(rng, 2)
    c = LinearConstraint(rand_pd(rng, 2), 1.0)
    v12 = constraint_value(CovarianceSet("bc", [Q1, Q2]), c)
    v1 = constraint_value(CovarianceSet("bc", [Q1, np.zeros((2, 2))]), c)
    v2 = constraint_value(CovarianceSet("bc", [np.zeros((2, 2)), Q2]), c)
    assert v12 == pytest.approx(v1 + v2, rel=1e-12)
    v_scaled = constraint_value(CovarianceSet("bc", [3 * Q1, 3 * Q2]), c)
    assert v_scaled == pytest.approx(3 * v12, rel=1e-12)


def test_rate_sinr_consistency_with_mmse(rng):
    """sum_j log(1 + SINR_ij) with MMSE receivers matches the covariance rate."""
    ch = ChannelSet(rand_channels(rng, 2, 2, 2), sigma2=[1.0, 1.5])
    u = [rand_complex(rng, (2,)) for _ in range(2)]
    u = [x / np.linalg.norm(x) for x in u]
    p = [1.3, 0.8]
    v = bc_mmse_receivers(ch, u, p)
    bf = BeamformingSolution(
        u=[u[0].reshape(1, -1), u[1].reshape(1, -1)],
        v=[v[0].reshape(1, -1), v[1].reshape(1, -1)],
        p=[[p[0]], [p[1]]],
        q=[[0.0], [0.0]],
    )
    s = bc_sinr(ch, bf, "dpc")
    rates_from_sinr = np.array([np.sum(np.log1p(s[i])) for i in range(2)])
    cov = bf.bc_covariances()
    rates = bc_rates_dpc(ch, cov)
    assert np.allclose(rates_from_sinr, rates, atol=1e-6)


def test_mac_eigenbeams_drops_zero_streams(rng):
    Q = np.outer([1.0, 0.0], [1.0, 0.0])
    cov = CovarianceSet("mac", [Q])
    v, q = model.mac_eigenbeams(cov)
    assert q[0].shape == (1,)
    assert abs(abs(v[0][0, 0]) - 1.0) < 1e-12


def test_beamforming_validation():
    with pytest.raises(InvalidInput, match="unit norm"):
        BeamformingSolution(u=[np.array([[2.0, 0.0]])], v=[np.array([[1.0]])])
    with pytest.raises(InvalidInput, match="nonnegative"):
        BeamformingSolution(u=[[[1.0, 0.0]]], v=[[[1.0]]], q=[[-1.0]])
    # a library-built solution is taken as it comes, unchecked
    u = [np.array([[2.0, 0.0]], dtype=complex)]
    bf = BeamformingSolution.built(u, [np.ones((1, 1), dtype=complex)], q=[np.array([-1.0])])
    assert bf.u is u and bf.p is None and bf.q[0][0] == -1.0


def test_array_holding_values_compare_and_hash_by_identity():
    """Dataclasses holding arrays compare by identity: the generated
    field-by-field ``==`` raised on the arrays' elementwise result, and the
    generated ``hash`` on the arrays themselves."""
    from bcmac.orchestrator import DualWeights

    for make in (lambda: model.CovarianceSet("bc", [np.eye(2)]),
                 lambda: model.ChannelSet([np.eye(2)]),
                 lambda: model.LinearConstraint(np.eye(2), 1.0),
                 lambda: model.SinrTargets([1.0, 2.0]),
                 lambda: DualWeights([0.3, 0.7])):
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, a, b}) == 2
