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
    mac_rates,
    mac_sinr,
)
from bcmac.errors import InvalidInput, SingularConstraintMatrix
from bcmac import linalg, model
from bcmac.orchestrator import LinearSet, QuadraticBall

from conftest import (
    constraint_value,
    rand_channels,
    rand_complex,
    rand_pd,
    rand_psd,
    random_mac_cov,
    ref_bc_mmse_receivers,
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


def _random_bf(rng, ch):
    u = rand_complex(rng, (ch.K, ch.nt))
    v = rand_complex(rng, (ch.K, ch.nr))
    return BeamformingSolution(u=u / np.linalg.norm(u, axis=1, keepdims=True),
                               v=v / np.linalg.norm(v, axis=1, keepdims=True),
                               p=rng.uniform(0.1, 2.0, ch.K), q=rng.uniform(0.1, 2.0, ch.K))


def _streams(x):
    """A stacked (K, ...) beam array as the per-user stream lists of the
    conftest loop references."""
    return x[:, None]


def test_bc_sinr_single_stream_no_interference(rng):
    ch = ChannelSet([rand_complex(rng, (2, 2))], sigma2=[0.5])
    bf = _random_bf(rng, ch)
    s = bc_sinr(ch, bf)
    expect = bf.p[0] * abs(np.vdot(bf.v[0], ch.H[0] @ bf.u[0])) ** 2 / 0.5
    assert s.shape == (1,) and s[0] == pytest.approx(expect, rel=1e-12)


def test_bc_sinr_orthogonal_streams():
    """Two users on orthogonal antennas interfere with nobody."""
    ch = ChannelSet([np.eye(2)[:1], np.eye(2)[1:]])
    bf = BeamformingSolution(u=np.eye(2), v=np.ones((2, 1)), p=[2.0, 3.0], q=[0.0, 0.0])
    assert np.allclose(bc_sinr(ch, bf), [2.0, 3.0])


def _oracle_cases(rng):
    """K=3 in the permuted encoding order (2, 0, 1), user 2 with zero power
    on both links."""
    ch = ChannelSet(rand_channels(rng, 3, 3, 4), sigma2=[0.7, 1.3, 1.1],
                    encoding_order=[2, 0, 1])
    bf = _random_bf(rng, ch)
    bf.p[2] = bf.q[2] = 0.0
    yield ch, bf


def test_bc_sinr_vs_loop_oracle(rng):
    """bc_sinr returns (K,) in user order, also under a permuted encoding
    order."""
    ch = ChannelSet(rand_channels(rng, 2, 1, 3), sigma2=[0.7, 1.3])
    for ch, bf in [(ch, _random_bf(rng, ch))] + list(_oracle_cases(rng)):
        got = bc_sinr(ch, bf)
        assert got.shape == (ch.K,)
        ref = ref_bc_sinr_dpc(ch.H, ch.sigma2, ch.encoding_order, _streams(bf.u),
                              _streams(bf.v), _streams(bf.p))
        assert sorted(ref) == [(i, 0) for i in range(ch.K)]
        for (i, _), val in ref.items():
            assert got[i] == pytest.approx(val, rel=1e-12)


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
    """mac_sinr returns (K,) in user order, also under a permuted encoding
    order."""
    ch = ChannelSet(rand_channels(rng, 2, 2, 3), sigma2=[1.0, 2.0])
    for ch, bf in [(ch, _random_bf(rng, ch))] + list(_oracle_cases(rng)):
        A = rand_pd(rng, ch.nt)
        got = mac_sinr(ch, bf, A)
        assert got.shape == (ch.K,)
        ref = ref_mac_sinr(ch.H, ch.encoding_order, _streams(bf.u), _streams(bf.v),
                           _streams(bf.q), A)
        assert sorted(ref) == [(i, 0) for i in range(ch.K)]
        for (i, _), val in ref.items():
            assert got[i] == pytest.approx(val, rel=1e-12)


def _sequential_sic(A, links, q):
    """Reference SIC pass: one solve per encoding position against the
    running covariance, SINR q |u^H g|^2 / u^H C u."""
    C, u, sinr = A.astype(complex), [], []
    for g, qs in zip(links, q):
        x = np.linalg.solve(C, g)
        x /= np.linalg.norm(x)
        u.append(x)
        sinr.append(qs * abs(np.vdot(x, g)) ** 2 / np.vdot(x, C @ x).real)
        C = C + qs * np.outer(g, g.conj())
    return np.array(u), np.array(sinr)


@pytest.mark.parametrize("nr", [1, 2, 3])
@pytest.mark.parametrize("K", [2, 3, 5])
def test_batched_uplink_sic_matches_a_sequential_pass(rng, K, nr):
    """The one batched solve over the prefix sums gives the receivers and
    SINRs of a pass that solves position by position, and its SINRs are
    mac_sinr's, on Nt = 3 under a permuted encoding order."""
    order = rng.permutation(K)
    ch = ChannelSet(rand_channels(rng, K, nr, 3), sigma2=rng.uniform(0.5, 2, K),
                    encoding_order=order)
    A, q = rand_pd(rng, 3), rng.uniform(0.1, 2.0, K)  # q in encoding order
    v = rand_complex(rng, (K, nr))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    links = model.stream_links(ch, v)
    u, sinr = model.uplink_sic(A, links, q, AssertionError)
    ref_u, ref_sinr = _sequential_sic(A, links, q)
    assert np.linalg.norm(u - ref_u) <= 1e-12 * np.linalg.norm(ref_u)
    assert sinr == pytest.approx(ref_sinr, rel=1e-12)
    pos = np.argsort(order)
    bf = BeamformingSolution(u=u[pos], v=v, q=q[pos])
    assert mac_sinr(ch, bf, A)[order] == pytest.approx(sinr, rel=1e-12)
    links[1] = 0.0
    with pytest.raises(AssertionError) as exc:
        model.uplink_sic(A, links, q, AssertionError)
    assert exc.value.args == (1,)


def test_constraint_value_cases(rng):
    """``LinearSet.traces`` gives tr((sum_i Q_i) A_l) for every constraint."""
    Q1, Q2 = rand_psd(rng, 2), rand_psd(rng, 2)
    cov = CovarianceSet("bc", [Q1, Q2])
    tot = Q1 + Q2
    h = rand_complex(rng, (2,))
    cons = LinearSet([LinearConstraint(np.eye(2), 1.0),  # sum power
                      LinearConstraint.per_antenna(2, 1, 1.0),
                      LinearConstraint(np.outer(h, h.conj()), 1.0)])  # interference at h
    assert cons.traces(cov) == pytest.approx(
        [np.trace(tot).real, tot[1, 1].real, np.real(h.conj() @ tot @ h)], rel=1e-12)


def test_constraint_value_linear_in_q(rng):
    Q1, Q2 = rand_psd(rng, 2), rand_psd(rng, 2)
    c = LinearSet([LinearConstraint(rand_pd(rng, 2), 1.0)])
    v12 = c.traces(CovarianceSet("bc", [Q1, Q2]))[0]
    v1 = c.traces(CovarianceSet("bc", [Q1, np.zeros((2, 2))]))[0]
    v2 = c.traces(CovarianceSet("bc", [np.zeros((2, 2)), Q2]))[0]
    assert v12 == pytest.approx(v1 + v2, rel=1e-12)
    v_scaled = c.traces(CovarianceSet("bc", [3 * Q1, 3 * Q2]))[0]
    assert v_scaled == pytest.approx(3 * v12, rel=1e-12)


def _inside(cset, cov):
    """Whether ``cov`` meets ``cset``, from the reference trace values."""
    p = np.array([constraint_value(cov, LinearConstraint(A, 1.0)) for A in cset.mats])
    if isinstance(cset, QuadraticBall):
        return np.sum(p ** 2) <= cset.radius_sq
    return np.all(p <= cset.P)


def _diagonal(*d):
    return CovarianceSet.built("bc", np.diag(d)[None].astype(complex))


def _beamformer_case():
    """Two beams at powers (1, 3) under sum power 1 and the first antenna's
    power 1; the repair scales the powers and emits the beamformer's own
    covariance, as SINR balancing does."""
    u = np.array([[1.0, 1.0], [1.0, 3.0]], dtype=complex)
    u /= np.linalg.norm(u, axis=1)[:, None]
    p = np.array([1.0, 3.0])
    emitted = lambda s: BeamformingSolution.built(u, None, s * p).bc_covariances()
    cons = [LinearConstraint(np.eye(2), 1.0), LinearConstraint.per_antenna(2, 0, 1.0)]
    return LinearSet(cons), emitted(1.0), emitted


@pytest.mark.parametrize("cset, cov, emitted", [
    (LinearSet([LinearConstraint(np.eye(3), 5.0), LinearConstraint.per_antenna(3, 1, 5.0)]),
     _diagonal(1.372849829498692, 3.011873244080891, 2.9415685347227503), None),
    (QuadraticBall([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 100.0), _diagonal(4.0, 9.5), None),
    _beamformer_case(),
], ids=["LinearSet", "QuadraticBall", "beamformer"])
def test_feasible_scale_lands_on_the_feasible_side(cset, cov, emitted):
    """The rounded gauge (P / tr(Q) for a sum-power budget, r / |p| for the
    ball) overshoots the set by an ulp; ``room`` steps the factor down until
    the covariance it emits (s * Q by default) meets the set exactly.  The
    beamformer's covariance rounds differently from s * Q: there the gauge
    0.25 + 1 ulp fits s * Q but not the beamformer's covariance at s."""
    factor = cset.room(cov, emitted)
    emitted = emitted or (lambda s: CovarianceSet.built("bc", s * cov.Q))
    plain = cset.gauge(cset.traces(cov))
    assert plain < 1 and not _inside(cset, emitted(plain))
    assert plain - 4 * np.spacing(plain) <= factor < plain
    assert _inside(cset, emitted(factor))


@pytest.mark.parametrize("nr", [1, 3])
def test_bc_mmse_receivers_vs_loop_oracle(rng, nr):
    """The stacked solve gives the loop's receivers: K=3 in order (2, 0, 1),
    a zero-power beam, and a user whose beam its channel nulls (the first
    unit vector stands in)."""
    H = rand_channels(rng, 3, nr, 2)
    H[1][:, 0] = 0.0
    u = [x / np.linalg.norm(x) for x in rand_complex(rng, (3, 2))]
    u[1] = np.array([1.0, 0.0], dtype=complex)
    p, sigma2, order = [0.0, 0.8, 1.3], [1.0, 1.5, 0.7], (2, 0, 1)
    got = bc_mmse_receivers(ChannelSet(H, sigma2=sigma2, encoding_order=order), np.array(u), p)
    want = ref_bc_mmse_receivers(H, sigma2, order, u, p)
    assert got.shape == (3, nr)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert np.array_equal(got[1], np.eye(nr)[0])


def test_rate_sinr_consistency_with_mmse(rng):
    """sum_j log(1 + SINR_ij) with MMSE receivers matches the covariance rate."""
    ch = ChannelSet(rand_channels(rng, 2, 2, 2), sigma2=[1.0, 1.5])
    u = rand_complex(rng, (2, 2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    p = np.array([1.3, 0.8])
    bf = BeamformingSolution(u=u, v=bc_mmse_receivers(ch, u, p), p=p, q=[0.0, 0.0])
    rates_from_sinr = np.log1p(bc_sinr(ch, bf))
    rates = bc_rates_dpc(ch, bf.bc_covariances())
    assert np.allclose(rates_from_sinr, rates, atol=1e-6)


def test_beamforming_validation():
    with pytest.raises(InvalidInput, match="unit norm"):
        BeamformingSolution(u=[[2.0, 0.0]], v=[[1.0]])
    with pytest.raises(InvalidInput, match="nonnegative"):
        BeamformingSolution(u=[[1.0, 0.0]], v=[[1.0]], q=[-1.0])
    # a library-built solution is taken as it comes, unchecked
    u = np.array([[2.0, 0.0]], dtype=complex)
    bf = BeamformingSolution.built(u, np.ones((1, 1), dtype=complex), q=np.array([-1.0]))
    assert bf.u is u and bf.p is None and bf.q[0] == -1.0


@pytest.mark.parametrize("u, v, p, message", [
    (np.eye(2), np.ones((1, 1)), None, "one row per user"),
    (np.eye(2)[None], np.ones((1, 2, 1)), None, "one row per user"),
    (np.eye(2), np.ones((2, 1)), [1.0, 2.0, 3.0], "one power per user"),
    (np.eye(2), np.ones((2, 1)), [[1.0], [2.0]], "one power per user"),
], ids=["row_counts_differ", "three_dimensional", "p_too_long", "p_per_stream_lists"])
def test_beamforming_rejects_stacks_other_than_one_beam_per_user(u, v, p, message):
    with pytest.raises(InvalidInput, match=message):
        BeamformingSolution(u=u, v=v, p=p)


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
