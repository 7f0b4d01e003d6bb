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
    mac_rates,
    mac_to_bc_capacity,
    mac_to_bc_sinr,
)
from bcmac import model
from bcmac.errors import DegenerateTransform, InvalidInput, SingularConstraintMatrix
from bcmac.orchestrator import DualWeights, LinearSet

from conftest import (
    constraint_value,
    rand_channels,
    rand_complex,
    rand_pd,
    rand_psd,
    random_mac_cov,
    ref_bc_rates,
    ref_mac_rates,
    verify_capacity_transform,
    verify_sinr_transform,
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


def test_capacity_transforms_at_eight_users(rng):
    """Both capacity transforms at K = 8, random encoding order and noise
    powers, against the determinant references: mac_to_bc keeps the rates and
    (Nr <= Nt) spends the budget exactly; bc_to_mac keeps the rates both ways."""
    for _ in range(5):
        ch = _random_instance(rng, K=8, nt=4, nr=2, sigma=True)
        A = rand_pd(rng, ch.nt)

        def uplink_rates(cov):
            return ref_mac_rates([Hi / np.sqrt(s) for Hi, s in zip(ch.H, ch.sigma2)],
                                 ch.encoding_order,
                                 [ch.sigma2[i] * cov.Q[i] for i in range(ch.K)], A)

        cov_mac = random_mac_cov(rng, ch.K, ch.nr, float(rng.uniform(0.5, 4.0)))
        r_mac = uplink_rates(cov_mac)
        cov_bc = mac_to_bc_capacity(ch, cov_mac, A)
        r_bc = ref_bc_rates(ch.H, ch.sigma2, ch.encoding_order, list(cov_bc.Q))
        np.testing.assert_allclose(r_bc, r_mac, rtol=0, atol=1e-9)
        np.testing.assert_allclose(bc_rates_dpc(ch, cov_bc), r_bc, rtol=0, atol=1e-12)
        budget = sum(ch.sigma2[i] * np.trace(cov_mac.Q[i]).real for i in range(ch.K))
        assert constraint_value(cov_bc, LinearConstraint(A, budget)) == pytest.approx(
            budget, rel=1e-9)

        cov_bc_in = CovarianceSet(
            "bc", [rand_psd(rng, ch.nt, float(rng.uniform(0.1, 1))) for _ in range(ch.K)])
        r_in = ref_bc_rates(ch.H, ch.sigma2, ch.encoding_order, list(cov_bc_in.Q))
        back = bc_to_mac_capacity(ch, cov_bc_in, A)
        np.testing.assert_allclose(uplink_rates(back), r_in, rtol=0, atol=1e-9)
        np.testing.assert_allclose(bc_rates_dpc(ch, mac_to_bc_capacity(ch, back, A)), r_in,
                                   rtol=0, atol=1e-8)


def test_capacity_transform_factorizes_nt_sized_matrices_up_front(rng, monkeypatch):
    """mac_to_bc_capacity makes its Cholesky, solve, QR, SVD and inverse calls
    on Nt-row operands as batched calls before its loop over encoding
    positions, so their number is the same at K = 2 and K = 8 (Nt = 16,
    Nr = 2); the loop itself factorizes Nr x Nr matrices only, and none for
    the last position, which sees no downlink interference."""
    nr, nt = 2, 16
    counts = {}
    for K in (2, 8):
        ch = ChannelSet(rand_channels(rng, K, nr, nt), rng.uniform(0.5, 2.0, K),
                        tuple(rng.permutation(K)))
        A = rand_pd(rng, nt)
        cov_mac = random_mac_cov(rng, K, nr, 4.0)
        whitened = model.whitened_channels(ch, A)
        calls = counts[K] = {"nt": 0, "nr": 0}

        def spy(fn):
            def counted(M, *args, **kwargs):
                calls["nt" if np.shape(M)[-2] == nt else "nr"] += 1
                return fn(M, *args, **kwargs)
            return counted

        with monkeypatch.context() as m:
            for name in ("cholesky", "solve", "qr", "svd", "inv"):
                m.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
            cov_bc = mac_to_bc_capacity(ch, cov_mac, A, whitened)
        r_mac = ref_mac_rates([Hi / np.sqrt(s) for Hi, s in zip(ch.H, ch.sigma2)],
                              ch.encoding_order,
                              [ch.sigma2[i] * cov_mac.Q[i] for i in range(K)], A)
        r_bc = ref_bc_rates(ch.H, ch.sigma2, ch.encoding_order, list(cov_bc.Q))
        np.testing.assert_allclose(r_bc, r_mac, rtol=0, atol=1e-9)
    assert counts[2]["nt"] == counts[8]["nt"] > 0
    # a Cholesky factor, a solve and an SVD at every position but the last
    assert [counts[K]["nr"] for K in (2, 8)] == [3, 21]


def test_capacity_transform_at_ladder_size(rng):
    """mac_to_bc_capacity at the benchmark ladder's largest size, K = 32,
    Nr = 2, Nt = 32, with a random encoding order and noise powers, keeps
    every user's rate and (Nr <= Nt) spends the budget exactly."""
    K, nr, nt = 32, 2, 32
    ch = ChannelSet(rand_channels(rng, K, nr, nt), rng.uniform(0.5, 2.0, K),
                    tuple(rng.permutation(K)))
    A = np.eye(nt)
    cov_mac = random_mac_cov(rng, K, nr, 10.0)
    cov_bc = mac_to_bc_capacity(ch, cov_mac, A)
    r_mac = ref_mac_rates([Hi / np.sqrt(s) for Hi, s in zip(ch.H, ch.sigma2)],
                          ch.encoding_order, [ch.sigma2[i] * cov_mac.Q[i] for i in range(K)], A)
    r_bc = ref_bc_rates(ch.H, ch.sigma2, ch.encoding_order, list(cov_bc.Q))
    np.testing.assert_allclose(r_bc, r_mac, rtol=0, atol=1e-9)
    budget = sum(ch.sigma2[i] * np.trace(cov_mac.Q[i]).real for i in range(K))
    assert constraint_value(cov_bc, LinearConstraint(A, budget)) == pytest.approx(
        budget, rel=1e-12)


def test_capacity_transform_at_scale_near_a_simplex_vertex(rng, monkeypatch):
    """mac_to_bc_capacity at K = 6, Nr = 2, Nt = 16 under a merged A whose
    multiplier sits at LAMBDA_FLOOR (condition number about 1e7) keeps the
    rates to 1e-10 relative and the budget, and, given the whitened channels,
    eigendecomposes nothing."""
    K, nr, nt = 6, 2, 16
    ch = ChannelSet(rand_channels(rng, K, nr, nt), rng.uniform(0.5, 2.0, K),
                    tuple(rng.permutation(K)))
    all_but_first = LinearConstraint(np.diag(np.r_[0.0, np.ones(nt - 1)]), 1.0)
    A, _ = LinearSet([LinearConstraint.sum_power(nt, 1.0), all_but_first]).merged(
        DualWeights([0.0, 1.0]))
    w = np.linalg.eigvalsh(A)
    assert w[-1] / w[0] > 5e6
    whitened = model.whitened_channels(ch, A)
    eigh, shapes = np.linalg.eigh, []

    def spy(M, *args, **kwargs):
        shapes.append(np.shape(M)[-2:])
        return eigh(M, *args, **kwargs)

    for _ in range(3):
        cov_mac = random_mac_cov(rng, K, nr, float(rng.uniform(0.5, 4.0)))
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", spy)
            cov_bc = mac_to_bc_capacity(ch, cov_mac, A, whitened)
        r_mac = ref_mac_rates([Hi / np.sqrt(s) for Hi, s in zip(ch.H, ch.sigma2)],
                              ch.encoding_order,
                              [ch.sigma2[i] * cov_mac.Q[i] for i in range(K)], A)
        r_bc = ref_bc_rates(ch.H, ch.sigma2, ch.encoding_order, list(cov_bc.Q))
        np.testing.assert_allclose(r_bc, r_mac, rtol=1e-10, atol=0)
        budget = sum(ch.sigma2[i] * np.trace(cov_mac.Q[i]).real for i in range(K))
        assert constraint_value(cov_bc, LinearConstraint(A, budget)) <= budget * (1 + 1e-12)
    assert not shapes


def test_capacity_transforms_at_high_snr_with_more_receive_antennas(rng, monkeypatch):
    """With Nr = 2 > Nt = 1 and a high SNR, a user's downlink-side
    interference I + Hhat later Hhat^H has eigenvalues 1 and past 1e8.  That
    matrix is positive definite by construction, so both capacity transforms
    factorize it without a conditioning gate.  Against references that take
    the downlink determinants on the Nt side, they keep the rates to 1e-13
    nats (at most 3.6e-15 over 200 draws of this instance family)."""
    K, nr, nt = 3, 2, 1
    ch = ChannelSet(rand_channels(rng, K, nr, nt), None, tuple(rng.permutation(K)))
    A = np.eye(nt)
    cholesky, conds = np.linalg.cholesky, []

    def spy(M, *args, **kwargs):
        w = np.linalg.eigvalsh(M)
        conds.append(w[-1] / w[0])
        return cholesky(M, *args, **kwargs)

    cov_mac = random_mac_cov(rng, K, nr, 3e8)
    cov_bc_in = CovarianceSet("bc", [rand_psd(rng, nt, 1e8) for _ in range(K)])
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "cholesky", spy)
        cov_bc = mac_to_bc_capacity(ch, cov_mac, A)
        back = bc_to_mac_capacity(ch, cov_bc_in, A)
    assert max(conds) > 1e8
    np.testing.assert_allclose(
        ref_bc_rates(ch.H, ch.sigma2, ch.encoding_order, list(cov_bc.Q)),
        ref_mac_rates(ch.H, ch.encoding_order, list(cov_mac.Q), A), rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        ref_mac_rates(ch.H, ch.encoding_order, list(back.Q), A),
        ref_bc_rates(ch.H, ch.sigma2, ch.encoding_order, list(cov_bc_in.Q)), rtol=0, atol=1e-13)


def test_bc_to_mac_capacity_eigendecomposes_only_A(rng, monkeypatch):
    """At K = 6, bc_to_mac_capacity makes one eigh call, the whitening of A:
    every user's interference on either side enters through a Cholesky
    factor."""
    ch = _random_instance(rng, K=6, nt=4, nr=2, sigma=True)
    A = rand_pd(rng, ch.nt)
    cov_bc = CovarianceSet("bc", [rand_psd(rng, ch.nt, 1.0) for _ in range(ch.K)])
    eigh, shapes = np.linalg.eigh, []

    def spy(M, *args, **kwargs):
        shapes.append(np.shape(M))
        return eigh(M, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", spy)
        back = bc_to_mac_capacity(ch, cov_bc, A)
    assert shapes == [(ch.nt, ch.nt)]
    np.testing.assert_allclose(mac_rates(ch, back, A), bc_rates_dpc(ch, cov_bc),
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("transform, side", [(mac_to_bc_capacity, "mac"),
                                             (bc_to_mac_capacity, "bc")])
def test_capacity_transforms_reject_blocks_of_the_other_side(rng, transform, side):
    """Uplink blocks sized Nt x Nt, or downlink blocks sized Nr x Nr, raise
    the InvalidInput of the rate functions, not a matmul error."""
    ch = _random_instance(rng, K=2, nt=3, nr=2)
    n = ch.nt if side == "mac" else ch.nr
    cov = CovarianceSet(side, [rand_psd(rng, n) for _ in range(ch.K)])
    with pytest.raises(InvalidInput, match="covariance dimensions do not match"):
        transform(ch, cov, rand_pd(rng, ch.nt))


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
    A, _ = LinearSet([LinearConstraint.per_antenna(nt, a, 1.0) for a in range(nt)]).merged(
        DualWeights(10.0 ** np.array(exponents[:nt])))
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


@pytest.mark.parametrize("transform, side", [(mac_to_bc_capacity, "mac"),
                                             (bc_to_mac_capacity, "bc")],
                         ids=["mac_to_bc", "bc_to_mac"])
@pytest.mark.parametrize("A", [[[1.0, 0.5], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]],
                         ids=["not_hermitian", "nan"])
def test_capacity_transforms_validate_A(rng, transform, side, A):
    """A non-Hermitian or non-finite A is invalid input: the transforms do
    not take its Hermitian part, nor let numpy fail on it."""
    ch = _random_instance(rng, K=2, nt=2, nr=2)
    cov = CovarianceSet(side, random_mac_cov(rng, 2, 2, 1.0).Q)
    with pytest.raises(InvalidInput):
        transform(ch, cov, A)


def test_transform_deterministic(rng):
    ch = _random_instance(rng, K=2, nt=2, nr=2)
    A = rand_pd(rng, 2)
    cov = random_mac_cov(rng, 2, 2, 2.0)
    out1 = mac_to_bc_capacity(ch, cov, A)
    out2 = mac_to_bc_capacity(ch, cov, A)
    for Q1, Q2 in zip(out1.Q, out2.Q):
        assert np.array_equal(Q1, Q2)


def _mac_bf(rng, ch):
    """Uplink solution with random unit user-side vectors and powers; the
    base-station vectors are placeholders the transform replaces."""
    v = rand_complex(rng, (ch.K, ch.nr))
    return BeamformingSolution(u=np.tile(np.eye(ch.nt)[0], (ch.K, 1)),
                               v=v / np.linalg.norm(v, axis=1, keepdims=True),
                               q=rng.uniform(0.1, 2.0, ch.K))


def test_sinr_transform_single_user_identity(rng):
    h = rand_complex(rng, (1, 2))
    ch = ChannelSet([h])
    bf_mac = BeamformingSolution(u=[[1.0, 0.0]], v=[[1.0]], q=[1.7])
    bf = mac_to_bc_sinr(ch, bf_mac, np.eye(2))
    # conventional duality: same power, MMSE direction is the matched filter
    assert bf.p[0] == pytest.approx(1.7, rel=1e-10)
    mf = (h.conj().T @ np.ones(1)).ravel()
    mf /= np.linalg.norm(mf)
    assert abs(abs(np.vdot(mf, bf.u[0])) - 1.0) < 1e-10


@pytest.mark.parametrize("A, q, error, match", [
    ([[1.0, 0.5], [0.0, 1.0]], [1.0], InvalidInput, None),  # not Hermitian
    (np.diag([1.0, 0.0]), [1.0], SingularConstraintMatrix, None),
    (np.eye(2), None, InvalidInput, "uplink powers required"),
], ids=["A0-InvalidInput", "A1-SingularConstraintMatrix", "no_uplink_powers"])
def test_sinr_transform_validates_A(A, q, error, match):
    ch = ChannelSet([[[1.0, 0.5]]])
    bf_mac = BeamformingSolution(u=[[1.0, 0.0]], v=[[1.0]], q=q)
    with pytest.raises(error, match=match):
        mac_to_bc_sinr(ch, bf_mac, A)


def test_sinr_transform_zero_powers(rng):
    ch = _random_instance(rng, K=2, nt=2, nr=2)
    e1 = np.tile(np.eye(2)[0], (2, 1))
    bf_mac = BeamformingSolution(u=e1, v=e1, q=[0.0, 0.0])
    bf = mac_to_bc_sinr(ch, bf_mac, rand_pd(rng, 2))
    assert np.allclose(bf.p, 0)


def test_sinr_transform_zero_gain_and_zero_target(rng):
    """A user whose link vanishes raises DegenerateTransform however much
    power it has; a user with zero uplink power (zero target SINR) gets
    zero downlink power while the other keeps its SINR."""
    h = rand_complex(rng, (1, 3))
    ch = ChannelSet([rand_complex(rng, (2, 3)), np.vstack([h, h])], sigma2=[0.8, 1.2])
    A = rand_pd(rng, 3)
    u, e1 = np.tile(np.eye(3)[0], (2, 1)), np.eye(2)[0]
    null = np.array([1.0, -1.0]) / np.sqrt(2.0)  # H_1^H null = 0
    with pytest.raises(DegenerateTransform, match="user 1"):
        mac_to_bc_sinr(ch, BeamformingSolution(u=u, v=[e1, null], q=[1.0, 2.0]), A)
    bf = mac_to_bc_sinr(ch, BeamformingSolution(u=u, v=[e1, e1], q=[0.0, 2.0]), A)
    assert bf.p[0] == 0.0 and bf.p[1] > 0
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
    """One beam per two-antenna user, in a permuted encoding order: SINRs
    and the weighted power carry over."""
    ch = _random_instance(rng, K=3, nt=3, nr=2, sigma=True).with_order([2, 0, 1])
    A = rand_pd(rng, 3)
    bf = mac_to_bc_sinr(ch, _mac_bf(rng, ch), A)
    assert bf.u.shape == (3, 3) and bf.v.shape == (3, 2) and bf.p.shape == (3,)
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
