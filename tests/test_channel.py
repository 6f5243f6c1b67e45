"""Modulation, channel noise statistics, LLR demodulation, subchannel classes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from rcpolar.channel import (
    BPSK,
    LLR_INF,
    QAM16,
    QAM64,
    ChannelSpec,
    ModulationSpec,
    _log_sum_exp,
    _pam_bit_llrs,
    demodulate,
    modulate,
    pam_demap_table,
    transmit,
)


def lattice_norm(mod):
    """sqrt of the mean energy of the odd-integer M-QAM lattice, 2(M-1)/3."""
    return math.sqrt(2.0 * (mod.order - 1) / 3.0)


class TestModulate:
    def test_bpsk_signs(self):
        s = modulate(np.array([0, 1]), BPSK)
        assert s.dtype == np.float64
        assert np.array_equal(s, [1.0, -1.0])

    def test_qam16_all_zero_corner(self):
        s = modulate(np.zeros(4, dtype=np.uint8), QAM16)
        assert s[0] == pytest.approx((-3 - 3j) / np.sqrt(10))

    @pytest.mark.parametrize("mod", [BPSK, QAM16, QAM64])
    def test_reads_constellation_by_label(self, mod):
        # the bits of labels 0, 1, ..., order-1, each read MSB first
        B = mod.bits_per_symbol
        labels = np.arange(mod.order)
        bits = ((labels[:, None] >> np.arange(B - 1, -1, -1)) & 1).astype(np.uint8)
        s = modulate(bits.reshape(-1), mod)
        assert np.array_equal(s.astype(complex).view(np.int64),
                              mod.constellation().view(np.int64))

    @pytest.mark.parametrize("mod,norm", [(QAM16, 10.0), (QAM64, 42.0)])
    def test_unit_average_energy(self, mod, norm):
        pts = mod.constellation()
        assert len(pts) == mod.order
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-12)
        # scaled by sqrt(norm), the points are the odd-integer square lattice
        side = int(np.sqrt(mod.order))
        lattice = pts * np.sqrt(norm)
        assert np.allclose(lattice, np.round(lattice.real) + 1j * np.round(lattice.imag),
                           atol=1e-12)
        assert set(np.round(lattice.real)) == set(np.round(lattice.imag)) \
            == set(range(1 - side, side, 2))

    @pytest.mark.parametrize("mod", [QAM16, QAM64])
    def test_gray_adjacency(self, mod):
        # nearest neighbours on the square lattice differ in exactly one bit
        pts = mod.constellation()
        spacing = 2.0 / lattice_norm(mod)
        for a in range(mod.order):
            for b in range(a + 1, mod.order):
                if abs(abs(pts[a] - pts[b]) - spacing) < 1e-9:
                    assert bin(a ^ b).count("1") == 1

    def test_labeling_bijective(self):
        for mod in (QAM16, QAM64):
            pts = np.round(mod.constellation() * lattice_norm(mod)).astype(complex)
            assert len(set(pts.tolist())) == mod.order

    def test_indivisible_length(self):
        with pytest.raises(ValueError):
            modulate(np.zeros(6, dtype=np.uint8), QAM16)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            ModulationSpec(8)


class TestTransmit:
    def test_near_noiseless(self):
        chan = ChannelSpec(kind="awgn", snr_db=200.0)
        rng = np.random.default_rng(0)
        s = modulate(np.array([0, 1, 1, 0]), BPSK)
        y, amp = transmit(s, chan, BPSK, rng)
        assert np.allclose(y, s, atol=1e-8)
        assert np.all(amp == 1.0)

    def test_reproducible(self):
        chan = ChannelSpec(kind="awgn", snr_db=0.0)
        s = np.ones(16)
        y1, _ = transmit(s, chan, BPSK, np.random.default_rng(33))
        y2, _ = transmit(s, chan, BPSK, np.random.default_rng(33))
        assert np.array_equal(y1, y2)

    @pytest.mark.parametrize("mod", [BPSK, QAM16, QAM64])
    def test_awgn_equals_unit_amplitude_multiply(self, mod):
        # AWGN skips the multiply by its all-ones amplitude; the bits, the
        # amplitude and the draws stay those of ones * symbols + noise
        chan = ChannelSpec(kind="awgn", snr_db=4.0)
        s = modulate(np.random.default_rng(2).integers(0, 2, size=(3, 24), dtype=np.uint8), mod)
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        y, amp = transmit(s, chan, mod, rng)
        sigma = math.sqrt(chan.noise_sigma2(mod))
        if mod.is_qam:
            ones = np.ones(s.shape, dtype=complex)
            noise = ref.standard_normal(s.shape + (2,))
            want = ones * s + sigma * (noise[..., 0] + 1j * noise[..., 1])
        else:
            ones = np.ones(s.shape)
            want = ones * s + sigma * ref.standard_normal(s.shape)
        assert np.array_equal(y.view(np.int64), want.view(np.int64))
        assert amp.dtype == ones.dtype and np.array_equal(amp, ones)
        assert rng.random() == ref.random()

    def test_noise_variance(self):
        chan = ChannelSpec(kind="awgn", snr_db=3.0)
        sigma2 = chan.noise_sigma2(BPSK)
        rng = np.random.default_rng(1)
        y, _ = transmit(np.zeros(1_000_000), chan, BPSK, rng)
        assert np.var(y) == pytest.approx(sigma2, rel=0.01)

    def test_qam_noise_variance_per_dim(self):
        chan = ChannelSpec(kind="awgn", snr_db=7.0)
        sigma2 = chan.noise_sigma2(QAM16)
        assert sigma2 == pytest.approx(10 ** -0.7 / 2.0)
        rng = np.random.default_rng(2)
        y, _ = transmit(np.zeros(500_000, dtype=complex), chan, QAM16, rng)
        assert np.var(y.real) == pytest.approx(sigma2, rel=0.01)
        assert np.var(y.imag) == pytest.approx(sigma2, rel=0.01)

    def test_fading_unit_power(self):
        chan = ChannelSpec(kind="fading", snr_db=100.0)
        rng = np.random.default_rng(3)
        y, coef = transmit(np.ones(200_000, dtype=complex), chan, QAM16, rng)
        assert np.mean(np.abs(coef) ** 2) == pytest.approx(1.0, rel=0.02)
        rngb = np.random.default_rng(4)
        yb, amp = transmit(np.ones(200_000), chan, BPSK, rngb)
        assert np.all(amp >= 0)
        assert np.mean(amp**2) == pytest.approx(1.0, rel=0.02)

    def test_bec_erasures(self):
        chan = ChannelSpec(kind="bec", epsilon=0.4)
        rng = np.random.default_rng(5)
        s = modulate(np.zeros(100_000, dtype=np.uint8), BPSK)
        y, _ = transmit(s, chan, BPSK, rng)
        rate = np.mean(y == 0.0)
        assert rate == pytest.approx(0.4, abs=0.01)


class TestDemodulate:
    def test_bpsk_zero(self):
        chan = ChannelSpec(kind="awgn", snr_db=0.0)
        assert demodulate(np.array([0.0]), np.array([1.0]), chan, BPSK)[0] == 0.0

    def test_bpsk_formula(self):
        chan = ChannelSpec(kind="awgn", snr_db=0.0)  # sigma^2 = 1
        got = demodulate(np.array([1.0]), np.array([1.0]), chan, BPSK)
        assert got[0] == pytest.approx(2.0)

    def test_bpsk_llr_moments(self):
        # all-zero word: LLR mean 2/sigma^2 and variance 4/sigma^2, within 2%
        chan = ChannelSpec(kind="awgn", snr_db=2.0)
        sigma2 = chan.noise_sigma2(BPSK)
        rng = np.random.default_rng(6)
        s = modulate(np.zeros(1_000_000, dtype=np.uint8), BPSK)
        y, amp = transmit(s, chan, BPSK, rng)
        llr = demodulate(y, amp, chan, BPSK)
        assert np.mean(llr) == pytest.approx(2.0 / sigma2, rel=0.02)
        assert np.var(llr) == pytest.approx(4.0 / sigma2, rel=0.02)
        # Gaussian consistency: variance = 2 * mean within 5%
        assert np.var(llr) == pytest.approx(2.0 * np.mean(llr), rel=0.05)

    def test_sign_correctness_high_snr(self):
        chan = ChannelSpec(kind="awgn", snr_db=20.0)  # sigma^2 = 0.01
        rng = np.random.default_rng(7)
        s = modulate(np.zeros(100_000, dtype=np.uint8), BPSK)
        y, amp = transmit(s, chan, BPSK, rng)
        llr = demodulate(y, amp, chan, BPSK)
        assert np.mean(llr > 0) >= 0.999

    def test_bec_llr_alphabet(self):
        chan = ChannelSpec(kind="bec", epsilon=0.5)
        rng = np.random.default_rng(8)
        s = modulate(np.zeros(10_000, dtype=np.uint8), BPSK)
        y, amp = transmit(s, chan, BPSK, rng)
        llr = demodulate(y, amp, chan, BPSK)
        assert set(np.unique(llr)) <= {0.0, LLR_INF}

    def test_qam16_class_reliability_split(self):
        # strong pair carries larger average LLR magnitude than the weak pair
        chan = ChannelSpec(kind="awgn", snr_db=10.0)
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, size=200_000 * 4, dtype=np.uint8)
        s = modulate(bits, QAM16)
        y, amp = transmit(s, chan, QAM16, rng)
        llr = np.abs(demodulate(y, amp, chan, QAM16)).reshape(-1, 4)
        strong = llr[:, :2].mean()
        weak = llr[:, 2:].mean()
        assert strong > weak

    def test_qam_sign_tracks_bits(self):
        chan = ChannelSpec(kind="awgn", snr_db=25.0)
        rng = np.random.default_rng(10)
        bits = rng.integers(0, 2, size=4096 * 6, dtype=np.uint8)
        s = modulate(bits, QAM64)
        y, amp = transmit(s, chan, QAM64, rng)
        llr = demodulate(y, amp, chan, QAM64)
        assert np.mean((llr < 0) == bits) > 0.999

    def test_fading_coherent(self):
        chan = ChannelSpec(kind="fading", snr_db=25.0)
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, size=4096 * 4, dtype=np.uint8)
        s = modulate(bits, QAM16)
        y, coef = transmit(s, chan, QAM16, rng)
        llr = demodulate(y, coef, chan, QAM16)
        assert np.mean((llr < 0) == bits) > 0.99


def reference_pam_bit_llrs(z, amp, sigma2, m):
    """Per-bit LLRs from a masked (..., 2^m) metric array and scipy's logsumexp.

    Level l has amplitude 2l - (L-1), scaled to unit two-dimensional energy,
    and Gray label l ^ (l >> 1).
    """
    lvl = np.arange(1 << m)
    raw = 2.0 * lvl - ((1 << m) - 1)
    lv = raw / math.sqrt(2.0 * float(np.mean(raw**2)))
    gray_of_level = lvl ^ (lvl >> 1)
    metric = -((z[..., None] - amp[..., None] * lv[None, :]) ** 2) / (2.0 * sigma2)
    out = np.empty(z.shape + (m,))
    for b in range(m):
        bit = (gray_of_level >> (m - 1 - b)) & 1
        m0 = np.where(bit == 0, metric, -np.inf)
        m1 = np.where(bit == 1, metric, -np.inf)
        out[..., b] = logsumexp(m0, axis=-1) - logsumexp(m1, axis=-1)
    return out


@st.composite
def demap_inputs(draw):
    """(z, amp, sigma2, m) with 0-2 leading dimensions, amplitudes
    that are 0 (every level ties), 1 or drawn, and z either free in
    [-1e3, 1e3] or amp times a decision midpoint (0 included)."""
    m = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    lv = pam_demap_table(m)[0]
    mids = [0.0, *((lv[1:] + lv[:-1]) / 2)]
    amp = draw(arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from([0.0, 1.0]), st.floats(1e-3, 3.0))))
    on_mid = draw(arrays(np.bool_, shape))
    mid = draw(arrays(np.float64, shape, elements=st.sampled_from(mids)))
    free = draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    sigma2 = 10.0 ** draw(st.floats(-7.0, math.log10(3.0)))
    return np.where(on_mid, amp * mid, free), amp, sigma2, m


class TestPamBitLlrs:
    """The demapper against scipy's logsumexp on a masked metric array,
    compared through an int64 view so that the sign of zero counts too."""

    @settings(max_examples=300, deadline=None)
    @given(demap_inputs())
    # z = 0 at amp 1 ties the two inner levels of 64-QAM inside one label set
    # that has two more members, so the tie count scales the remaining sum
    @example((np.zeros(3), np.ones(3), 1.0, 3))
    # four nonzero terms in an 8-wide tree sum
    @example((np.array([0.3, -0.7, 1.1]), np.ones(3), 2.0, 3))
    def test_matches_masked_logsumexp(self, inputs):
        z, amp, sigma2, m = inputs
        got = _pam_bit_llrs(z, amp, sigma2, m)
        want = reference_pam_bit_llrs(z, amp, sigma2, m)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def general_log_sum_exp(metric, idx):
    """The log-sum-exp rule of every label set size: the maximum out and its
    occurrences counted, the other terms added pairwise in level order."""
    a_max = metric[idx[0]]
    for l in idx[1:]:
        a_max = np.maximum(a_max, metric[l])
    is_max = [metric[l] == a_max for l in idx]
    cnt = sum(is_max)
    terms = [np.where(hit, 0.0, np.exp(metric[l] - a_max)) for l, hit in zip(idx, is_max)]
    while len(terms) > 1:
        terms = [terms[i] + terms[i + 1] for i in range(0, len(terms), 2)]
    return np.log1p(terms[0] / cnt) + np.log(cnt) + a_max


def _metric_pair(draw, shape):
    """Two metric arrays: equal, of very different sizes, or drawn freely."""
    free = st.floats(-1e300, 1e300)   # differences stay finite
    kind = draw(st.sampled_from(["tie", "scaled", "free"]))
    if kind == "scaled":
        a = draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
        return a, a * 10.0 ** draw(st.integers(-300, 300))
    a = draw(arrays(np.float64, shape, elements=free))
    if kind == "tie":
        return a, a.copy()
    b = draw(arrays(np.float64, shape, elements=st.one_of(free, st.sampled_from([0.0, -0.0]))))
    return a, b


class TestTwoMemberLogSumExp:
    """The one-exp rule of two-member Gray label sets against the general
    rule, through an int64 view so that the sign of zero counts too."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_general_rule(self, data):
        shape = tuple(data.draw(st.lists(st.integers(1, 5), max_size=2)))
        a, b = _metric_pair(data.draw, shape)
        for metric in ([a, b], [b, a]):
            got = np.asarray(_log_sum_exp(metric, (0, 1)))
            want = np.asarray(general_log_sum_exp(metric, (0, 1)))
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(demap_inputs())
    # zero amplitude: every level's metric is -0.0, so both members tie
    @example((np.zeros(3), np.zeros(3), 0.5, 2))
    # exact hits of the four 16-QAM levels and of the decision midpoints
    @example((np.array([-3.0, -1.0, 1.0, 3.0, -2.0, 0.0, 2.0]) / math.sqrt(10.0),
              np.ones(7), 0.01, 2))
    def test_matches_general_rule_on_demap_metrics(self, inputs):
        z, amp, sigma2, _ = inputs
        lv, members = pam_demap_table(2)
        metric = [np.square(z - amp * lv[l]) / (-2.0 * sigma2) for l in range(lv.size)]
        for label_sets in members:
            for idx in label_sets:
                got = np.asarray(_log_sum_exp(metric, idx))
                want = np.asarray(general_log_sum_exp(metric, idx))
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestChannelSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind="rayleigh", snr_db=1.0)

    def test_bec_needs_epsilon(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind="bec")
        with pytest.raises(ValueError):
            ChannelSpec(kind="bec", epsilon=1.5)

    def test_gaussian_needs_snr(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind="awgn")

    @pytest.mark.parametrize("kind", ["awgn", "fading"])
    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf])
    def test_gaussian_rejects_non_finite_snr(self, kind, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            ChannelSpec(kind=kind, snr_db=snr_db)
