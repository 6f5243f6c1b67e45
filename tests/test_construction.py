"""Reliability estimation: phi machinery, GA, exact BEC recursion, genie MC."""

import io
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcpolar.channel import BPSK, ChannelSpec
from rcpolar.construction import (
    _TABLE,
    ReliabilityProfile,
    _phi_inverse_log,
    bec_leaf_erasures,
    bhattacharyya_bec,
    bit_error_prob,
    design_mean_llr,
    ga_check_mean,
    ga_evolve,
    ga_leaf_means,
    genie_monte_carlo,
    log_phi,
    phi,
    phi_inverse,
    select_information_set,
    union_bound,
)
from rcpolar.decoder import genie_sc_decode
from rcpolar.polar import PolarCodeSpec, bit_reversal_permutation

# adaptive quadrature of E[2/(1+e^U)], U ~ N(1, 2), via mpmath at 30 digits
PHI_AT_1 = 0.649886595324869


def full_rate_spec(n):
    N = 1 << n
    return PolarCodeSpec(n=n, k=N, info_set=tuple(range(1, N + 1)), split=(min(5, n), n - min(5, n)) if n > 5 else (n, 0))


class TestPhi:
    def test_at_zero(self):
        assert phi(0.0) == 1.0

    def test_frozen_quadrature_value(self):
        assert abs(phi(1.0) - PHI_AT_1) < 1e-9

    def test_decays(self):
        assert phi(100.0) < 1e-6
        xs = np.exp(np.linspace(np.log(1e-6), np.log(200.0), 4096))
        vals = phi(xs)
        assert np.all(np.diff(vals) < 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            phi(-0.1)

    def test_inverse_endpoints(self):
        assert phi_inverse(1.0) == 0.0
        with pytest.raises(ValueError):
            phi_inverse(0.0)
        with pytest.raises(ValueError):
            phi_inverse(1.0 + 1e-9)

    def test_round_trip_identity(self):
        xs = np.linspace(1e-4, 100.0, 4001)
        assert np.max(np.abs(phi_inverse(phi(xs)) - xs)) < 1e-6

    def test_inverse_round_trip_relative(self):
        ys = np.exp(np.linspace(np.log(1e-21), np.log(0.999999), 2000))
        back = phi(phi_inverse(ys))
        assert np.max(np.abs(back / ys - 1.0)) < 1e-9

    def test_round_trip_at_named_points(self):
        assert abs(phi_inverse(phi(2.0)) - 2.0) < 1e-6
        y = phi_inverse(0.5)
        assert abs(phi(y) - 0.5) < 1e-9

    def test_newton_inverse_converges_on_the_whole_table(self):
        # four Newton steps are the whole inverse inside the table: over a
        # dense grid of targets and every knot, x is finite and log_phi(x)
        # comes back within 1e-13 (at most 2.9e-14 measured)
        t = _TABLE.get()
        ly = np.concatenate([np.linspace(t.l_lo, t.l_hi, 2_000_001), t.log_phi_knots])
        x = _phi_inverse_log(ly)
        assert np.all(np.isfinite(x)) and np.all(x > 0)
        assert np.max(np.abs(log_phi(x) - ly)) < 1e-13

    @given(st.floats(min_value=1e-5, max_value=150.0))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, x):
        assert abs(phi_inverse(phi(x)) - x) <= 1e-6 * max(1.0, x)


class TestBitErrorProb:
    def test_examples(self):
        assert bit_error_prob(0.0) == 0.5
        assert abs(bit_error_prob(8.0) - 0.0227501319) < 1e-9
        assert bit_error_prob(1e6) < 1e-300

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bit_error_prob(-1.0)


class TestGaEvolve:
    def test_n2_variable_node(self):
        mu = 3.7
        leaves = ga_leaf_means(np.array([mu, mu]))
        assert leaves[1] == pytest.approx(2.0 * mu, abs=1e-12)

    def test_all_punctured(self):
        spec = full_rate_spec(3)
        prof = ga_evolve(spec, np.zeros(8))
        assert np.all(prof.mean_llr == 0.0)
        assert np.all(prof.error_prob == 0.5)

    def test_negative_means_rejected(self):
        spec = full_rate_spec(2)
        with pytest.raises(ValueError):
            ga_evolve(spec, np.array([1.0, -1.0, 0.0, 2.0]))

    def test_degradation_monotonicity(self):
        # zeroing one more position never lowers any error estimate
        rng = np.random.default_rng(3)
        for n in (3, 4, 5):
            N = 1 << n
            mu = design_mean_llr(2.0)
            for _ in range(10):
                m = rng.integers(0, N - 1)
                pat = rng.choice(N, size=m + 1, replace=False)
                means_small = np.full(N, mu)
                means_small[pat[:m]] = 0.0
                means_big = means_small.copy()
                means_big[pat[m]] = 0.0
                pe_small = bit_error_prob(ga_leaf_means(means_small))
                pe_big = bit_error_prob(ga_leaf_means(means_big))
                assert np.all(pe_big >= pe_small - 1e-12)

    def test_matches_genie_monte_carlo_n16(self):
        n = 4
        spec = full_rate_spec(n)
        sigma2 = 10.0 ** (-0.35)
        prof_ga = ga_evolve(spec, np.full(16, 2.0 / sigma2))
        chan = ChannelSpec(kind="awgn", snr_db=3.5)
        prof_mc = genie_monte_carlo(spec, chan, BPSK, trials=40_000, seed=11)
        testable = prof_mc.error_prob > 1e-3
        assert testable.sum() >= 4
        ratio = prof_ga.error_prob[testable] / prof_mc.error_prob[testable]
        assert np.all(ratio < 2.0) and np.all(ratio > 0.5)


def per_block_leaves(values, check, variable):
    """Reference recursion: bit reversal, then one Python step per block."""
    N = values.shape[-1]
    a = values[..., bit_reversal_permutation(N.bit_length() - 1)]
    T = N
    while T > 1:
        h = T // 2
        for s in range(0, N, T):
            x = a[..., s : s + h].copy()
            y = a[..., s + h : s + T]
            a[..., s : s + h] = check(x, y)
            a[..., s + h : s + T] = variable(x, y)
        T = h
    return a


def same_bits(a, b):
    """Equal shapes and float64 bit patterns: -0.0 differs from +0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestButterflyRecursions:
    """The batched kernel equals the per-block stage loop bit for bit."""

    @given(n=st.integers(1, 10), lead=st.lists(st.integers(1, 3), max_size=2),
           seed=st.integers(0, 2**32 - 1), p_edge=st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=30, deadline=None)
    def test_matches_per_block_loop(self, n, lead, seed, p_edge):
        rng = np.random.default_rng(seed)
        shape = tuple(lead) + (1 << n,)
        edge = rng.random(shape) < p_edge
        # GA means from the series range through the table to the tail; exact zeros
        means = np.where(edge, 0.0, 10.0 ** rng.uniform(-8.0, 3.0, shape))
        want = per_block_leaves(means, ga_check_mean, lambda x, y: x + y)
        assert same_bits(ga_leaf_means(means), want)
        # erasure probabilities with exact ones
        z = np.where(edge, 1.0, rng.random(shape))
        want = per_block_leaves(z, lambda x, y: x + y - x * y, lambda x, y: x * y)
        assert same_bits(bec_leaf_erasures(z), want)

    @given(n=st.integers(1, 8), batch=st.integers(1, 512), seed=st.integers(0, 2**32 - 1),
           design=st.floats(1e-3, 1e2), multiples=st.lists(st.integers(2, 5), max_size=2),
           zeros=st.sampled_from([(), (0.0,), (-0.0,), (0.0, -0.0)]),
           p_other=st.sampled_from([0.05, 0.3, 1.0]))
    @example(n=3, batch=4, seed=0, design=1.0, multiples=[], zeros=(0.0, -0.0), p_other=1.0)
    @settings(max_examples=40, deadline=None)
    def test_pattern_batches_bit_identical(self, n, batch, seed, design, multiples, zeros,
                                           p_other):
        # GA over value codes sees batches of few distinct means, as in a
        # puncturing search; every output bit, the sign of zero included,
        # must be the per-element recursion's
        rng = np.random.default_rng(seed)
        others = np.array([design * k for k in multiples] + list(zeros))
        means = np.full((batch, 1 << n), design)
        if len(others):
            hit = rng.random(means.shape) < p_other
            means[hit] = rng.choice(others, size=int(hit.sum()))
        want = per_block_leaves(means, ga_check_mean, lambda x, y: x + y)
        assert same_bits(ga_leaf_means(means), want)


class TestBecRecursion:
    def test_fixed_points(self):
        spec = full_rate_spec(2)
        assert np.all(bhattacharyya_bec(spec, np.zeros(4)).error_prob == 0.0)
        assert np.all(bhattacharyya_bec(spec, np.ones(4)).error_prob == 1.0)

    def test_n4_half(self):
        spec = full_rate_spec(2)
        prof = bhattacharyya_bec(spec, np.full(4, 0.5))
        assert np.allclose(prof.error_prob, [0.9375, 0.5625, 0.4375, 0.0625], atol=1e-15)

    def test_out_of_range(self):
        spec = full_rate_spec(2)
        with pytest.raises(ValueError):
            bhattacharyya_bec(spec, np.array([0.5, 1.5, 0.0, 0.2]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_enumeration_oracle(self, n):
        # expectation over every erasure pattern, indicators propagated by the
        # genie decoder's exact zero-LLR behavior
        N = 1 << n
        spec = full_rate_spec(n)
        rng = np.random.default_rng(5)
        eps = rng.uniform(0.1, 0.9, size=N)
        expect = np.zeros(N)
        zero_u = np.zeros(N, dtype=np.uint8)
        for pattern in itertools.product([0, 1], repeat=N):
            pat = np.array(pattern, dtype=bool)
            prob = np.prod(np.where(pat, eps, 1.0 - eps))
            llr = np.where(pat, 0.0, 1.0)
            _, leaf = genie_sc_decode(llr, spec, zero_u, return_leaf_llrs=True)
            expect += prob * (leaf == 0.0)
        got = bec_leaf_erasures(eps)
        assert np.allclose(got, expect, atol=1e-12)


class TestGenieMonteCarlo:
    def test_noiseless(self):
        spec = full_rate_spec(3)
        chan = ChannelSpec(kind="awgn", snr_db=60.0)
        prof = genie_monte_carlo(spec, chan, BPSK, trials=2000, seed=1)
        assert np.all(prof.error_prob == 0.0)

    def test_determinism(self):
        spec = full_rate_spec(3)
        chan = ChannelSpec(kind="awgn", snr_db=1.0)
        a = genie_monte_carlo(spec, chan, BPSK, trials=5000, seed=9)
        b = genie_monte_carlo(spec, chan, BPSK, trials=5000, seed=9)
        assert np.array_equal(a.error_prob, b.error_prob)

    def test_bec_half_erasure_rates(self):
        spec = full_rate_spec(2)
        chan = ChannelSpec(kind="bec", epsilon=0.5)
        trials = 100_000
        prof = genie_monte_carlo(spec, chan, BPSK, trials=trials, seed=4)
        z = np.array([0.9375, 0.5625, 0.4375, 0.0625])
        target = z / 2.0  # an erased decision guesses 0; half the data disagrees
        sigma = np.sqrt(target * (1 - target) / trials)
        assert np.all(np.abs(prof.error_prob - target) < 3.0 * sigma + 1e-12)


class TestSelectionAndBound:
    def setup_method(self):
        self.spec = full_rate_spec(2)
        self.prof = bhattacharyya_bec(self.spec, np.full(4, 0.5))

    def test_select_examples(self):
        assert select_information_set(self.prof, 2) == (3, 4)
        assert select_information_set(self.prof, 4) == (1, 2, 3, 4)
        assert select_information_set(self.prof, 1) == (4,)
        with pytest.raises(ValueError):
            select_information_set(self.prof, 5)

    def test_select_tie_break(self):
        prof = ReliabilityProfile(method="ga", design_param=0.0,
                                  error_prob=np.array([0.3, 0.1, 0.1, 0.4]),
                                  mean_llr=np.full(4, np.nan))
        assert select_information_set(prof, 1) == (2,)

    def test_union_bound_examples(self):
        assert union_bound(self.prof, ()) == 0.0
        assert union_bound(self.prof, (3,)) == pytest.approx(0.4375)
        assert union_bound(self.prof, (3, 4)) == pytest.approx(0.5)


class TestProfileCsv:
    def test_round_trip(self):
        spec = full_rate_spec(3)
        prof = ga_evolve(spec, np.full(8, design_mean_llr(1.5)))
        buf = io.StringIO()
        prof.to_csv(buf)
        back = ReliabilityProfile.from_csv(io.StringIO(buf.getvalue()))
        assert back.method == "ga"
        assert np.allclose(back.error_prob, prof.error_prob, rtol=0, atol=0)
        assert np.allclose(back.mean_llr, prof.mean_llr, rtol=0, atol=0)

    def test_nan_mean_round_trip(self):
        spec = full_rate_spec(2)
        prof = bhattacharyya_bec(spec, np.full(4, 0.25))
        buf = io.StringIO()
        prof.to_csv(buf)
        back = ReliabilityProfile.from_csv(io.StringIO(buf.getvalue()))
        assert np.all(np.isnan(back.mean_llr))
        assert np.array_equal(back.error_prob, prof.error_prob)
