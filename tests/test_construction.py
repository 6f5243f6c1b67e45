"""Reliability estimation: phi machinery, GA, exact BEC recursion, genie MC."""

import io
import itertools
import math
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcpolar import construction
from rcpolar.channel import BPSK, ChannelSpec
from rcpolar.construction import (
    ReliabilityProfile,
    _distinct_values,
    _ga_leaf_codes,
    _knot_x,
    _phi_inverse_log,
    _phi_table,
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
)
from rcpolar.decoder import _genie_leaf_llrs
from rcpolar.polar import PolarCodeSpec, bit_reversal_permutation

# adaptive quadrature of E[2/(1+e^U)], U ~ N(1, 2), via mpmath at 30 digits
PHI_AT_1 = 0.649886595324869

KNOT_FILE = Path(__file__).resolve().parents[1] / "src" / "rcpolar" / "data" / "log_phi_knots.txt"


def _quad_log_phi(xs: np.ndarray) -> np.ndarray:
    """log phi(x) by composite 16-point Gauss-Legendre quadrature.

    Uses the cancellation-free form phi(x) = E[2 / (1 + e^U)], U ~ N(x, 2x).
    The integrand has two features: the Gaussian bulk around u = x (width
    sqrt(2x)) and the logistic knee at u = 0 (width ~2); panels are sized to
    resolve both.  This wrote the shipped knots, and the knot test recomputes
    them with it.
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        sd = math.sqrt(2.0 * x)
        blo = x - 42.0 * sd
        bhi = x + 42.0 * sd
        edges = [np.linspace(blo, bhi, max(257, int(np.ceil((bhi - blo) / 1.5)) + 1))]
        if blo > -64.0:
            # left segment covering the logistic knee and the far Gaussian tail
            edges.insert(0, np.linspace(-64.0, blo, int(np.ceil((blo + 64.0) / 2.0)) + 1))
        ed = np.concatenate([e[:-1] for e in edges] + [edges[-1][-1:]])
        mid = 0.5 * (ed[1:] + ed[:-1])
        half = 0.5 * (ed[1:] - ed[:-1])
        u = mid[:, None] + half[:, None] * nodes[None, :]
        w = half[:, None] * weights[None, :]
        logf = (
            math.log(2.0)
            - np.logaddexp(0.0, u)
            - (u - x) ** 2 / (4.0 * x)
            - 0.5 * math.log(4.0 * math.pi * x)
        )
        m = logf.max()
        out[i] = m + math.log(float(np.sum(w * np.exp(logf - m))))
    return out


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
        t = _phi_table()
        ly = np.concatenate([np.linspace(t.l_lo, t.l_hi, 2_000_001), t.log_phi_knots])
        x = _phi_inverse_log(ly)
        assert np.all(np.isfinite(x)) and np.all(x > 0)
        assert np.max(np.abs(log_phi(x) - ly)) < 1e-13

    def test_shipped_knots_match_quadrature(self):
        # every shipped knot is the quadrature's value, bit for bit (about 2.3 s)
        assert same_bits(_phi_table().log_phi_knots, _quad_log_phi(_knot_x()))

    def test_fresh_table_builds_fast(self):
        # reading the knots and fitting the interpolants takes about 9 ms; the
        # quadrature it replaced took 1.5-2.3 s in every process
        t0 = time.perf_counter()
        fresh = _phi_table.__wrapped__()
        assert time.perf_counter() - t0 < 0.5
        ref = _phi_table()
        assert same_bits(fresh.log_x, ref.log_x)
        assert same_bits(fresh.log_phi_knots, ref.log_phi_knots)
        for name in ("fwd", "fwd_and_d", "inv"):
            assert same_bits(getattr(fresh, name).x, getattr(ref, name).x)
            assert same_bits(getattr(fresh, name).c, getattr(ref, name).c)

    def test_fused_interpolant_matches_fwd_and_derivative(self):
        # Newton reads log phi and its slope from the two columns of one
        # piecewise polynomial; each column is bit-identical to the separate
        # interpolant at every knot, every knot midpoint and random points
        t = _phi_table()
        x = t.fwd.x
        z = np.concatenate([x, 0.5 * (x[1:] + x[:-1]),
                            np.random.default_rng(0).uniform(x[0], x[-1], 100_000)])
        both = t.fwd_and_d(z)
        assert same_bits(both[:, 0], t.fwd(z))
        assert same_bits(both[:, 1], t.fwd.derivative()(z))

    @given(st.floats(min_value=1e-5, max_value=150.0))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, x):
        assert abs(phi_inverse(phi(x)) - x) <= 1e-6 * max(1.0, x)


@pytest.mark.parametrize("call", [
    lambda: log_phi(np.array([1.0, np.nan])),
    lambda: phi_inverse(np.nan),
    lambda: ga_leaf_means(np.array([1.0, np.nan, 0.0, 2.0])),
    lambda: bit_error_prob(np.nan),
    lambda: bec_leaf_erasures(np.array([0.5, np.nan])),
    lambda: ReliabilityProfile(method="ga", design_param=1.0,
                               error_prob=np.array([0.1, np.nan]), mean_llr=np.ones(2)),
], ids=["log_phi", "phi_inverse", "ga_leaf_means", "bit_error_prob", "bec_leaf_erasures",
        "profile_error_prob"])
def test_nan_rejected(call):
    # NaN fails every comparison, so each range check is written to pass only
    # values inside the range
    with pytest.raises(ValueError):
        call()


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

    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           zeros=st.sampled_from([(), (0.0,), (-0.0,), (0.0, -0.0)]))
    @settings(max_examples=40, deadline=None)
    def test_prefilled_memo_bit_identical(self, n, seed, zeros):
        # a memo filled by one batch changes no bit of another batch's means;
        # both draw from one small pool (series range to tail), so they share
        # many check-node pairs
        rng = np.random.default_rng(seed)
        pool = np.concatenate([10.0 ** rng.uniform(-8.0, 3.0, 5), zeros])
        first, second = (rng.choice(pool, size=(rng.integers(1, 64), 1 << n)) for _ in range(2))
        def leaves(means, memo):
            vals, codes = _ga_leaf_codes(*_distinct_values(means), memo)
            return vals[codes]

        memo = {}
        leaves(first, memo)
        assert same_bits(leaves(second, memo), ga_leaf_means(second))


class TestDenseDistinct:
    """Distinct pair keys ranked through a dense seen-table equal the argsort
    path: the same sorted keys and the same inverse, entry for entry."""

    @staticmethod
    def assert_matches_argsort(keys, bound):
        want_keys, want_inv = construction._distinct(keys)
        got_keys, got_inv = construction._distinct(keys, bound)
        assert np.array_equal(got_keys, want_keys)
        assert got_inv.shape == keys.shape and np.array_equal(got_inv, want_inv)

    @given(cap=st.integers(1, 4096), edge=st.sampled_from(["at", "above", "below"]),
           lead=st.lists(st.integers(0, 8), max_size=2), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_argsort(self, cap, edge, lead, seed):
        rng = np.random.default_rng(seed)
        bound = {"at": cap, "above": cap + 1, "below": int(rng.integers(1, cap + 1))}[edge]
        # enough keys that the table is within the ratio, so the cap decides
        width = -(-bound // construction._DENSE_RATIO)
        keys = rng.integers(0, int(rng.integers(1, bound + 1)), size=tuple(lead) + (width,))
        with mock.patch.object(construction, "_DENSE_CAP", cap):
            self.assert_matches_argsort(keys, bound)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_at_and_above_the_cap(self, extra):
        # a table of exactly _DENSE_CAP entries is ranked densely (int32
        # ranks); one entry more falls back to the argsort.  There are enough
        # keys that the ratio admits the table either way, so only the cap decides.
        bound = construction._DENSE_CAP + extra
        rng = np.random.default_rng(extra)
        keys = rng.integers(0, bound, size=(2, bound // construction._DENSE_RATIO + 1))
        assert construction._DENSE_RATIO * keys.size >= bound
        keys[0, 0], keys[1, -1] = 0, bound - 1
        self.assert_matches_argsort(keys, bound)
        assert construction._distinct(keys, bound)[1].dtype == (np.int64 if extra else np.int32)

    @given(n=st.integers(1, 10), batch=st.integers(1, 256), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["patterns", "table"]), design=st.floats(1e-3, 1e2))
    @settings(max_examples=40, deadline=None)
    def test_ga_leaf_means_dense_off_bit_identical(self, n, batch, seed, kind, design):
        rng = np.random.default_rng(seed)
        N = 1 << n
        if kind == "patterns":
            # a puncturing search batch: zeros at m distinct positions per row
            means = np.full((batch, N), design)
            m = int(rng.integers(0, N + 1))
            np.put_along_axis(means, np.argsort(rng.random((batch, N)), axis=1)[:, :m], 0.0,
                              axis=1)
        else:
            # one N=1024-like profile row: a few class means, their repeat
            # sums, and zeros at unread positions
            classes = design * rng.uniform(0.2, 1.0, int(rng.integers(1, 4)))
            pool = np.concatenate([classes, 2.0 * classes, [0.0]])
            means = rng.choice(pool, size=N)
        got = ga_leaf_means(means)
        with mock.patch.object(construction, "_DENSE_CAP", 0):
            want = ga_leaf_means(means)
        assert same_bits(got, want)


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
            leaf = _genie_leaf_llrs(llr[None, :], spec, zero_u[None, :])
            expect += prob * (leaf[0] == 0.0)
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


def union_bound(profile: ReliabilityProfile, info_set) -> float:
    """Sum of estimated error probabilities over a 1-based information set."""
    idx = np.asarray(sorted(int(i) - 1 for i in info_set), dtype=np.int64)
    if idx.size and (idx[0] < 0 or idx[-1] >= len(profile)):
        raise ValueError("info_set index out of range")
    return float(np.sum(profile.error_prob[idx]))


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


if __name__ == "__main__":
    # writes the shipped knots only if they are missing: like the golden
    # fixtures, they are never regenerated to make a test pass
    if KNOT_FILE.exists():
        print(f"kept {KNOT_FILE}", file=sys.stderr)
    else:
        KNOT_FILE.write_text("".join(f"{v!r}\n" for v in _quad_log_phi(_knot_x()).tolist()))
        print(f"wrote {KNOT_FILE}", file=sys.stderr)
