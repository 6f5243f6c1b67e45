"""Reliability estimation: phi machinery, GA, exact BEC recursion, genie MC."""

import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

import rcpolar
from rcpolar import construction
from rcpolar.channel import ChannelSpec, ModulationSpec, _pam_bit_llrs, pam_demap_table
from rcpolar.construction import (
    ReliabilityProfile,
    _cubic,
    _distinct_values,
    _ga_leaf_codes,
    _knot_x,
    _phi_inverse_log,
    _phi_table,
    bec_leaf_erasures,
    bhattacharyya_bec,
    bit_error_prob,
    build_bicm_ga_means,
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
from rcpolar.polar import PolarCodeSpec, bit_reversal_permutation, butterfly
from rcpolar.puncturing import reference_base32_sequence
from rcpolar.rate_matching import RateMatcher, TxPlan, build_tx_map, de_rate_match
from test_rate_matching import natural_order_matcher

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

    def test_tail_inverse_matches_sixty_steps(self):
        # beyond the table the inverse iterates the matched tail to its fixed
        # point; it must give the bits of 60 steps for x from 200 to 1e300
        t = _phi_table()
        rng = np.random.default_rng(11)
        x = np.exp(rng.uniform(math.log(200.0), math.log(1e300), 1_200_000))
        ly = log_phi(x)
        ly = np.concatenate([ly[ly < t.l_lo], [np.nextafter(t.l_lo, -np.inf)]])
        assert len(ly) > 10**6
        target = ly - t.l_lo + construction._log_phi_tail(construction._GRID_HI)
        want = np.full(target.shape, 2.0 * construction._GRID_HI)
        for _ in range(60):
            want = -4.0 * (target - 0.5 * np.log(np.pi / want) - np.log1p(-10.0 / (7.0 * want)))
        assert same_bits(_phi_inverse_log(ly), want)

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
            for got, want in zip(getattr(fresh, name), getattr(ref, name)):
                assert same_bits(got, want)

    def test_fused_interpolant_matches_fwd_and_derivative(self):
        # Newton reads log phi and its slope from the two columns of one
        # table; the first is the fwd table's value and the second scipy's
        # derivative, bit for bit, at every knot, every knot midpoint and
        # random points
        t = _phi_table()
        x = t.log_x
        z = np.concatenate([x, 0.5 * (x[1:] + x[:-1]),
                            np.random.default_rng(0).uniform(x[0], x[-1], 100_000)])
        f, df = _cubic(t.fwd_and_d, z)
        assert same_bits(f, _cubic(t.fwd, z))
        assert same_bits(df, PchipInterpolator(x, t.log_phi_knots).derivative()(z))

    @pytest.mark.parametrize("name", ["fwd", "derivative", "inv"])
    def test_interpolants_match_scipy_bit_for_bit(self, name):
        # the numpy PCHIP port against scipy.interpolate, which the library
        # does not import: every coefficient, then the values at 10^6
        # uniform points, every knot, every knot midpoint and both ends
        t = _phi_table()
        ls, lx = t.log_phi_knots, t.log_x
        fwd = PchipInterpolator(lx, ls, extrapolate=False)
        ref, x, table, column = {
            "fwd": (fwd, lx, t.fwd, None),
            "derivative": (fwd.derivative(), lx, t.fwd_and_d, 1),
            "inv": (PchipInterpolator(ls[::-1], lx[::-1], extrapolate=False), ls[::-1],
                    t.inv, None),
        }[name]
        knots, rows = table
        if column is not None:
            rows = rows[:, column]
        c = rows[:, 4 - len(ref.c):4].T
        assert same_bits(np.ascontiguousarray(c), ref.c)
        assert same_bits(rows[:, 4], ref.x[:-1]) and same_bits(knots, ref.x[1:-1])
        z = np.concatenate([np.random.default_rng(7).uniform(x[0], x[-1], 1_000_000),
                            x, 0.5 * (x[1:] + x[:-1]), [x[0], x[-1]]])
        got = _cubic(table, z)
        assert same_bits(got if column is None else got[column], ref(z))

    @pytest.mark.parametrize("seed", range(6))
    def test_pchip_port_matches_scipy_on_rough_data(self, seed):
        # data with repeated values and sign changes reach every slope branch:
        # flat interior slopes and both end-point corrections
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(0.1, 2.0, 40))
        y = rng.integers(-3, 4, 40).astype(float) * rng.choice([1.0, 0.37], 40)
        ref = PchipInterpolator(x, y, extrapolate=False)
        knots, rows = construction._pchip(x, y)
        assert same_bits(np.ascontiguousarray(rows[:, :4].T), ref.c)
        z = np.concatenate([x, rng.uniform(x[0], x[-1], 10_000)])
        assert same_bits(_cubic((knots, rows), z), ref(z))

    def test_import_leaves_scipy_interpolate_unloaded(self):
        # the phi table is built without scipy.interpolate, whose import
        # cost more than the rest of the package's
        src = str(Path(rcpolar.__file__).resolve().parents[1])
        code = "import sys, rcpolar; print('scipy.interpolate' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

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
        rm = natural_order_matcher(4)
        sigma2 = 10.0 ** (-0.35)
        prof_ga = ga_evolve(rm.spec, np.full(16, 2.0 / sigma2))
        chan = ChannelSpec(kind="awgn", snr_db=3.5)
        prof_mc = genie_monte_carlo(rm, chan, 16, trials=40_000, seed=11)
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
            # _ga_leaf_codes takes its codes in bit-reversed order
            vals, codes = _distinct_values(means)
            vals, codes = _ga_leaf_codes(vals, codes[..., bit_reversal_permutation(n)], memo)
            return vals[codes]

        memo = {}
        leaves(first, memo)
        assert same_bits(leaves(second, memo), ga_leaf_means(second))


class TestDenseDistinct:
    """A GA stage rewrites its codes through a lookup table indexed by the pair
    key where the dense rule admits the table, and through ``np.unique``
    elsewhere; both give the same value table and codes, entry for entry."""

    @staticmethod
    def stage_paths(vals, codes):
        """``_ga_leaf_codes`` as configured and with every stage on ``np.unique``;
        returns both results and the number of stages that took the lookup
        table (only that path calls ``np.bincount``)."""
        with mock.patch.object(np, "bincount", wraps=np.bincount) as spy:
            got = _ga_leaf_codes(vals, codes.copy())
        with mock.patch.object(construction, "_DENSE_CAP", 0):
            want = _ga_leaf_codes(vals, codes.copy())
        return got, want, spy.call_count

    @staticmethod
    def assert_same(got, want, dtype):
        assert same_bits(got[0], want[0])
        assert got[1].dtype == want[1].dtype == dtype and np.array_equal(got[1], want[1])

    @given(K=st.integers(1, 64), edge=st.sampled_from(["at", "above", "below"]),
           lead=st.lists(st.integers(1, 4), max_size=2), seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.int32, np.int64]))
    @settings(max_examples=60, deadline=None)
    def test_matches_argsort(self, K, edge, lead, seed, dtype):
        # one stage (N = 2) over a table of K entries, so K² pair keys
        rng = np.random.default_rng(seed)
        table = K * K
        cap = {"at": table, "above": table - 1,
               "below": int(rng.integers(table + 1, 2 * table + 2))}[edge]
        # enough pairs that the ratio admits the table, so the cap decides
        width = -(-table // construction._DENSE_RATIO)
        vals = np.where(rng.random(K) < 0.2, 0.0, 10.0 ** rng.uniform(-8.0, 3.0, K))
        codes = rng.integers(0, K, size=tuple(lead) + (width, 2)).astype(dtype)
        with mock.patch.object(construction, "_DENSE_CAP", cap):
            got, want, dense_stages = self.stage_paths(vals, codes)
        assert dense_stages == (edge != "above")
        self.assert_same(got, want, dtype)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_at_and_above_the_cap(self, extra):
        # a stage whose K² pair keys fill exactly _DENSE_CAP entries takes the
        # lookup table; one entry more takes np.unique.  K² is a square, so one
        # entry more is the cap lowered by one.  There are enough pairs that the
        # ratio admits the table either way, so only the cap decides.
        K = math.isqrt(construction._DENSE_CAP)
        assert K * K == construction._DENSE_CAP
        rng = np.random.default_rng(extra)
        vals = 10.0 ** rng.uniform(-8.0, 3.0, K)
        # int32 codes, as a pattern batch builds them; few distinct pairs,
        # including the smallest and the largest key
        codes = rng.integers(0, 3, size=(K * K // construction._DENSE_RATIO, 2)).astype(np.int32)
        codes[0], codes[-1] = (0, 0), (K - 1, K - 1)
        with mock.patch.object(construction, "_DENSE_CAP", K * K - extra):
            got, want, dense_stages = self.stage_paths(vals, codes)
        assert dense_stages == 1 - extra
        self.assert_same(got, want, np.int32)

    def test_wide_table_keys_are_int64(self):
        # one row of 65,536 distinct means: the first stage has K² = 2^32 pair
        # keys, beyond int32, and must still pair every x with its own y
        n = 16
        rng = np.random.default_rng(0)
        means = 10.0 ** rng.uniform(-8.0, 3.0, 1 << n)
        assert len(np.unique(means)) == 1 << n

        def float_stage(x, y):
            x[...], y[...] = ga_check_mean(x, y), x + y

        want = butterfly(means[bit_reversal_permutation(n)], float_stage)
        assert same_bits(ga_leaf_means(means), want)

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


def reference_bicm_ga_means(rm, L, design_snr_db):
    """QAM design means that demap every (class, level) pair on its own."""
    sigma2 = 0.5 * 10.0 ** (-design_snr_db / 10.0)
    m = rm.modulation.bits_per_dim
    lv, members = pam_demap_table(m)
    nodes, weights = np.polynomial.hermite_e.hermegauss(255)
    class_mean = np.zeros(m)
    for b in range(m):
        idx0 = members[b][0]
        acc = 0.0
        for l in idx0:
            z = lv[l] + np.sqrt(sigma2) * nodes
            llr = _pam_bit_llrs(z, np.ones_like(z), sigma2, m)[:, b]
            acc += float(np.sum(weights * llr)) / np.sqrt(2.0 * np.pi) / len(idx0)
        class_mean[b] = acc
    plan = TxPlan(L=L, t=1, r=1, mode="cc")
    return de_rate_match(class_mean[build_tx_map(rm, plan).bit_class], rm, plan)


class TestBicmGaMeans:
    """QAM design means, each level demapped once, against a demapping per
    (class, level) pair, compared through an int64 view."""

    @pytest.mark.parametrize("order", [16, 64])
    @pytest.mark.parametrize("L", [48, 96, 192])
    def test_matches_per_class_demapping(self, order, L):
        spec = full_rate_spec(7)
        rm = RateMatcher(spec=spec, sequence=reference_base32_sequence(),
                         modulation=ModulationSpec(order))
        for snr in (-6.0, 0.0, 3.5, 9.0, 17.0, 30.0):
            got = build_bicm_ga_means(spec, rm, L, snr)
            want = reference_bicm_ga_means(rm, L, snr)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), snr


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
        chan = ChannelSpec(kind="awgn", snr_db=60.0)
        prof = genie_monte_carlo(natural_order_matcher(3), chan, 8, trials=2000, seed=1)
        assert np.all(prof.error_prob == 0.0)

    def test_determinism(self):
        rm = natural_order_matcher(3)
        chan = ChannelSpec(kind="awgn", snr_db=1.0)
        a = genie_monte_carlo(rm, chan, 8, trials=5000, seed=9)
        b = genie_monte_carlo(rm, chan, 8, trials=5000, seed=9)
        assert np.array_equal(a.error_prob, b.error_prob)

    def test_bec_half_erasure_rates(self):
        chan = ChannelSpec(kind="bec", epsilon=0.5)
        trials = 100_000
        prof = genie_monte_carlo(natural_order_matcher(2), chan, 4, trials=trials, seed=4)
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
        back = ReliabilityProfile.from_csv(prof.to_csv())
        assert back.method == "ga"
        assert np.allclose(back.error_prob, prof.error_prob, rtol=0, atol=0)
        assert np.allclose(back.mean_llr, prof.mean_llr, rtol=0, atol=0)

    def test_nan_mean_round_trip(self):
        spec = full_rate_spec(2)
        prof = bhattacharyya_bec(spec, np.full(4, 0.25))
        back = ReliabilityProfile.from_csv(prof.to_csv())
        assert np.all(np.isnan(back.mean_llr))
        assert np.array_equal(back.error_prob, prof.error_prob)

    def test_index_column_must_count_up(self):
        text = bhattacharyya_bec(full_rate_spec(2), np.full(4, 0.25)).to_csv()
        with pytest.raises(ValueError, match="row 3 has index 9"):
            ReliabilityProfile.from_csv(text.replace("\n3,", "\n9,"))


if __name__ == "__main__":
    # writes the shipped knots only if they are missing: like the golden
    # fixtures, they are never regenerated to make a test pass
    if KNOT_FILE.exists():
        print(f"kept {KNOT_FILE}", file=sys.stderr)
    else:
        KNOT_FILE.write_text("".join(f"{v!r}\n" for v in _quad_log_phi(_knot_x()).tolist()))
        print(f"wrote {KNOT_FILE}", file=sys.stderr)
