"""Progressive puncturing, exhaustive oracle, pattern expansion, sum capacity."""

import itertools
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcpolar import construction, puncturing
from rcpolar.channel import ChannelSpec
from rcpolar.construction import (
    bhattacharyya_bec,
    bit_error_prob,
    ga_evolve,
    ga_leaf_means,
)
from rcpolar.polar import PolarCodeSpec
from rcpolar.puncturing import (
    EnumerationBudgetError,
    ErasureDesign,
    GaussianDesign,
    PuncturingSequence,
    base_code,
    evaluate_patterns,
    exhaustive_search,
    expand_regular,
    ppa,
    reference_base32_sequence,
    sum_capacity_check,
)


def union_bound_of(spec, design):
    """Union bound of the unpunctured base code, from its reliability profile."""
    probe = PolarCodeSpec(n=spec.n, k=1, info_set=(1,), split=spec.split)
    if isinstance(design, GaussianDesign):
        prof = ga_evolve(probe, np.full(spec.N, design.mean_llr))
    else:
        prof = bhattacharyya_bec(probe, np.full(spec.N, design.epsilon))
    return float(np.sum(prof.error_prob[spec.info_zero_based]))


class TestPpa:
    def test_n2_tie_breaks_to_zero(self):
        design = ErasureDesign(epsilon=0.5)
        spec = base_code(1, 1, design)
        seq = ppa(spec, design)
        assert seq.order[0] == 0

    def test_eval_count(self):
        design = GaussianDesign.from_snr_db(2.0)
        spec = base_code(3, 3, design)
        seq = ppa(spec, design)
        assert seq.stats.metric_evals == 8 * 9 // 2

    def test_nesting_by_construction(self):
        design = GaussianDesign.from_snr_db(2.0)
        spec = base_code(4, 6, design)
        seq = ppa(spec, design)
        for m in range(16):
            assert set(seq.pattern(m)) <= set(seq.pattern(m + 1))

    def test_metric_monotone_in_m(self):
        design = GaussianDesign.from_snr_db(3.0)
        spec = base_code(4, 8, design)
        seq = ppa(spec, design)
        mets = [evaluate_patterns(spec, design, seq.pattern(m))[0] for m in range(17)]
        assert np.all(np.diff(mets) >= -1e-15)

    def test_n4_bec_matches_exhaustive_prefixes(self):
        design = ErasureDesign(epsilon=0.5)
        spec = base_code(2, 2, design)
        seq = ppa(spec, design)
        for m in (1, 2, 3):
            opt = exhaustive_search(spec, design, m)
            assert evaluate_patterns(spec, design, seq.pattern(m))[0] <= \
                evaluate_patterns(spec, design, opt)[0] * (1.0 + 1e-12)

    @pytest.mark.parametrize("p,k,design", [
        (3, 4, ErasureDesign(epsilon=0.4)),
        (4, 8, GaussianDesign.from_snr_db(3.0)),
    ])
    def test_near_optimality_small(self, p, k, design):
        spec = base_code(p, k, design)
        seq = ppa(spec, design)
        for m in range(1, (1 << p)):
            opt = exhaustive_search(spec, design, m)
            ratio = evaluate_patterns(spec, design, seq.pattern(m))[0] / \
                max(evaluate_patterns(spec, design, opt)[0], 1e-300)
            assert ratio <= 1.05, f"m={m}: ratio {ratio}"

    def test_reproduces_reference_sequence(self):
        design = GaussianDesign.from_snr_db(3.5)
        spec = base_code(5, 11, design)
        seq = ppa(spec, design)
        assert seq.order == reference_base32_sequence().order


class TestPpaMemo:
    """One GA check-node memo serves a whole PPA run; no metric bit may move."""

    @given(st.integers(2, 6), st.data(), st.floats(-2.0, 8.0))
    @settings(max_examples=20, deadline=None)
    def test_step_metrics_equal_fresh_evaluation(self, p, data, snr_db):
        N = 1 << p
        design = GaussianDesign.from_snr_db(snr_db)
        spec = base_code(p, data.draw(st.integers(1, N)), design)
        seq = ppa(spec, design)
        for m, (cands, met) in enumerate(zip(seq.stats.step_candidates, seq.stats.step_metrics)):
            prefix = np.tile(np.array(seq.order[:m], dtype=np.int64), (len(cands), 1))
            fresh = evaluate_patterns(spec, design, np.column_stack([prefix, cands]))
            assert np.array_equal(fresh.view(np.int64), met.view(np.int64)), f"step {m}"

    def test_check_node_calls(self, monkeypatch):
        # without the memo, base-32 PPA evaluates the check node once per
        # stage per step: 5 * 32 = 160 calls; a second run starts empty and
        # builds its own block table
        design = GaussianDesign.from_snr_db(3.5)
        spec = base_code(5, 11, design)
        calls, builds = [], []
        check = construction.ga_check_mean
        monkeypatch.setattr(construction, "ga_check_mean",
                            lambda a, b: calls.append(len(a)) or check(a, b))
        build = puncturing._block_table
        monkeypatch.setattr(puncturing, "_block_table",
                            lambda *args: builds.append(args[1]) or build(*args))
        ppa(spec, design)
        first = len(calls)
        assert first <= 45
        assert builds == [32]
        calls.clear()
        ppa(spec, design)
        assert len(calls) == first
        assert builds == [32, 32]


class TestEvaluatePatterns:
    @pytest.mark.parametrize("design", [GaussianDesign.from_snr_db(3.0),
                                        ErasureDesign(epsilon=0.4)])
    def test_empty_patterns(self, design):
        spec = base_code(4, 8, design)
        unpunctured = union_bound_of(spec, design)
        one = evaluate_patterns(spec, design, [])
        batch = evaluate_patterns(spec, design, np.empty((3, 0), dtype=np.int64))
        assert one.shape == (1,) and batch.shape == (3,)
        assert np.all(one == unpunctured) and np.all(batch == unpunctured)

    def test_metric_independent_of_batch(self):
        # Summing ep[:, info] along axis 1 took a different order for B = 1
        # than for B >= 2; this pattern read ...099 alone and ...094 in a batch.
        design = GaussianDesign.from_snr_db(3.0)
        spec = base_code(5, 16, design)
        pattern = [3, 17, 9]
        alone = evaluate_patterns(spec, design, pattern)[0]
        assert alone == 0.0013681674307815094
        for batch in ([pattern, [1, 2, 4]], [[0, 5, 6], pattern, [7, 8, 10]]):
            got = evaluate_patterns(spec, design, batch)
            assert got[batch.index(pattern)] == alone


    @pytest.mark.parametrize("bad", [[-1], [32], [3, 3], [[1, 2], [4, 4]], [1.7],
                                     [[0.0, 2.0], [1.0, 2.5]], [np.nan], [np.inf],
                                     [[0, 31], [0, 40]], [True]])
    def test_bad_positions_name_patterns(self, bad):
        # [-1] scored as [31], [3, 3] as [3] and [1.7] as [1]; [32] raised IndexError
        design = GaussianDesign.from_snr_db(3.0)
        spec = base_code(5, 16, design)
        with pytest.raises(ValueError, match="patterns"):
            evaluate_patterns(spec, design, bad)

    @pytest.mark.parametrize("design", [GaussianDesign.from_snr_db(3.0),
                                        ErasureDesign(epsilon=0.4)])
    def test_whole_float_positions_score_as_integers(self, design):
        spec = base_code(5, 16, design)
        pats = [[3, 17, 9], [0, 31, 4]]
        want = evaluate_patterns(spec, design, pats)
        got = evaluate_patterns(spec, design, np.array(pats, dtype=float))
        assert got.tolist() == want.tolist()

    def test_search_batches_skip_validation(self, monkeypatch):
        # exhaustive_search draws valid patterns itself and evaluates them
        # without the public call's checks
        design = GaussianDesign.from_snr_db(3.0)
        spec = base_code(4, 8, design)
        want = exhaustive_search(spec, design, 3, budget=0, n_samples=300, batch=64)
        monkeypatch.setattr(puncturing, "evaluate_patterns", None)
        assert exhaustive_search(spec, design, 3, budget=0, n_samples=300, batch=64) == want


def alive_of(pats, N):
    """Alive masks of a (B, m) pattern batch, built apart from the library's helper."""
    alive = np.ones((len(pats), N), dtype=bool)
    if pats.size:
        np.put_along_axis(alive, pats, False, axis=1)
    return alive


def drawn_patterns(r, m):
    """The sampled search's patterns as it drew them before alive masks:
    the positions of each row's m smallest draws, by ``np.argsort``."""
    return np.argsort(r, axis=1)[:, :m]


class TestPatternErrorProbs:
    """GA error probabilities over the value table equal the elementwise ones."""

    @staticmethod
    def elementwise(design, alive):
        return bit_error_prob(ga_leaf_means(np.where(alive, design.mean_llr, 0.0)))

    @given(st.integers(1, 6), st.data(), st.floats(-5.0, 12.0))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical(self, p, data, snr_db):
        N = 1 << p
        design = GaussianDesign.from_snr_db(snr_db)
        # up to 4,096 patterns, so the stages' lookup table is both admitted and refused
        B = data.draw(st.integers(1, 4096))
        m = data.draw(st.integers(0, N))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        alive = alive_of(drawn_patterns(rng.random((B, N)), m), N)
        got = puncturing._pattern_error_probs(design, N, alive, slice(None))
        want = self.elementwise(design, alive)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # the searches read only the information columns, each taken as one row
        cols = np.flatnonzero(rng.random(N) < 0.5)
        got = puncturing._pattern_error_probs(design, N, alive, cols)
        assert np.array_equal(got.view(np.int64), want[:, cols].view(np.int64))

    @pytest.mark.parametrize("p", [1, 2, 7, 10])
    @pytest.mark.parametrize("B", [1, 3, 257])
    def test_bit_identical_past_drawn_lengths(self, p, B):
        # p = 7 and 10 run 4 and 7 stages after the block table; at p = 1
        # and 2 one block, shorter than 8, covers the whole code
        N = 1 << p
        design = GaussianDesign.from_snr_db(3.0)
        rng = np.random.default_rng(1000 * p + B)
        for m in sorted({0, 1, N // 2, N}):
            alive = alive_of(drawn_patterns(rng.random((B, N)), m), N)
            got = puncturing._pattern_error_probs(design, N, alive, slice(None))
            want = self.elementwise(design, alive)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), f"m = {m}"

    @pytest.mark.parametrize("p,m", [(2, 1), (5, 0), (5, 7), (6, 40)])
    def test_ppa_step_batch(self, p, m):
        # PPA's shape: every row punctures one prefix plus one candidate of
        # its own, and the memo and block table are shared between calls
        N = 1 << p
        design = GaussianDesign.from_snr_db(2.5)
        prefix = np.random.default_rng(p).permutation(N)[:m]
        cands = np.setdiff1d(np.arange(N), prefix)
        alive = alive_of(np.column_stack([np.tile(prefix, (len(cands), 1)), cands]), N)
        memo: dict = {}
        table = puncturing._block_table(design, N, memo)
        want = self.elementwise(design, alive)
        for _ in range(2):
            got = puncturing._pattern_error_probs(design, N, alive, slice(None), memo, table)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("cap", ["lookup", "unique"])
    def test_search_batch(self, cap):
        # the sampled search's shape: 65,536 patterns of 10 positions on base
        # 32, with the stages' lookup table as configured or never admitted;
        # the reference runs on float means through the other setting
        design = GaussianDesign.from_snr_db(3.0)
        alive = puncturing._drawn_alive(np.random.default_rng(1).random((65_536, 32)), 10)
        caps = {"lookup": construction._DENSE_CAP, "unique": 0}
        other = {"lookup": "unique", "unique": "lookup"}[cap]
        with mock.patch.object(construction, "_DENSE_CAP", caps[cap]):
            got = puncturing._pattern_error_probs(design, 32, alive, slice(None))
        with mock.patch.object(construction, "_DENSE_CAP", caps[other]):
            want = self.elementwise(design, alive)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("shape", [(1, 0), (3, 0)])
    def test_empty_patterns(self, shape):
        design = GaussianDesign.from_snr_db(3.0)
        alive = alive_of(np.empty(shape, dtype=np.int64), 16)
        got = puncturing._pattern_error_probs(design, 16, alive, slice(None))
        assert np.array_equal(got.view(np.int64), self.elementwise(design, alive).view(np.int64))


class TestDrawnAlive:
    """The sampled search's sort-threshold masks puncture the argsort prefixes."""

    @given(st.integers(1, 64), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_argsort_prefix(self, N, data):
        m = data.draw(st.one_of(st.just(0), st.just(N), st.integers(0, N)))
        B = data.draw(st.integers(1, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # a coarse grid ties draws anywhere in a row; planted ties sit at the
        # threshold (the m-th and (m+1)-th smallest) and below it
        grid = data.draw(st.sampled_from([None, 2, 3, 5, 1 << 20]))
        r = rng.random((B, N)) if grid is None else rng.integers(0, grid, (B, N)) / grid
        order = np.argsort(r, axis=1)
        rows = np.arange(B)
        if 0 < m < N:
            at = rows[rng.random(B) < 0.5]
            r[at, order[at, m]] = r[at, order[at, m - 1]]
        if m >= 2:
            below = rows[rng.random(B) < 0.5]
            j = rng.integers(1, m, len(below))
            r[below, order[below, j - 1]] = r[below, order[below, j]]
        got = puncturing._drawn_alive(r, m)
        assert np.array_equal(got, alive_of(drawn_patterns(r, m), N))

    @pytest.mark.parametrize("N,m", [(2, 1), (32, 10), (64, 63)])
    def test_threshold_tie_splits_as_argsort(self, N, m):
        # every row's m-th and (m+1)-th smallest draws are equal, so a plain
        # threshold would puncture m + 1 positions
        r = np.random.default_rng(N + m).random((50, N))
        order = np.argsort(r, axis=1)
        rows = np.arange(50)
        r[rows, order[:, m]] = r[rows, order[:, m - 1]]
        got = puncturing._drawn_alive(r, m)
        assert np.all(got.sum(axis=1) == N - m)
        assert np.array_equal(got, alive_of(drawn_patterns(r, m), N))


def reference_sampled_search(spec, design, m, n_samples, seed, batch):
    """The sampled search as it ran on argsort patterns: draw each batch,
    score it with the public call and keep the first best pattern."""
    N = spec.N
    rng = np.random.default_rng(np.random.SeedSequence((seed, N, m)))
    best_met, best_pat = np.inf, None
    for s in range(0, n_samples, batch):
        pats = drawn_patterns(rng.random((min(batch, n_samples - s), N)), m)
        met = evaluate_patterns(spec, design, pats)
        i = int(np.argmin(met))
        if met[i] < best_met:
            best_met, best_pat = met[i], pats[i]
    return tuple(int(c) for c in np.sort(best_pat))


class TestExhaustive:
    def test_m0_is_empty(self):
        design = ErasureDesign(epsilon=0.3)
        spec = base_code(3, 4, design)
        assert exhaustive_search(spec, design, 0) == ()
        assert exhaustive_search(spec, design, 0, budget=0, n_samples=5) == ()

    def test_n8_bec_brute_force(self):
        design = ErasureDesign(epsilon=0.4)
        spec = base_code(3, 4, design)
        got = exhaustive_search(spec, design, 2)
        best = min(
            itertools.combinations(range(8), 2),
            key=lambda pat: (evaluate_patterns(spec, design, pat)[0], pat),
        )
        assert got == best

    def test_budget_guard(self):
        design = GaussianDesign.from_snr_db(3.0)
        spec = base_code(5, 16, design)
        with pytest.raises(EnumerationBudgetError):
            exhaustive_search(spec, design, 10, budget=1000)

    @pytest.mark.parametrize("m,kwargs,field", [
        (10, dict(budget=1000, n_samples=0), "n_samples"),
        (10, dict(budget=1000, n_samples=5, batch=0), "batch"),
        (3, dict(batch=0), "batch"),
    ], ids=["no-samples", "sampled-empty-batch", "enumerated-empty-batch"])
    def test_rejects_empty_search(self, m, kwargs, field):
        design = GaussianDesign.from_snr_db(3.0)
        spec = base_code(5, 16, design)
        with pytest.raises(ValueError, match=field):
            exhaustive_search(spec, design, m, **kwargs)

    @pytest.mark.parametrize("design", [GaussianDesign.from_snr_db(3.0),
                                        ErasureDesign(epsilon=0.4)])
    def test_same_pattern_for_any_batch(self, design):
        # at m=3 on base 16, 64 (GA) and 320 (BEC) of the 560 patterns tie
        # for the best metric, so the first of them in the stream must win
        # however the stream is cut into batches
        spec = base_code(4, 8, design)
        enumerated = {exhaustive_search(spec, design, 3, batch=b) for b in (1, 7, comb(16, 3))}
        assert len(enumerated) == 1
        sampled = {exhaustive_search(spec, design, 3, budget=0, n_samples=300, batch=b)
                   for b in (1, 64, 300, 1000)}
        assert len(sampled) == 1

    @pytest.mark.parametrize("design", [GaussianDesign.from_snr_db(3.0),
                                        ErasureDesign(epsilon=0.4)], ids=["ga", "bec"])
    @pytest.mark.parametrize("p,k,m", [(4, 8, 5), (5, 16, 10), (5, 11, 1), (6, 22, 40)])
    @pytest.mark.parametrize("n_samples,batch", [(300, 64), (1000, 1000), (2049, 512)])
    def test_sampled_search_equals_argsort_stream(self, design, p, k, m, n_samples, batch):
        spec = base_code(p, k, design)
        for seed in (0, 1, 7):
            want = reference_sampled_search(spec, design, m, n_samples, seed, batch)
            got = exhaustive_search(spec, design, m, budget=0, n_samples=n_samples,
                                    seed=seed, batch=batch)
            assert got == want, f"seed {seed}"

    @pytest.mark.parametrize("design", [GaussianDesign.from_snr_db(3.0),
                                        ErasureDesign(epsilon=0.4)], ids=["ga", "bec"])
    @pytest.mark.parametrize("p,k", [(1, 1), (3, 4), (5, 16)])
    def test_enumerated_search_equals_itertools(self, design, p, k):
        # every m-subset from itertools, scored in one batch of the public
        # call; the first smallest metric wins, whatever batches the search
        # cuts its stream into (m = 0 and m = N give one pattern each)
        spec = base_code(p, k, design)
        N = spec.N
        for m in sorted({0, 1, 2 % N, N - 1, N}):
            pats = list(itertools.combinations(range(N), m))
            met = evaluate_patterns(spec, design,
                                    np.array(pats, dtype=np.int64).reshape(len(pats), m))
            want = pats[int(np.argmin(met))]
            for batch in (len(pats), 5, 1):
                got = exhaustive_search(spec, design, m, batch=batch)
                assert got == want, (m, batch)
                assert evaluate_patterns(spec, design, got)[0] == met.min()

    def test_sampled_search_deterministic(self):
        design = GaussianDesign.from_snr_db(3.0)
        spec = base_code(5, 16, design)
        a = exhaustive_search(spec, design, 10, budget=1000, n_samples=2000, seed=5)
        b = exhaustive_search(spec, design, 10, budget=1000, n_samples=2000, seed=5)
        assert a == b


class TestSequenceFormat:
    def test_round_trip(self):
        seq = PuncturingSequence(base_len=4, order=(2, 0, 3, 1))
        assert PuncturingSequence.from_text(seq.to_text()).order == seq.order

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            PuncturingSequence(base_len=4, order=(0, 1, 1, 3))

    def test_reference_asset(self):
        seq = reference_base32_sequence()
        assert seq.base_len == 32
        assert sorted(seq.order) == list(range(32))
        assert seq.order[:4] == (0, 16, 8, 24)

    def test_base_length_fixes_split(self):
        seq = reference_base32_sequence()
        assert [seq.split(n) for n in (5, 8, 10)] == [(5, 0), (5, 3), (5, 5)]
        for bad, n in [(seq, 4), (PuncturingSequence(base_len=3, order=(2, 0, 1)), 4),
                       (PuncturingSequence(base_len=1, order=(0,)), 4)]:
            with pytest.raises(ValueError, match=r"not a power of two from 2 to 2\^n"):
                bad.split(n)


class TestExpandRegular:
    def test_m0(self):
        spec = PolarCodeSpec(n=4, k=16, info_set=tuple(range(1, 17)), split=(2, 2))
        seq = PuncturingSequence(base_len=4, order=(0, 2, 1, 3))
        assert expand_regular(seq, spec, 0) == ()

    def test_small_example(self):
        spec = PolarCodeSpec(n=4, k=16, info_set=tuple(range(1, 17)), split=(2, 2))
        seq = PuncturingSequence(base_len=4, order=(0, 2, 1, 3))
        assert expand_regular(seq, spec, 1) == (0, 4, 8, 12)

    def test_large_column(self):
        spec = PolarCodeSpec(n=12, k=1, info_set=(4096,), split=(5, 7))
        pat = expand_regular(reference_base32_sequence(), spec, 1)
        assert len(pat) == 128
        assert all(p % 32 == 0 for p in pat)

    def test_row_translation_invariance(self):
        spec = PolarCodeSpec(n=8, k=1, info_set=(256,), split=(5, 3))
        seq = reference_base32_sequence()
        for m in (1, 3, 7):
            pat = set(expand_regular(seq, spec, m))
            shifted = {(p + 32) % 256 for p in pat}
            assert shifted == pat

    def test_m_out_of_range(self):
        spec = PolarCodeSpec(n=4, k=16, info_set=tuple(range(1, 17)), split=(2, 2))
        seq = PuncturingSequence(base_len=4, order=(0, 2, 1, 3))
        with pytest.raises(ValueError):
            expand_regular(seq, spec, 5)

    def test_split_mismatch(self):
        spec = PolarCodeSpec(n=4, k=16, info_set=tuple(range(1, 17)), split=(3, 1))
        seq = PuncturingSequence(base_len=4, order=(0, 2, 1, 3))
        with pytest.raises(ValueError):
            expand_regular(seq, spec, 1)


class TestSumCapacity:
    def test_no_puncturing(self):
        lhs, rhs = sum_capacity_check(8, (), ChannelSpec(kind="bec", epsilon=0.3))
        assert rhs == pytest.approx(8 * 0.7)
        assert abs(lhs - rhs) < 1e-12

    def test_fully_punctured(self):
        lhs, rhs = sum_capacity_check(4, (0, 1, 2, 3), ChannelSpec(kind="bec", epsilon=0.2))
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_n2_single(self):
        chan = ChannelSpec(kind="bec", epsilon=0.5)
        for pat in ((0,), (1,)):
            lhs, rhs = sum_capacity_check(2, pat, chan)
            assert lhs == pytest.approx(0.5, abs=1e-12)
            assert rhs == pytest.approx(0.5, abs=1e-12)

    def test_requires_erasure_channel(self):
        with pytest.raises(ValueError):
            sum_capacity_check(4, (0,), ChannelSpec(kind="awgn", snr_db=1.0))

    @pytest.mark.parametrize("bad", [[1.5, 2.9], [True], [-1], [4], [2, 2], [[0, 1]]])
    def test_bad_positions_name_patterns(self, bad):
        # [1.5, 2.9] was checked as (1, 2) and [True] as (1,)
        with pytest.raises(ValueError, match="patterns"):
            sum_capacity_check(4, bad, ChannelSpec(kind="bec", epsilon=0.3))

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("Np", [2, 4, 8])
    def test_exact_for_all_patterns(self, Np, eps):
        chan = ChannelSpec(kind="bec", epsilon=eps)
        for r in range(Np + 1):
            for pat in itertools.combinations(range(Np), r):
                lhs, rhs = sum_capacity_check(Np, pat, chan)
                assert abs(lhs - rhs) <= 1e-12
