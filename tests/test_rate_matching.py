"""Matrix arrangement, circular reading, LLR folding, class assignment.

Every emission order is read from ``build_tx_map(rm, plan).emit_idx``: the
codeword position carried by each transmitted bit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcpolar.channel import BPSK, QAM16, QAM64, ChannelSpec
from rcpolar import _workspace
from rcpolar.polar import PolarCodeSpec
from rcpolar.puncturing import PuncturingSequence, expand_regular, reference_base32_sequence
from rcpolar.rate_matching import (
    RateMatcher,
    TxPlan,
    _fold,
    build_tx_map,
    de_rate_match,
    transmit_codeword_llrs,
)


def simple_rm(n=4, split=(2, 2), order=(0, 2, 1, 3), mod=BPSK, **kw):
    N = 1 << n
    spec = PolarCodeSpec(n=n, k=N, info_set=tuple(range(1, N + 1)), split=split)
    seq = PuncturingSequence(base_len=1 << split[0], order=order)
    return RateMatcher(spec=spec, sequence=seq, modulation=mod, **kw)


def natural_order_matcher(n):
    """The full-rate length-2^n code sent without rate matching: split (n, 0)
    and the sequence N-1, ..., 0, whose reverse reads column 0 first."""
    return simple_rm(n=n, split=(n, 0), order=range((1 << n) - 1, -1, -1))


def big_rm(mod=BPSK, split=(5, 7), **kw):
    n = split[0] + split[1]
    N = 1 << n
    spec = PolarCodeSpec(n=n, k=N, info_set=tuple(range(1, N + 1)), split=split)
    return RateMatcher(spec=spec, sequence=reference_base32_sequence(),
                       modulation=mod, **kw)


def emit(rm, L):
    """Codeword position of each bit of a first transmission of L bits."""
    return build_tx_map(rm, TxPlan(L=L, t=1, r=1, mode="cc")).emit_idx


def assign_bicm_columns(rm, plan):
    """Reliability class of each touched column slot, in reading order."""
    _, q = rm.spec.split
    return build_tx_map(rm, plan).bit_class[:: 1 << q]


def reference_emission(rm, plan):
    """The paper's reading, built from the matrix itself.

    Lay the codeword out row-wise in a 2^q x 2^p matrix, take its columns in
    reading order from the start column, read them column-wise, and wrap
    circularly to L bits.
    """
    p, q = rm.spec.split
    matrix = np.arange(rm.spec.N).reshape(1 << q, 1 << p)
    start = rm.start_column(plan)
    order = rm.read_columns[start:] + rm.read_columns[:start]
    return np.resize(np.concatenate([matrix[:, c] for c in order]), plan.L)


@st.composite
def matcher_and_plan(draw):
    p = draw(st.integers(1, 5))
    q = draw(st.integers(0, 3))
    N = 1 << (p + q)
    spec = PolarCodeSpec(n=p + q, k=N, info_set=tuple(range(1, N + 1)), split=(p, q))
    seq = PuncturingSequence(base_len=1 << p, order=tuple(draw(st.permutations(range(1 << p)))))
    mod = draw(st.sampled_from([BPSK, QAM16, QAM64]))
    rm = RateMatcher(spec=spec, sequence=seq, modulation=mod, shift_cc_bicm=draw(st.booleans()))
    t = draw(st.integers(1, 4))
    plan = TxPlan(L=draw(st.integers(1, 3 * N)), t=t, r=draw(st.integers(1, t)),
                  mode=draw(st.sampled_from(["cc", "ir"])))
    return rm, plan


class TestArrange:
    """The 2^q x 2^p arrangement as the transmitted stream reads it."""

    def test_small_direct(self):
        # [[x1, x2], [x3, x4]] read column 2 first, then column 1
        rm = simple_rm(n=2, split=(1, 1), order=(0, 1))
        assert np.array_equal(emit(rm, 4), [1, 3, 0, 2])

    def test_element_formula(self):
        rm = simple_rm()
        # row 2, column 3 holds x_7: column 3 is the third read, row 2 its second bit
        assert rm.read_columns.index(2) == 2
        assert emit(rm, 16)[2 * 4 + 1] == 6

    def test_4096_shape_first_row(self):
        rm = big_rm()
        cols = emit(rm, 4096).reshape(32, 128)
        for slot, c in enumerate(rm.read_columns):
            assert np.array_equal(cols[slot], c + 32 * np.arange(128))
        # the first row is x_1..x_32
        assert sorted(cols[:, 0].tolist()) == list(range(32))

    def test_length_mismatch(self):
        rm = simple_rm()
        with pytest.raises(ValueError):
            de_rate_match(np.ones((2, 15)), rm, TxPlan(L=16, t=1, r=1, mode="cc"))

    @given(matcher_and_plan())
    @settings(max_examples=300, deadline=None)
    def test_matches_matrix_reference(self, case):
        rm, plan = case
        want = reference_emission(rm, plan)
        assert np.array_equal(build_tx_map(rm, plan).emit_idx, want)
        acc = de_rate_match(np.ones(plan.L), rm, plan)
        counts = np.bincount(want, minlength=rm.spec.N)
        assert np.array_equal(acc, counts)
        never_read = counts == 0
        assert np.all(acc[never_read] == 0.0) and not np.any(np.signbit(acc[never_read]))


class TestRateMatch:
    def test_full_length_is_permutation(self):
        rm = simple_rm()
        out = emit(rm, 16)
        assert sorted(out.tolist()) == list(range(16))

    def test_reverse_order_reading(self):
        rm = simple_rm()
        assert rm.read_columns == (3, 1, 2, 0)
        out = emit(rm, 12)
        assert set(range(16)) - set(out.tolist()) == {0, 4, 8, 12}

    def test_ir_start_column(self):
        rm = big_rm()
        plan = TxPlan(L=128, t=4, r=2, mode="ir")
        assert rm.start_column(plan) == 8  # 1-based column 9

    def test_cc_always_starts_first_column(self):
        rm = big_rm()
        for r in (1, 2, 3, 4):
            assert rm.start_column(TxPlan(L=128, t=4, r=r, mode="cc")) == 0

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            TxPlan(L=0, t=1, r=1, mode="cc")

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_circularity(self, L, c):
        rm = simple_rm()
        N = 16
        short = emit(rm, L)
        longer = emit(rm, L + N * c)
        assert np.array_equal(longer[:L], short)
        counts = np.bincount(longer, minlength=N)
        base = np.bincount(short, minlength=N)
        assert np.array_equal(counts, base + c)

    @pytest.mark.parametrize("m", range(0, 33))
    def test_puncture_set_identity(self, m):
        # never-emitted positions at L = N - m*2^q match column expansion
        rm = big_rm(split=(5, 3))
        N = rm.spec.N
        L = N - m * 8
        if L == 0:
            return
        emitted = set(emit(rm, L).tolist())
        expected = set(expand_regular(rm.sequence, rm.spec, m))
        assert set(range(N)) - emitted == expected

    def test_column_integrity(self):
        # every aligned run of 2^q transmitted bits stays inside one column
        rm = big_rm(split=(5, 3))
        out = emit(rm, rm.spec.N)
        for s in range(0, rm.spec.N, 8):
            cols = set((out[s : s + 8] % 32).tolist())
            assert len(cols) == 1


def signed_zero_values(rng, shape):
    """Normal values with about a fifth -0.0 and a tenth +0.0."""
    values = rng.normal(size=shape)
    values[rng.random(shape) < 0.2] = -0.0
    values[rng.random(shape) < 0.1] = 0.0
    return values


class TestNaturalOrderMatcher:
    """At L = N the natural-order matcher sends the codeword as it is."""

    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_map_is_identity(self, n):
        N = 1 << n
        tm = build_tx_map(natural_order_matcher(n), TxPlan(L=N, t=1, r=1, mode="cc"))
        assert np.array_equal(tm.emit_idx, np.arange(N))
        assert np.array_equal(tm.stream_to_symbit, np.arange(N))

    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_fold_returns_its_input_but_negative_zero(self, n):
        N = 1 << n
        values = signed_zero_values(np.random.default_rng(n), (4, N))
        values[0, :2] = [-0.0, 5e-324]
        values[1, :2] = [np.inf, -np.inf]
        got = de_rate_match(values, natural_order_matcher(n), TxPlan(L=N, t=1, r=1, mode="cc"))
        expect = np.where(values == 0.0, 0.0, values)   # -0.0 becomes +0.0
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))
        assert got.view(np.int64)[0, 0] == 0


class TestDeRateMatch:
    def test_round_trip_identity(self):
        rm = simple_rm()
        plan = TxPlan(L=16, t=1, r=1, mode="cc")
        llrs = np.random.default_rng(0).normal(size=16)
        stream = llrs[build_tx_map(rm, plan).emit_idx]
        acc = de_rate_match(stream, rm, plan)
        assert np.allclose(acc, llrs)

    def test_wrapped_column_sums(self):
        rm = simple_rm()
        plan = TxPlan(L=20, t=1, r=1, mode="cc")
        stream = np.ones(20)
        acc = de_rate_match(stream, rm, plan)
        first_col = rm.read_columns[0]
        doubled = [r * 4 + first_col for r in range(4)]
        expect = np.ones(16)
        expect[doubled] = 2.0
        assert np.array_equal(acc, expect)

    def test_additivity_two_passes(self):
        rm = simple_rm()
        plan = TxPlan(L=12, t=2, r=1, mode="cc")
        s1, s2 = np.random.default_rng(1).normal(size=(2, 12))
        once = de_rate_match(s1, rm, plan)
        # each call folds into a fresh zeroed array, so folds add
        assert np.allclose(once + de_rate_match(s2, rm, plan), de_rate_match(s1 + s2, rm, plan))
        assert np.array_equal(de_rate_match(s1, rm, plan), once)

    def test_untouched_positions_stay_zero(self):
        rm = simple_rm()
        plan = TxPlan(L=12, t=1, r=1, mode="cc")
        acc = de_rate_match(np.ones(12), rm, plan)
        assert np.all(acc[[0, 4, 8, 12]] == 0.0)

    def test_batched(self):
        rm = simple_rm()
        plan = TxPlan(L=16, t=1, r=1, mode="cc")
        llrs = np.random.default_rng(2).normal(size=(5, 16))
        stream = llrs[:, build_tx_map(rm, plan).emit_idx]
        acc = de_rate_match(stream, rm, plan)
        assert acc.shape == (5, 16)
        assert np.allclose(acc, llrs)

    @given(matcher_and_plan(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_fold_bits_match_scatter_of_each_row(self, case, seed):
        # each position adds its terms in stream order onto +0.0, signed zeros included
        rm, plan = case
        values = signed_zero_values(np.random.default_rng(seed), (3, plan.L))
        idx = build_tx_map(rm, plan).emit_idx
        got = de_rate_match(values, rm, plan)
        for row, v in zip(got, values):
            want = np.zeros(rm.spec.N)
            np.add.at(want, idx, v)
            assert np.array_equal(row.view(np.int64), want.view(np.int64))
        assert np.array_equal(de_rate_match(values[1], rm, plan).view(np.int64),
                              got[1].view(np.int64))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_fold_of_random_maps_equals_add_at(self, data):
        # any map, repeats in any order included, against np.add.at's sum
        N = data.draw(st.integers(1, 64))
        L = data.draw(st.integers(1, 3 * N))
        B = data.draw(st.sampled_from([1, 7]))
        idx = np.array(data.draw(st.lists(st.integers(0, N - 1), min_size=L, max_size=L)))
        values = signed_zero_values(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                                    (B, L))
        want = np.zeros((B, N))
        np.add.at(want, (np.arange(B)[:, None], idx[None, :]), values)
        got = _fold(values, idx, N)
        assert got.shape == (B, N) and got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("B", [1, 7])
    @pytest.mark.parametrize("mode", ["cc", "ir"])
    @pytest.mark.parametrize("shift", [False, True])
    @pytest.mark.parametrize("L", [384, 1024, 1500, 3072])
    def test_fold_of_tx_maps_equals_add_at(self, B, mode, shift, L):
        # each map is folded at B rows, then fewer (a prefix of the kept bins
        # array), then more (the array is replaced by a larger one)
        rm = big_rm(mod=QAM16, split=(5, 5), shift_cc_bicm=shift)
        sizes = (B, B // 2, 2 * B + 1)
        values = signed_zero_values(np.random.default_rng(L + B), (max(sizes), L))
        for r in (1, 2, 3):
            plan = TxPlan(L=L, t=3, r=r, mode=mode)
            idx = build_tx_map(rm, plan).emit_idx
            for rows in sizes:
                want = np.zeros((rows, rm.spec.N))
                np.add.at(want, (np.arange(rows)[:, None], idx[None, :]), values[:rows])
                got = de_rate_match(values[:rows], rm, plan)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("L", [300, 1500])
    def test_fold_of_two_maps_at_one_size_equals_add_at(self, L, monkeypatch):
        # from an empty workspace, the second map's bins overwrite the first's
        # in the same kept array
        monkeypatch.setattr(_workspace, "_local", type(_workspace._local)())
        rm = big_rm(mod=QAM16, split=(5, 5))
        values = signed_zero_values(np.random.default_rng(L), (5, L))
        plans = [TxPlan(L=L, t=3, r=r, mode="ir") for r in (1, 2, 1)]
        maps = [build_tx_map(rm, plan).emit_idx for plan in plans]
        assert not np.array_equal(maps[0], maps[1])
        for plan, idx in zip(plans, maps):
            want = np.zeros((5, rm.spec.N))
            np.add.at(want, (np.arange(5)[:, None], idx[None, :]), values)
            got = de_rate_match(values, rm, plan)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_fold_past_the_workspace_budget_equals_add_at(self, monkeypatch):
        # bins of 3 x 300 fit in 8 KiB and are kept; bins of 9 x 300 do not,
        # so they are built in a fresh array on every call
        monkeypatch.setattr(_workspace, "KEEP_BYTES", 8 << 10)
        monkeypatch.setattr(_workspace, "_local", type(_workspace._local)())
        rm = big_rm(mod=QAM16, split=(5, 5))
        plan = TxPlan(L=300, t=1, r=1, mode="cc")
        idx = build_tx_map(rm, plan).emit_idx
        values = signed_zero_values(np.random.default_rng(9), (9, 300))
        for rows in (3, 9, 9, 3):
            want = np.zeros((rows, rm.spec.N))
            np.add.at(want, (np.arange(rows)[:, None], idx[None, :]), values[:rows])
            got = de_rate_match(values[:rows], rm, plan)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert _workspace._local.kept["fold bins"].size == 3 * 300

    def test_empty_batch(self):
        rm = simple_rm()
        got = de_rate_match(np.ones((0, 20)), rm, TxPlan(L=20, t=1, r=1, mode="cc"))
        assert got.shape == (0, 16) and got.dtype == np.float64

    def test_length_mismatch(self):
        rm = simple_rm()
        plan = TxPlan(L=12, t=1, r=1, mode="cc")
        with pytest.raises(ValueError):
            de_rate_match(np.ones(11), rm, plan)


class TestTransmitCodewordLlrs:
    # a codeword of any length but N is refused before the rate matching
    # reads it, batched or not
    @pytest.mark.parametrize("shape", [(20,), (10,), (3, 20), (3, 10)])
    def test_codeword_length_mismatch_names_length_and_n(self, shape):
        rm = simple_rm()
        plan = TxPlan(L=12, t=1, r=1, mode="cc")
        with pytest.raises(ValueError, match=f"codeword length {shape[-1]} does not match N = 16"):
            transmit_codeword_llrs(np.zeros(shape, dtype=np.uint8), rm, plan,
                                   ChannelSpec(kind="awgn", snr_db=3.0), np.random.default_rng(0))


class TestBicmAssignment:
    def test_bpsk_single_class(self):
        rm = simple_rm()
        classes = assign_bicm_columns(rm, TxPlan(L=16, t=1, r=1, mode="cc"))
        assert np.all(classes == 0)

    def test_qam16_halves(self):
        rm = big_rm(mod=QAM16)
        classes = assign_bicm_columns(rm, TxPlan(L=4096, t=1, r=1, mode="cc"))
        assert len(classes) == 32
        assert np.all(classes[:16] == 0) and np.all(classes[16:] == 1)

    def test_qam64_three_groups_earlier_larger(self):
        rm = big_rm(mod=QAM64)
        classes = assign_bicm_columns(rm, TxPlan(L=4096, t=1, r=1, mode="cc"))
        counts = np.bincount(classes)
        assert counts.tolist() == [11, 11, 10]

    def test_ir_shift(self):
        rm = big_rm(mod=QAM16)
        c1 = assign_bicm_columns(rm, TxPlan(L=4096, t=4, r=1, mode="ir"))
        plan2 = TxPlan(L=4096, t=4, r=2, mode="ir")
        c2 = assign_bicm_columns(rm, plan2)
        # reading order for r=2 starts 8 slots later, so the class of a
        # physical column shifts by 8 slots relative to r=1
        start = rm.start_column(plan2)
        assert start == 8
        phys_r1 = {rm.read_columns[i]: c1[i] for i in range(32)}
        phys_r2 = {rm.read_columns[(start + i) % 32]: c2[i] for i in range(32)}
        shifted = {rm.read_columns[(i + start) % 32]: phys_r1[rm.read_columns[i]]
                   for i in range(32)}
        assert phys_r2 == shifted

    def test_cc_no_shift_by_default(self):
        rm = big_rm(mod=QAM16)
        c1 = assign_bicm_columns(rm, TxPlan(L=4096, t=4, r=1, mode="cc"))
        c3 = assign_bicm_columns(rm, TxPlan(L=4096, t=4, r=3, mode="cc"))
        assert np.array_equal(c1, c3)

    def test_cc_shift_flag(self):
        rm = big_rm(mod=QAM16, shift_cc_bicm=True)
        c1 = assign_bicm_columns(rm, TxPlan(L=4096, t=4, r=1, mode="cc"))
        c2 = assign_bicm_columns(rm, TxPlan(L=4096, t=4, r=2, mode="cc"))
        assert not np.array_equal(c1, c2)
        assert np.array_equal(np.roll(c1, 8), c2)


class TestTxMap:
    def test_bpsk_identity(self):
        rm = simple_rm()
        tm = build_tx_map(rm, TxPlan(L=16, t=1, r=1, mode="cc"))
        assert np.array_equal(tm.stream_to_symbit, np.arange(16))
        assert tm.n_symbols == 16

    @given(matcher_and_plan())
    @settings(max_examples=100, deadline=None)
    def test_bpsk_is_one_class_one_bit_a_symbol(self, case):
        rm, plan = case
        tm = build_tx_map(dataclasses.replace(rm, modulation=BPSK), plan)
        assert np.array_equal(tm.stream_to_symbit, np.arange(plan.L))
        assert tm.n_symbols == plan.L and not tm.bit_class.any()

    def test_qam16_full_length_no_padding(self):
        rm = big_rm(mod=QAM16)
        tm = build_tx_map(rm, TxPlan(L=4096, t=1, r=1, mode="cc"))
        assert tm.n_symbols == 1024
        assert len(set(tm.stream_to_symbit.tolist())) == 4096

    @pytest.mark.parametrize("mod", [QAM16, QAM64], ids=["qam16", "qam64"])
    def test_class_bits_land_in_class_positions(self, mod):
        # symbol-bit positions {0,1} carry class 0, {2,3} class 1, {4,5} class 2
        rm = big_rm(mod=mod)
        plan = TxPlan(L=4096, t=1, r=1, mode="cc")
        tm = build_tx_map(rm, plan)
        classes = assign_bicm_columns(rm, plan)
        cls_of_stream = classes[np.arange(4096) // 128]
        sym_pos = tm.stream_to_symbit % mod.bits_per_symbol
        assert np.all((sym_pos // 2) == cls_of_stream)

    def test_partial_column_padding(self):
        rm = big_rm(mod=QAM16)
        tm = build_tx_map(rm, TxPlan(L=130, t=1, r=1, mode="cc"))
        # 130 bits over two classes; the uneven split pads to a symbol boundary
        assert tm.n_symbols * 4 >= 130
        assert len(set(tm.stream_to_symbit.tolist())) == 130
