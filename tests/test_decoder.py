"""SC decoder: node functions, exact recovery, maximum-likelihood comparison."""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rcpolar import decoder
from rcpolar.channel import QAM16
from rcpolar.construction import (
    bhattacharyya_bec,
    design_code,
    design_mean_llr,
    ga_evolve,
    select_information_set,
)
from rcpolar.decoder import check_llr, genie_sc_decode, sc_decode, var_llr
from rcpolar.polar import PolarCodeSpec, bit_reversal_permutation, encode, polar_transform
from rcpolar.puncturing import reference_base32_sequence

INF = 300.0


def make_spec(n, k, eps=0.3, split=None):
    N = 1 << n
    probe = PolarCodeSpec(n=n, k=N, info_set=tuple(range(1, N + 1)),
                          split=split or (n, 0))
    prof = bhattacharyya_bec(probe, np.full(N, eps))
    info = select_information_set(prof, k)
    return PolarCodeSpec(n=n, k=k, info_set=info, split=split or (n, 0))


def _exact_check(a, b):
    """The check node as it was before the zero rule: the exact rule's two
    ``logaddexp`` calls on every element."""
    return np.logaddexp(0.0, a + b) - np.logaddexp(a, b)


# finite edge values: signed zeros, subnormals, values whose check node
# rounds to 0, and saturated values past exp's range
_CHECK_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-12, -1e-12,
                         300.0, -300.0, 800.0, -800.0])


@st.composite
def _check_inputs(draw):
    """Finite check-node inputs (a, b): 0-d, 1-d, one side a Python float, or
    the two column halves of a (B, 2h) array, as the decoders pass them;
    edge values replace some entries, and the halves may hold zero columns
    shared by every row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.5, 3.0, 30.0]))
    edge = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))

    def values(shape):
        v = rng.normal(scale=scale, size=shape)
        special = rng.random(shape) < edge
        v[special] = rng.choice(_CHECK_EDGES, size=int(special.sum()))
        return v

    form = draw(st.sampled_from(["0-d", "1-d", "broadcast", "halves"]))
    if form == "0-d":
        return values(()), values(())
    if form == "1-d":
        m = draw(st.integers(1, 40))
        return values(m), values(m)
    if form == "broadcast":
        pair = [values(draw(st.sampled_from([(7,), (3, 5)]))), float(values(()))]
        return tuple(pair[:: draw(st.sampled_from([1, -1]))])
    h = 1 << draw(st.integers(0, 7))
    v = values((draw(st.integers(1, 12)), 2 * h))
    cols = rng.random(2 * h) < draw(st.sampled_from([0.0, 0.25, 0.75]))
    v[:, cols] = rng.choice([0.0, -0.0], size=int(cols.sum()))
    return v[:, :h], v[:, h:]


class TestNodeFunctions:
    def test_check_example(self):
        assert check_llr(2.0, 2.0) == pytest.approx(1.3249, abs=1e-3)

    def test_check_zero_annihilates(self):
        assert check_llr(5.0, 0.0) == 0.0
        assert check_llr(0.0, -3.0) == 0.0

    def test_check_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=100), rng.normal(size=100)
        assert np.allclose(check_llr(a, b), check_llr(b, a))

    def test_check_saturates_at_surrogate(self):
        a = np.linspace(-30, 30, 101)
        assert np.allclose(check_llr(a, INF), a, atol=1e-6)
        assert np.allclose(check_llr(a, -INF), -a, atol=1e-6)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -1e-12, 3.0, -800.0,
                                   np.inf, -np.inf, np.nan])
    def test_check_zero_input_is_plus_zero(self, x, zero):
        # with any partner, finite or not, alone or beside live elements
        for got in (check_llr(x, zero), check_llr(zero, x),
                    check_llr([x, 1.0], [zero, 2.0])[0], check_llr([2.0, zero], [1.0, x])[1]):
            assert np.asarray(got).view(np.int64) == 0

    @given(_check_inputs())
    @settings(max_examples=300, deadline=None)
    def test_check_matches_exact_rule(self, case):
        a, b = case
        got = check_llr(a, b)
        want = _exact_check(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))
        zero = (np.asarray(a) == 0) | (np.asarray(b) == 0)
        assert not np.asarray(got).view(np.int64)[zero].any()

    def test_var_example(self):
        assert var_llr(2.0, 2.0, 0) == 4.0

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=100)
    def test_var_identity(self, a, b):
        assert var_llr(a, b, 0) + var_llr(a, b, 1) == pytest.approx(2.0 * b, abs=1e-9)


class TestScDecode:
    def test_noiseless_all_zero(self):
        spec = make_spec(3, 4)
        u = sc_decode(np.full(8, INF), spec)
        assert np.all(u == 0)
        assert np.all(u[spec.info_zero_based] == 0)

    def test_tie_decides_zero(self):
        spec = make_spec(3, 8, eps=0.0)
        assert np.all(sc_decode(np.zeros(8), spec) == 0)

    def test_frozen_forced_zero(self):
        spec = make_spec(3, 2)
        # adversarial LLRs favoring 1 everywhere: frozen stay 0
        u = sc_decode(np.full(8, -INF), spec)
        frozen = np.setdiff1d(np.arange(8), spec.info_zero_based)
        assert np.all(u[frozen] == 0)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_recovers_exact_llr_image(self, n):
        spec = make_spec(n, max(1, (1 << n) // 2))
        rng = np.random.default_rng(n)
        u = np.zeros((20, spec.N), dtype=np.uint8)
        u[:, spec.info_zero_based] = rng.integers(0, 2, size=(20, spec.k))
        x = encode(u, spec)
        llr = INF * (1.0 - 2.0 * x)
        assert np.array_equal(sc_decode(llr, spec), u)

    def test_batch_matches_single(self):
        spec = make_spec(4, 8)
        rng = np.random.default_rng(2)
        llr = rng.normal(size=(6, 16)) * 3
        batch = sc_decode(llr, spec)
        for i in range(6):
            single = sc_decode(llr[i], spec)
            assert np.array_equal(single, batch[i])

    @pytest.mark.parametrize("lead", [(), (6,), (2, 3)])
    def test_results_keep_the_llr_shape(self, lead):
        # both decoders return one entry per LLR, row for row as on (rows, N)
        spec = make_spec(4, 8)
        rng = np.random.default_rng(7)
        llr = rng.normal(size=lead + (16,)) * 3
        true_u = np.zeros(llr.shape, dtype=np.uint8)
        true_u[..., spec.info_zero_based] = rng.integers(0, 2, size=lead + (8,))
        u = sc_decode(llr, spec)
        flags = genie_sc_decode(llr, spec, true_u)
        assert u.shape == flags.shape == llr.shape and u.dtype == np.uint8
        rows = llr.reshape(-1, 16)
        assert np.array_equal(u.reshape(-1, 16), sc_decode(rows, spec))
        assert np.array_equal(flags.reshape(-1, 16),
                              genie_sc_decode(rows, spec, true_u.reshape(-1, 16)))

    def test_length_mismatch(self):
        spec = make_spec(3, 4)
        with pytest.raises(ValueError):
            sc_decode(np.zeros(7), spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_llrs_named(self, bad):
        # these used to decode without an error: NaN LLRs decided all zeros
        spec = make_spec(3, 4)
        with pytest.raises(ValueError, match=rf"LLRs must be finite: 8 non-finite, the first {bad}"):
            sc_decode(np.full(8, bad), spec)
        llr = np.ones((2, 8))
        llr[1, 5] = bad
        match = rf"LLRs must be finite: 1 non-finite, the first {bad} at index \(1, 5\)"
        with pytest.raises(ValueError, match=match):
            sc_decode(llr, spec)
        with pytest.raises(ValueError, match=match):
            genie_sc_decode(llr, spec, np.zeros((2, 8), dtype=np.uint8))

    def test_single_erasure_vs_ml(self):
        # one erased position: SC lands in the surviving-codeword set; when
        # that set is a single word, SC recovers it exactly
        spec = make_spec(3, 3)
        msgs = np.array(list(itertools.product([0, 1], repeat=spec.k)), dtype=np.uint8)
        u_all = np.zeros((len(msgs), spec.N), dtype=np.uint8)
        u_all[:, spec.info_zero_based] = msgs
        codebook = encode(u_all, spec)
        rng = np.random.default_rng(3)
        for trial in range(60):
            cw = codebook[rng.integers(len(codebook))]
            erased = rng.integers(spec.N)
            llr = INF * (1.0 - 2.0 * cw)
            llr[erased] = 0.0
            consistent = codebook[
                np.all(np.delete(codebook, erased, axis=1) == np.delete(cw, erased),
                       axis=1)
            ]
            dec = sc_decode(llr, spec)
            re_enc = encode(dec, spec)
            assert any(np.array_equal(re_enc, c) for c in consistent)
            if len(consistent) == 1:
                assert np.array_equal(re_enc, cw)

    def test_ml_never_worse_than_sc(self):
        # correlation metric: the ML word scores at least as high as SC's
        spec = make_spec(3, 4)
        msgs = np.array(list(itertools.product([0, 1], repeat=spec.k)), dtype=np.uint8)
        u_all = np.zeros((len(msgs), spec.N), dtype=np.uint8)
        u_all[:, spec.info_zero_based] = msgs
        codebook = encode(u_all, spec)
        rng = np.random.default_rng(4)
        for _ in range(50):
            llr = rng.normal(size=spec.N) * 2
            corr = (1.0 - 2.0 * codebook) @ llr
            dec = sc_decode(llr, spec)
            sc_corr = (1.0 - 2.0 * encode(dec, spec)) @ llr
            assert corr.max() >= sc_corr - 1e-9


class TestGenie:
    def test_noiseless_no_flags(self):
        spec = make_spec(3, 4)
        u = np.zeros(8, dtype=np.uint8)
        flags = genie_sc_decode(np.full(8, INF), spec, u)
        assert not flags.any()

    def test_all_zero_llrs_tie_rule(self):
        spec = make_spec(3, 8, eps=0.0)
        u = np.zeros(8, dtype=np.uint8)
        flags = genie_sc_decode(np.zeros(8), spec, u)
        assert not flags.any()

    def test_flags_localize_first_error(self):
        # flipping the LLR sign of an isolated reliable word flags some index
        spec = make_spec(4, 8)
        rng = np.random.default_rng(5)
        u = np.zeros(16, dtype=np.uint8)
        u[spec.info_zero_based] = rng.integers(0, 2, size=8)
        x = encode(u, spec)
        llr = INF * (1.0 - 2.0 * x)
        flags = genie_sc_decode(-llr, spec, u)
        assert flags.any()

    def test_decisions_forced_to_truth(self):
        # with genie forcing, downstream flags match per-position channels:
        # aggregate flags over noise equal fresh single-run flags statistically;
        # here just check batch shape and determinism
        spec = make_spec(4, 8)
        rng = np.random.default_rng(6)
        u = np.zeros((5, 16), dtype=np.uint8)
        u[:, spec.info_zero_based] = rng.integers(0, 2, size=(5, 8))
        x = encode(u, spec)
        llr = 2.0 * (1.0 - 2.0 * x) + rng.normal(size=(5, 16))
        f1 = genie_sc_decode(llr, spec, u)
        f2 = genie_sc_decode(llr, spec, u)
        assert np.array_equal(f1, f2)
        assert f1.shape == (5, 16)

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_true_u_must_be_bits(self, bad):
        # a 2 used to reach var_llr as the factor -3 on the left LLRs
        spec = make_spec(5, 16)
        true_u = np.zeros(32)
        true_u[7] = bad
        with pytest.raises(ValueError, match="true_u"):
            genie_sc_decode(np.ones(32), spec, true_u)
        with pytest.raises(ValueError, match="true_u"):
            genie_sc_decode(np.ones(32), spec, np.full(32, 2))


@lru_cache(maxsize=None)
def _ga_order(n):
    """Input indices (1-based) from most to least reliable, GA at 2 dB."""
    N = 1 << n
    probe = PolarCodeSpec(n=n, k=N, info_set=tuple(range(1, N + 1)), split=(n, 0))
    return select_information_set(ga_evolve(probe, np.full(N, design_mean_llr(2.0))), N)


def _reference_sc(llr, spec):
    """Decided input blocks (B, N) by plain recursive SC, with no node plan:
    at every node the left half decodes from ``check_llr`` of the two halves,
    then the right half from ``var_llr`` given the left half's partial sums;
    an LLR of exactly 0 decides 0.  The check node is looked up on the
    decoder module, so a test can count its calls."""
    llr = np.atleast_2d(llr)
    u = np.zeros(llr.shape, dtype=np.uint8)

    def walk(v, start):
        # decides inputs start, ..., start + size - 1; returns their partial sums
        if v.shape[1] == 1:
            if not spec.frozen_mask[start]:
                u[:, start] = v[:, 0] < 0
            return u[:, start : start + 1]
        h = v.shape[1] // 2
        a, b = v[:, :h], v[:, h:]
        xl = walk(decoder.check_llr(a, b), start)
        xr = walk(var_llr(a, b, xl), start + h)
        return np.concatenate([xl ^ xr, xr], axis=1)

    walk(llr[:, bit_reversal_permutation(spec.n)], 0)
    return u


# LLRs that replace some entries: punctured zeros, saturated values, and tiny
# values that the check node can round to 0
_SPECIAL = np.array([0.0, -0.0, 300.0, -300.0, 1e-12, -1e-12, 5e-324, -5e-324])


@st.composite
def _code_and_llrs(draw):
    n = draw(st.integers(1, 8))
    N = 1 << n
    k = draw(st.integers(0, N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        info = tuple(sorted(_ga_order(n)[:k]))
    else:
        info = tuple(sorted((rng.permutation(N)[:k] + 1).tolist()))
    spec = PolarCodeSpec(n=n, k=k, info_set=info, split=(n, 0))
    u = np.zeros((8, N), dtype=np.uint8)
    u[:, spec.info_zero_based] = rng.integers(0, 2, size=(8, k))
    llr = draw(st.sampled_from([0.5, 2.0, 8.0])) * (1.0 - 2.0 * encode(u, spec))
    llr += rng.normal(scale=draw(st.sampled_from([0.3, 1.0, 3.0])), size=llr.shape)
    special = rng.random(llr.shape) < draw(st.sampled_from([0.0, 0.05, 0.3, 0.8]))
    llr[special] = rng.choice(_SPECIAL, size=int(special.sum()))
    # zero columns shared by every row, as punctured and unsent positions
    cols = rng.random(N) < draw(st.sampled_from([0.0, 0.0, 0.25, 0.6, 1.0]))
    llr[:, cols] = rng.choice([0.0, -0.0], size=int(cols.sum()))
    return spec, llr


class TestPrunedPlan:
    """The pruned node plan decides exactly as plain recursive SC."""

    @staticmethod
    def assert_same(llr, spec):
        llr = np.atleast_2d(llr)
        pruned = sc_decode(llr, spec)
        assert np.array_equal(pruned, _reference_sc(llr, spec))
        return pruned

    @given(_code_and_llrs())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_schedule(self, case):
        spec, llr = case
        dec = self.assert_same(llr, spec)
        # genie decoding along SC's own path never disagrees with it
        assert not genie_sc_decode(llr, spec, dec).any()

    def test_rate1_tie_trap(self):
        # a < 0, b = 0: SC decides u = (0, 1), i.e. x = (1, 1); hard decisions
        # on the LLRs would give x = (1, 0)
        spec = PolarCodeSpec(n=1, k=2, info_set=(1, 2), split=(1, 0))
        dec = self.assert_same(np.array([-1.0, 0.0]), spec)
        assert dec.tolist() == [[0, 1]]

    @pytest.mark.parametrize("tiny", [1e-15, 5e-324])
    def test_rate1_check_node_rounds_to_zero(self, tiny):
        # the exact check node returns 0 for the pair (40, -tiny): SC then
        # decides 0 where the sign of the true value says 1
        spec = PolarCodeSpec(n=3, k=8, info_set=tuple(range(1, 9)), split=(3, 0))
        llr = np.array([5.0, 2.0, 3.0, 4.0, 40.0, -tiny, 7.0, 1.5])
        self.assert_same(llr, spec)

    def test_rep_zero_sum_decides_zero(self):
        # in the decoder's bit-reversed order the LLRs are (1, 1e-16, -1,
        # -1e-16): SC's halving order sums (-1 + 1) + (-1e-16 + 1e-16) = 0,
        # which decides 0, while a left-to-right sum ends at -1e-16
        spec = PolarCodeSpec(n=2, k=1, info_set=(4,), split=(2, 0))
        dec = self.assert_same(np.array([1.0, -1.0, 1e-16, -1e-16]), spec)
        assert not dec.any()


@lru_cache(maxsize=None)
def _ir_code():
    """The code of the N=1024, k=352 16-QAM incremental-redundancy workload."""
    return design_code(10, 352, reference_base32_sequence(), QAM16, 384, 9.0).spec


def _random_code():
    info = np.random.default_rng(13).permutation(256)[:100] + 1
    return PolarCodeSpec(n=8, k=100, info_set=tuple(sorted(info.tolist())), split=(8, 0))


def _tiny_code():
    # inputs 1-5 frozen: the root's left half is rate-0
    return PolarCodeSpec(n=3, k=3, info_set=(6, 7, 8), split=(3, 0))


_SKIP_CODES = {"ir": _ir_code, "random": _random_code, "tiny": _tiny_code}


def _plan_kinds(node):
    if node is not None:
        yield node.kind
        yield from _plan_kinds(node.left)
        yield from _plan_kinds(node.right)


def _noisy_llrs(spec, rows, seed):
    """Noisy LLRs of random codewords with ±0.0, ±800 and ±5e-324 mixed in."""
    rng = np.random.default_rng(seed)
    u = np.zeros((rows, spec.N), dtype=np.uint8)
    u[:, spec.info_zero_based] = rng.integers(0, 2, size=(rows, spec.k))
    llr = 2.0 * (1.0 - 2.0 * encode(u, spec)) + rng.normal(scale=1.5, size=u.shape)
    special = rng.random(llr.shape) < rng.choice([0.01, 0.1, 0.5], size=(rows, 1))
    edge = np.array([0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324])
    llr[special] = rng.choice(edge, size=int(special.sum()))
    return llr


def _noiseless_llrs(spec, rows=4):
    # strong LLRs without zeros: every rate-1 node keeps its hard decisions
    rng = np.random.default_rng(1)
    u = np.zeros((rows, spec.N), dtype=np.uint8)
    u[:, spec.info_zero_based] = rng.integers(0, 2, size=(rows, spec.k))
    return 30.0 * (1.0 - 2.0 * encode(u, spec))


def _check_elements(monkeypatch, decode, spec, llr):
    """Input size, per row, of every check node ``decode`` computes."""
    sizes = []

    def counting(a, b):
        sizes.append(np.shape(a)[1])
        return check_llr(a, b)

    with monkeypatch.context() as m:
        m.setattr(decoder, "check_llr", counting)
        decode(llr, spec)
    return sizes


class TestBitReversal:
    """The decoder bit-reverses its LLRs and true codewords with ``take``,
    which returns a C-ordered copy where fancy indexing returned an
    F-ordered one.  Every elementwise value is the same; only the rate-1
    guard's row sums see the order, since numpy adds a C-ordered row
    pairwise and an F-ordered one in sequence.  The guard's choice on every
    row and the decisions must stay those of a walk over fancy-indexed
    inputs."""

    CODES = {
        "ir": _ir_code,
        # the root is rate-1: the guard reads the bit-reversed LLRs themselves
        "rate1": lambda: PolarCodeSpec(n=10, k=1024, info_set=tuple(range(1, 1025)),
                                       split=(10, 0)),
        # the root's right half is rate-1 and reads b + a of the reversed LLRs
        "upper half": lambda: PolarCodeSpec(n=10, k=512, info_set=tuple(range(513, 1025)),
                                            split=(10, 0)),
    }

    @pytest.mark.parametrize("code", sorted(CODES))
    @pytest.mark.parametrize("with_truth", [False, True])
    def test_take_equals_fancy_indexing(self, monkeypatch, code, with_truth):
        spec = self.CODES[code]()
        llr = _noisy_llrs(spec, 512, seed=4)
        x_true = None
        if with_truth:   # half the rows stop at a wrong bit
            x_true = encode(sc_decode(llr, spec), spec)
            x_true[::2, np.random.default_rng(5).integers(0, spec.N, size=256)] ^= 1
        calls = []
        guard = decoder._hard_decisions_are_sc

        def recording(v):
            keep = guard(v)
            calls.append((np.abs(v).sum(axis=1), keep))
            return keep

        monkeypatch.setattr(decoder, "_hard_decisions_are_sc", recording)
        perm = bit_reversal_permutation(spec.n)
        got = sc_decode(llr, spec, x_true=x_true)
        got_calls, calls[:] = calls[:], []
        want = polar_transform(decoder._walk(
            decoder._node_plan(spec.info_set, spec.n), llr[:, perm],
            None if x_true is None else x_true[:, perm]))
        assert np.array_equal(got, want)
        assert len(got_calls) == len(calls) > 0
        for (sums, keep), (want_sums, want_keep) in zip(got_calls, calls):
            assert np.array_equal(keep, want_keep)
            # a reordered sum of n terms moves by at most about n ulp
            assert np.allclose(sums, want_sums, rtol=spec.N * np.finfo(float).eps, atol=0.0)


class TestRate0LeftSkip:
    """A split whose left child is rate-0 skips its check node, bit for bit."""

    @pytest.mark.parametrize("code", sorted(_SKIP_CODES))
    def test_matches_full_schedule(self, code):
        spec = _SKIP_CODES[code]()
        assert decoder.LEFT0 in _plan_kinds(decoder._node_plan(spec.info_set, spec.n))
        llr = _noisy_llrs(spec, 96, seed=spec.N + spec.k)
        assert np.array_equal(sc_decode(llr, spec), _reference_sc(llr, spec))

    @pytest.mark.parametrize("code", sorted(_SKIP_CODES))
    def test_unpruned_computes_every_check_node(self, monkeypatch, code):
        # the reference computes n check nodes of N / 2 elements each per row
        spec = _SKIP_CODES[code]()
        sizes = _check_elements(monkeypatch, _reference_sc, spec, _noiseless_llrs(spec))
        assert sum(sizes) == spec.N // 2 * spec.n

    def test_root_over_rate0_half(self, monkeypatch):
        # only the right half's split over (frozen, info) computes a check node
        spec = _tiny_code()
        assert _check_elements(monkeypatch, sc_decode, spec, _noiseless_llrs(spec)) == [2]

    def test_ir_code_elements(self, monkeypatch):
        # the plan without the rate-0 skip would have 2,082 check-node
        # elements per row, 654 of them over rate-0 left children
        spec = _ir_code()
        assert sum(_check_elements(monkeypatch, sc_decode, spec, _noiseless_llrs(spec))) == 1428


@st.composite
def _early_case(draw):
    """A code whose pruned plan has REP, RATE1 and LEFT0 nodes, with noisy LLRs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([6, 8, 10]))
    if n == 10:
        spec = _ir_code()
    else:
        N = 1 << n
        k = draw(st.integers(N // 4, 3 * N // 4))
        info = tuple(sorted((rng.permutation(N)[:k] + 1).tolist()))
        spec = PolarCodeSpec(n=n, k=k, info_set=info, split=(n, 0))
    kinds = set(_plan_kinds(decoder._node_plan(spec.info_set, spec.n)))
    assume({decoder.REP, decoder.RATE1, decoder.LEFT0} <= kinds)
    u = np.zeros((16, spec.N), dtype=np.uint8)
    u[:, spec.info_zero_based] = rng.integers(0, 2, size=(16, spec.k))
    llr = draw(st.sampled_from([1.0, 2.0, 4.0])) * (1.0 - 2.0 * encode(u, spec))
    llr += rng.normal(scale=draw(st.sampled_from([0.5, 1.0, 2.0])), size=llr.shape)
    # punctured zeros, saturation, and values that fail the rate-1 guard
    edge = np.array([0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, 1e-12, -1e-12])
    special = rng.random(llr.shape) < draw(st.sampled_from([0.0, 0.02, 0.2, 0.6]))
    llr[special] = rng.choice(edge, size=int(special.sum()))
    # checks at every split, or only at the large ones as in production
    return spec, llr, rng, draw(st.sampled_from([1, decoder.EARLY_STOP_MIN_HALF]))


class TestEarlyTermination:
    """With the true codeword, a row stops at its first wrong decision."""

    @given(_early_case())
    @settings(max_examples=80, deadline=None)
    def test_matches_full_decoding(self, case):
        spec, llr, rng, min_half = case
        full = sc_decode(llr, spec)
        # the decoder's own codeword on the first half, one bit off it on the
        # second: the first half succeeds, the second fails
        x_true = encode(full, spec)
        x_true[np.arange(8, 16), rng.integers(0, spec.N, size=8)] ^= 1
        with pytest.MonkeyPatch.context() as m:
            m.setattr(decoder, "EARLY_STOP_MIN_HALF", min_half)
            early = sc_decode(llr, spec, x_true=x_true)
        u_true = encode(x_true, spec)
        ok = (full == u_true).all(axis=1)
        assert ok.tolist() == [True] * 8 + [False] * 8
        assert np.array_equal((early == u_true).all(axis=1), ok)
        assert np.array_equal(early[ok], full[ok])

    def test_wrong_rows_skip_work(self, monkeypatch):
        # rows whose true first information bit is not the decided one stop
        # long before the end
        spec = _ir_code()
        llr = _noiseless_llrs(spec)
        u = sc_decode(llr, spec)
        wrong = u.copy()
        wrong[:, spec.info_zero_based[0]] ^= 1
        calls = []

        def counting(a, b):
            calls.append(np.shape(a)[0] * np.shape(a)[1])
            return check_llr(a, b)

        monkeypatch.setattr(decoder, "check_llr", counting)
        sc_decode(llr, spec, x_true=encode(u, spec))
        right = sum(calls)
        calls.clear()
        sc_decode(llr, spec, x_true=encode(wrong, spec))
        assert right == 4 * 1428 and sum(calls) < right // 2

    @pytest.mark.parametrize("x_true, match", [
        (np.full((2, 8), 2), "x_true entries must be 0 or 1"),
        (np.full((2, 8), 0.5), "x_true entries must be 0 or 1"),
        (np.zeros((2, 9)), r"x_true has shape \(2, 9\), need 2 rows of N = 8 bits"),
        (np.zeros((3, 8)), r"x_true has shape \(3, 8\)"),
        (np.zeros(16), r"x_true has shape \(16,\)"),
    ])
    def test_x_true_checked(self, x_true, match):
        with pytest.raises(ValueError, match=match):
            sc_decode(np.ones((2, 8)), make_spec(3, 4), x_true=x_true)
