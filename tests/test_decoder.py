"""SC decoder: node functions, exact recovery, maximum-likelihood comparison."""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcpolar.construction import (
    bhattacharyya_bec,
    design_mean_llr,
    ga_evolve,
    select_information_set,
)
from rcpolar.decoder import _decode_batch, check_llr, genie_sc_decode, sc_decode, var_llr
from rcpolar.polar import PolarCodeSpec, encode

INF = 300.0


def make_spec(n, k, eps=0.3, split=None):
    N = 1 << n
    probe = PolarCodeSpec(n=n, k=N, info_set=tuple(range(1, N + 1)),
                          split=split or (n, 0))
    prof = bhattacharyya_bec(probe, np.full(N, eps))
    info = select_information_set(prof, k)
    return PolarCodeSpec(n=n, k=k, info_set=info, split=split or (n, 0))


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

    def test_var_example(self):
        assert var_llr(2.0, 2.0, 0) == 4.0

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=100)
    def test_var_identity(self, a, b):
        assert var_llr(a, b, 0) + var_llr(a, b, 1) == pytest.approx(2.0 * b, abs=1e-9)

    def test_min_sum_dominates(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(scale=4, size=1000), rng.normal(scale=4, size=1000)
        exact = check_llr(a, b)
        ms = check_llr(a, b, min_sum=True)
        assert np.all((np.sign(ms) == np.sign(exact)) | (exact == 0.0))
        assert np.all(np.abs(ms) >= np.abs(exact) - 1e-12)


class TestScDecode:
    def test_noiseless_all_zero(self):
        spec = make_spec(3, 4)
        res = sc_decode(np.full(8, INF), spec)
        assert np.all(res.u == 0)
        assert np.all(res.info_bits == 0)

    def test_tie_decides_zero(self):
        spec = make_spec(3, 8, eps=0.0)
        res = sc_decode(np.zeros(8), spec)
        assert np.all(res.u == 0)

    def test_frozen_forced_zero(self):
        spec = make_spec(3, 2)
        # adversarial LLRs favoring 1 everywhere: frozen stay 0
        res = sc_decode(np.full(8, -INF), spec)
        frozen = np.setdiff1d(np.arange(8), spec.info_zero_based)
        assert np.all(res.u[frozen] == 0)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_recovers_exact_llr_image(self, n):
        spec = make_spec(n, max(1, (1 << n) // 2))
        rng = np.random.default_rng(n)
        u = np.zeros((20, spec.N), dtype=np.uint8)
        u[:, spec.info_zero_based] = rng.integers(0, 2, size=(20, spec.k))
        x = encode(u, spec)
        llr = INF * (1.0 - 2.0 * x)
        res = sc_decode(llr, spec)
        assert np.array_equal(res.u, u)

    def test_batch_matches_single(self):
        spec = make_spec(4, 8)
        rng = np.random.default_rng(2)
        llr = rng.normal(size=(6, 16)) * 3
        batch = sc_decode(llr, spec)
        for i in range(6):
            single = sc_decode(llr[i], spec)
            assert np.array_equal(single.u, batch.u[i])

    def test_length_mismatch(self):
        spec = make_spec(3, 4)
        with pytest.raises(ValueError):
            sc_decode(np.zeros(7), spec)

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
            re_enc = encode(dec.u, spec)
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
            sc_corr = (1.0 - 2.0 * encode(dec.u, spec)) @ llr
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


@lru_cache(maxsize=None)
def _ga_order(n):
    """Input indices (1-based) from most to least reliable, GA at 2 dB."""
    N = 1 << n
    probe = PolarCodeSpec(n=n, k=N, info_set=tuple(range(1, N + 1)), split=(n, 0))
    return select_information_set(ga_evolve(probe, np.full(N, design_mean_llr(2.0))), N)


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
    return spec, llr


class TestPrunedPlan:
    """The pruned node plan decides exactly as the unpruned (full SC) plan."""

    @staticmethod
    def assert_same(llr, spec, min_sum):
        llr = np.atleast_2d(llr)
        pruned = _decode_batch(llr, spec, min_sum)
        full = _decode_batch(llr, spec, min_sum, pruned=False)
        assert np.array_equal(pruned, full)
        return pruned

    @given(_code_and_llrs(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_schedule(self, case, min_sum):
        spec, llr = case
        dec = self.assert_same(llr, spec, min_sum)
        # genie decoding along SC's own path never disagrees with it
        assert not genie_sc_decode(llr, spec, dec, min_sum).any()

    @pytest.mark.parametrize("min_sum", [False, True])
    def test_rate1_tie_trap(self, min_sum):
        # a < 0, b = 0: SC decides u = (0, 1), i.e. x = (1, 1); hard decisions
        # on the LLRs would give x = (1, 0)
        spec = PolarCodeSpec(n=1, k=2, info_set=(1, 2), split=(1, 0))
        dec = self.assert_same(np.array([-1.0, 0.0]), spec, min_sum)
        assert dec.tolist() == [[0, 1]]

    @pytest.mark.parametrize("tiny", [1e-15, 5e-324])
    def test_rate1_check_node_rounds_to_zero(self, tiny):
        # the exact check node returns 0 for the pair (40, -tiny): SC then
        # decides 0 where the sign of the true value says 1
        spec = PolarCodeSpec(n=3, k=8, info_set=tuple(range(1, 9)), split=(3, 0))
        llr = np.array([5.0, 2.0, 3.0, 4.0, 40.0, -tiny, 7.0, 1.5])
        self.assert_same(llr, spec, False)

    @pytest.mark.parametrize("min_sum", [False, True])
    def test_rep_zero_sum_decides_zero(self, min_sum):
        # in the decoder's bit-reversed order the LLRs are (1, 1e-16, -1,
        # -1e-16): SC's halving order sums (-1 + 1) + (-1e-16 + 1e-16) = 0,
        # which decides 0, while a left-to-right sum ends at -1e-16
        spec = PolarCodeSpec(n=2, k=1, info_set=(4,), split=(2, 0))
        dec = self.assert_same(np.array([1.0, -1.0, 1e-16, -1e-16]), spec, min_sum)
        assert not dec.any()
