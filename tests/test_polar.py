"""Encoder: bit reversal, butterfly, two-stage split, matrix oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcpolar.polar import (
    PolarCodeSpec,
    bit_reversal,
    bit_reversal_permutation,
    encode,
    encode_two_stage,
)


def full_rate_spec(n, split=None):
    N = 1 << n
    if split is None:
        split = (min(5, n), n - min(5, n)) if n > 5 else (n, 0)
    return PolarCodeSpec(n=n, k=N, info_set=tuple(range(1, N + 1)), split=split)


def matrix_generator(n):
    """Dense B_N F^{kron n} over GF(2); test oracle for N <= 32."""
    F = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    G = np.array([[1]], dtype=np.uint8)
    for _ in range(n):
        G = np.kron(G, F)
    B = np.zeros_like(G)
    for i in range(1 << n):
        B[i, bit_reversal(i, n)] = 1
    return (B @ G) % 2


class TestBitReversal:
    def test_examples(self):
        assert bit_reversal(0, 2) == 0
        assert bit_reversal(1, 2) == 2
        assert bit_reversal(3, 3) == 6

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bit_reversal(4, 2)
        with pytest.raises(ValueError):
            bit_reversal(-1, 3)

    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_involution_and_bijection(self, n, data):
        i = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        assert bit_reversal(bit_reversal(i, n), n) == i
        perm = bit_reversal_permutation(n)
        assert sorted(perm.tolist()) == list(range(1 << n))


class TestEncode:
    def test_all_zero(self):
        spec = full_rate_spec(3)
        assert np.array_equal(encode(np.zeros(8, dtype=np.uint8), spec), np.zeros(8))

    def test_n2_example(self):
        spec = full_rate_spec(1, split=(1, 0))
        assert np.array_equal(encode(np.array([0, 1]), spec), np.array([1, 1]))

    def test_n4_example(self):
        spec = full_rate_spec(2, split=(1, 1))
        assert np.array_equal(encode(np.array([0, 0, 0, 1]), spec),
                              np.array([1, 1, 1, 1]))

    def test_length_mismatch(self):
        spec = full_rate_spec(3)
        with pytest.raises(ValueError):
            encode(np.zeros(7, dtype=np.uint8), spec)

    def test_non_binary(self):
        spec = full_rate_spec(2, split=(1, 1))
        with pytest.raises(ValueError):
            encode(np.array([0, 2, 0, 1]), spec)

    @pytest.mark.parametrize("bad", [256, -255, 0.5])
    def test_non_binary_checked_before_the_cast(self, bad):
        # 256, -255 and 0.5 used to wrap or truncate to a bit and be encoded
        spec = full_rate_spec(2, split=(1, 1))
        with pytest.raises(ValueError, match="0 or 1"):
            encode(np.array([0, bad, 0, 1]), spec)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matrix_oracle(self, n):
        spec = full_rate_spec(n, split=(n, 0))
        G = matrix_generator(n)
        rng = np.random.default_rng(n)
        u = rng.integers(0, 2, size=(64, 1 << n), dtype=np.uint8)
        assert np.array_equal(encode(u, spec), (u @ G) % 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_involution_exhaustive(self, n):
        spec = full_rate_spec(n, split=(n, 0))
        N = 1 << n
        u = ((np.arange(1 << N)[:, None] >> np.arange(N)[None, :]) & 1).astype(np.uint8)
        assert np.array_equal(encode(encode(u, spec), spec), u)

    @pytest.mark.parametrize("n", [8, 10])
    def test_involution_random(self, n):
        spec = full_rate_spec(n)
        rng = np.random.default_rng(17)
        u = rng.integers(0, 2, size=(100, 1 << n), dtype=np.uint8)
        assert np.array_equal(encode(encode(u, spec), spec), u)

    @given(st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=40)
    def test_linearity(self, n, data):
        N = 1 << n
        spec = full_rate_spec(n, split=(n, 0))
        bits = st.lists(st.integers(0, 1), min_size=N, max_size=N)
        u = np.array(data.draw(bits), dtype=np.uint8)
        v = np.array(data.draw(bits), dtype=np.uint8)
        assert np.array_equal(encode(u ^ v, spec), encode(u, spec) ^ encode(v, spec))


class TestTwoStage:
    @pytest.mark.parametrize("n,split", [(2, (1, 1)), (3, (1, 2)), (3, (2, 1)),
                                         (4, (2, 2)), (4, (3, 1)), (4, (1, 3))])
    def test_exhaustive_small(self, n, split):
        spec = full_rate_spec(n, split=split)
        N = 1 << n
        u = ((np.arange(1 << N)[:, None] >> np.arange(N)[None, :]) & 1).astype(np.uint8)
        assert np.array_equal(encode_two_stage(u, spec), encode(u, spec))

    @pytest.mark.parametrize("n,split", [(8, (5, 3)), (10, (5, 5)), (12, (5, 7))])
    def test_random_large(self, n, split):
        spec = full_rate_spec(n, split=split)
        rng = np.random.default_rng(n)
        u = rng.integers(0, 2, size=(32, 1 << n), dtype=np.uint8)
        assert np.array_equal(encode_two_stage(u, spec), encode(u, spec))

    def test_all_zero(self):
        spec = full_rate_spec(4, split=(2, 2))
        z = np.zeros(16, dtype=np.uint8)
        assert np.array_equal(encode_two_stage(z, spec), z)


class TestSpecValidation:
    def test_valid(self):
        s = PolarCodeSpec(n=3, k=2, info_set=(7, 8), split=(2, 1))
        assert s.N == 8
        assert np.array_equal(s.info_zero_based, [6, 7])
        assert s.frozen_mask.sum() == 6

    def test_bad_info_range(self):
        with pytest.raises(ValueError):
            PolarCodeSpec(n=2, k=1, info_set=(5,), split=(2, 0))
        with pytest.raises(ValueError):
            PolarCodeSpec(n=2, k=1, info_set=(0,), split=(2, 0))

    def test_duplicate_info(self):
        with pytest.raises(ValueError):
            PolarCodeSpec(n=2, k=2, info_set=(3, 3), split=(2, 0))

    def test_k_mismatch(self):
        with pytest.raises(ValueError):
            PolarCodeSpec(n=2, k=1, info_set=(3, 4), split=(2, 0))

    def test_bad_split(self):
        with pytest.raises(ValueError):
            PolarCodeSpec(n=3, k=1, info_set=(8,), split=(2, 2))
        with pytest.raises(ValueError):
            PolarCodeSpec(n=3, k=1, info_set=(8,), split=(0, 3))

    def test_bad_n(self):
        with pytest.raises(ValueError):
            PolarCodeSpec(n=0, k=1, info_set=(1,), split=(1, 0))
