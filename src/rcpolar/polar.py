"""GF(2) polar encoding: butterfly transform, bit reversal, two-stage split.

Index conventions
-----------------
External interfaces (``PolarCodeSpec.info_set``) use 1-based input indices
``u_1 .. u_N``.  Everything that touches numpy arrays is 0-based; the boundary
is the spec constructor and the ``info_set`` field only.

A codeword is produced as ``x = butterfly(u[bitrev])``, i.e. the input block
is permuted by bit reversal and then run through the n-stage XOR butterfly.
The generator is an involution over GF(2), so ``encode`` is its own inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "PolarCodeSpec",
    "bit_reversal",
    "bit_reversal_permutation",
    "butterfly",
    "polar_transform",
    "encode",
    "encode_two_stage",
]


def bit_reversal(index: int, n: int) -> int:
    """Reverse the n-bit binary representation of ``index``.

    An involution and a bijection on [0, 2^n).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} out of range [0, {1 << n})")
    r = 0
    for _ in range(n):
        r = (r << 1) | (index & 1)
        index >>= 1
    return r


@lru_cache(maxsize=None)
def bit_reversal_permutation(n: int) -> np.ndarray:
    """Permutation array ``p`` with ``p[i] = bit_reversal(i, n)``."""
    perm = np.array([bit_reversal(i, n) for i in range(1 << n)], dtype=np.int64)
    perm.setflags(write=False)
    return perm


@dataclass(frozen=True)
class PolarCodeSpec:
    """Parameters of one polar code: length, information set, stage split.

    ``info_set`` holds 1-based input indices (the positions of u that carry
    data); all remaining inputs are frozen to 0.  ``split = (p, q)`` with
    ``p + q = n`` fixes the two-stage factorization used by the rate-matching
    matrix: the codeword is viewed as a 2^q x 2^p array.
    """

    n: int
    k: int
    info_set: tuple[int, ...]
    split: tuple[int, int]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        N = 1 << self.n
        info = tuple(sorted(int(i) for i in self.info_set))
        if len(info) != len(set(info)):
            raise ValueError("info_set contains duplicate indices")
        if len(info) != self.k:
            raise ValueError(f"|info_set| = {len(info)} but k = {self.k}")
        if self.k > N:
            raise ValueError(f"k = {self.k} exceeds N = {N}")
        if info and (info[0] < 1 or info[-1] > N):
            raise ValueError(f"info_set indices must lie in [1, {N}]")
        p, q = self.split
        if p < 1 or q < 0 or p + q != self.n:
            raise ValueError(f"split {self.split} invalid: need p >= 1, q >= 0, p + q = {self.n}")
        object.__setattr__(self, "info_set", info)
        object.__setattr__(self, "split", (int(p), int(q)))

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def info_zero_based(self) -> np.ndarray:
        arr = np.asarray(self.info_set, dtype=np.int64) - 1
        return arr

    @property
    def frozen_mask(self) -> np.ndarray:
        """Boolean mask over 0-based input indices, True where frozen."""
        mask = np.ones(self.N, dtype=bool)
        mask[self.info_zero_based] = False
        return mask


def _check_bits(u, N: int) -> np.ndarray:
    u = np.asarray(u)
    if u.shape[-1] != N:
        raise ValueError(f"block length {u.shape[-1]} does not match N = {N}")
    if not np.all((u == 0) | (u == 1)):
        raise ValueError("block entries must be 0 or 1")
    return u.astype(np.uint8, copy=True)


def butterfly(a: np.ndarray, stage) -> np.ndarray:
    """Run an n-stage butterfly in place over the trailing axis (length 2^n).

    ``stage(x, y)`` updates the upper halves ``x`` and the lower halves ``y``
    of every length-2h block in place.  It is called once per stage, for
    h = N/2 down to 1, on (N/2h, h, ...) views of one (N/2h, 2, h, ...) array
    with the transform axis moved first, so each call runs over contiguous
    runs of h x batch entries.  Returns ``a``.
    """
    y = np.moveaxis(a, -1, 0)
    work = np.ascontiguousarray(y)   # no copy for a (B, N) array in Fortran order
    N, rest = work.shape[0], work.shape[1:]
    h = N // 2
    while h >= 1:
        pairs = work.reshape((N // (2 * h), 2, h) + rest)
        stage(pairs[:, 0], pairs[:, 1])
        h //= 2
    if work is not y:
        y[...] = work
    return a


def _xor_stage(x, y):
    x ^= y


def polar_transform(bits: np.ndarray) -> np.ndarray:
    """In-place XOR butterfly over the trailing axis (length must be 2^m).

    Computes the Kronecker-power transform without any bit-reversal; stage
    order is irrelevant because the stage matrices commute.
    """
    return butterfly(bits, _xor_stage)


def encode(u, spec: PolarCodeSpec) -> np.ndarray:
    """Map an input block to its codeword; trailing axis is the block.

    Accepts any u (frozen positions need not be zero).  Applying encode twice
    returns the input, which the tests rely on.
    """
    bits = _check_bits(u, spec.N)
    rev = bit_reversal_permutation(spec.n)
    return polar_transform(bits[..., rev])


def encode_two_stage(u, spec: PolarCodeSpec) -> np.ndarray:
    """Encode through 2^p inner length-2^q blocks, then 2^q outer length-2^p blocks.

    Bit-identical to :func:`encode` for every input; exists so the staged
    structure used by rate matching is exercised directly.
    """
    bits = _check_bits(u, spec.N)
    p, q = spec.split
    rev = bit_reversal_permutation(spec.n)
    v = bits[..., rev]
    lead = v.shape[:-1]
    v = v.reshape(lead + (1 << p, 1 << q))
    # inner stage: one length-2^q transform per row of the (2^p, 2^q) view
    polar_transform(v)
    # outer stage: one length-2^p transform per column
    v = np.swapaxes(v, -1, -2).copy()
    polar_transform(v)
    v = np.swapaxes(v, -1, -2)
    return v.reshape(lead + (spec.N,))
