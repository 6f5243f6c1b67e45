"""Successive-cancellation decoding over LLRs, plus the genie-aided variant.

The decoder walks a node plan of the code tree depth first, vectorized over a
leading batch axis: decisions are data, not control flow, so a whole batch
moves through the plan together.  The plan is built once per information set
and cached.  Plain decoding uses a pruned plan whose subtrees are decided by
the simplified-SC rules (Alamdar-Yazdi & Kschischang 2011; Sarkis et al. 2014)
wherever those reach exactly SC's decisions:

* rate-0 (all frozen): zeros;
* repetition (all frozen but the last input): the sign of the LLR sum, taken
  in SC's pairwise halving order so the sum is bit-identical;
* rate-1 (no frozen input): hard decisions, kept only on rows where no
  check-node value inside the subtree can round to 0 or flip sign; other rows
  descend one level and try again.

Genie-aided decoding walks the unpruned plan, which visits every leaf.

Input LLRs are aligned to codeword positions (0-based, punctured = 0); the
decoder internally applies the same bit-reversal as the encoder so decisions
come out in natural input order.  An LLR of exactly 0 decides bit 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polar import PolarCodeSpec, bit_reversal_permutation, polar_transform

__all__ = ["DecodeResult", "check_llr", "var_llr", "sc_decode", "genie_sc_decode"]


def check_llr(a, b) -> np.ndarray:
    """Check-node LLR combination by the exact tanh rule."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # log((1 + e^{a+b}) / (e^a + e^b)), stable at any magnitude
    return np.logaddexp(0.0, a + b) - np.logaddexp(a, b)


def var_llr(a, b, u_hat) -> np.ndarray:
    """Variable-node update: b + (1 - 2*u_hat) * a."""
    return np.asarray(b, dtype=float) + (1.0 - 2.0 * np.asarray(u_hat)) * np.asarray(a, dtype=float)


@dataclass
class DecodeResult:
    """Decided input block and its information bits (batch leading axes)."""

    u: np.ndarray
    info_bits: np.ndarray


RATE0, REP, RATE1, SPLIT = "rate0", "rep", "rate1", "split"


@dataclass(frozen=True)
class _Node:
    """Subtree over inputs ``start .. start+size-1``; rate-1 nodes of size > 1
    keep their halves as children for rows that fail the hard-decision guard."""

    kind: str
    start: int
    size: int
    left: _Node | None = None
    right: _Node | None = None


@lru_cache(maxsize=64)
def _node_plan(info_set: tuple[int, ...], n: int, pruned: bool) -> _Node:
    frozen = np.ones(1 << n, dtype=bool)
    frozen[np.asarray(info_set, dtype=np.int64) - 1] = False

    def build(start: int, size: int) -> _Node:
        f = frozen[start : start + size]
        if size == 1:
            return _Node(RATE0 if f[0] else RATE1, start, 1)
        h = size // 2
        if pruned:
            if f.all():
                return _Node(RATE0, start, size)
            if f[:-1].all():
                return _Node(REP, start, size)
            if not f.any():
                return _Node(RATE1, start, size, build(start, h), build(start + h, h))
        return _Node(SPLIT, start, size, build(start, h), build(start + h, h))

    return build(0, 1 << n)


def _hard_decisions_are_sc(v: np.ndarray) -> np.ndarray:
    """Rows of a rate-1 node's LLRs on which hard decisions equal SC's.

    SC reaches the hard decisions exactly while every check-node value in the
    subtree keeps a nonzero, correct sign (variable-node values then only add
    magnitudes of agreeing sign).  Every such value has tanh(|value|/2) >=
    prod tanh(|llr|/2) over the node, while rounding moves it by at most a
    few ulp of the summed magnitudes per level; the threshold keeps the
    first bound far above the second.
    """
    mag = np.abs(v)
    return np.tanh(0.5 * mag).prod(axis=1) >= 1e-8 * (1.0 + 1e-6 * mag.sum(axis=1))


def _walk(node: _Node, v: np.ndarray, leaf) -> np.ndarray:
    """Decode LLRs ``v`` (B, size) through ``node``; returns its partial sums.

    The partial sums are the subtree's decisions pushed through the polar
    transform, i.e. its re-encoded codeword.  ``leaf(start, llr)`` replaces
    the decision at size-1 nodes when given.
    """
    if node.size == 1 and leaf is not None:
        return leaf(node.start, v)
    if node.kind == RATE0:
        return np.zeros(v.shape, dtype=np.uint8)
    if node.kind == REP:
        s = v
        while s.shape[1] > 1:
            h = s.shape[1] // 2
            s = s[:, h:] + s[:, :h]
        return np.repeat((s < 0).astype(np.uint8), node.size, axis=1)
    if node.kind == RATE1:
        x = (v < 0).astype(np.uint8)
        if node.size > 1:
            redo = ~_hard_decisions_are_sc(v)
            if redo.any():
                x[redo] = _split(node, v[redo], leaf)
        return x
    return _split(node, v, leaf)


def _split(node: _Node, v: np.ndarray, leaf) -> np.ndarray:
    h = node.size // 2
    a, b = v[:, :h], v[:, h:]
    xl = _walk(node.left, check_llr(a, b), leaf)
    xr = _walk(node.right, var_llr(a, b, xl), leaf)
    return np.concatenate([xl ^ xr, xr], axis=1)


def _as_batch(llrs, N: int):
    llrs = np.asarray(llrs, dtype=float)
    if llrs.shape[-1] != N:
        raise ValueError(f"LLR length {llrs.shape[-1]} does not match N = {N}")
    squeeze = llrs.ndim == 1
    return (llrs[None, :] if squeeze else llrs.reshape(-1, N)), squeeze, llrs.shape[:-1]


def _decode_batch(batch: np.ndarray, spec: PolarCodeSpec, pruned: bool = True) -> np.ndarray:
    """Decided input blocks (B, N); ``pruned=False`` walks every leaf."""
    plan = _node_plan(spec.info_set, spec.n, pruned)
    x = _walk(plan, batch[:, bit_reversal_permutation(spec.n)], None)
    return polar_transform(x)


def sc_decode(llrs, spec: PolarCodeSpec) -> DecodeResult:
    """Decode codeword-aligned LLRs; accepts (N,) or any (..., N) batch."""
    batch, squeeze, lead = _as_batch(llrs, spec.N)
    dec = _decode_batch(batch, spec)
    info = dec[:, spec.info_zero_based]
    if squeeze:
        return DecodeResult(u=dec[0], info_bits=info[0])
    return DecodeResult(u=dec.reshape(lead + (spec.N,)),
                        info_bits=info.reshape(lead + (spec.k,)))


def genie_sc_decode(llrs, spec: PolarCodeSpec, true_u, return_leaf_llrs: bool = False):
    """Per-position first-decision error flags under genie-aided decoding.

    Each fresh decision is compared with the truth, then decoding continues
    from the true bit.  With ``return_leaf_llrs`` the per-position decision
    LLRs come back too (the channel each input sees, with every earlier
    decision correct).
    """
    batch, squeeze, lead = _as_batch(llrs, spec.N)
    tu = np.asarray(true_u, dtype=np.uint8)
    if tu.shape[-1] != spec.N:
        raise ValueError(f"true_u length {tu.shape[-1]} does not match N = {spec.N}")
    tu = tu[None, :] if tu.ndim == 1 else tu.reshape(-1, spec.N)
    if tu.shape[0] != batch.shape[0]:
        raise ValueError("true_u batch does not match llrs batch")
    frozen = spec.frozen_mask
    flags = np.zeros(batch.shape, dtype=bool)
    leaf_llrs = np.zeros(batch.shape)

    def leaf(j: int, v: np.ndarray) -> np.ndarray:
        leaf_llrs[:, j] = v[:, 0]
        fresh = (v[:, 0] < 0) & ~frozen[j]
        flags[:, j] = fresh != tu[:, j]
        return tu[:, j : j + 1]

    plan = _node_plan(spec.info_set, spec.n, False)
    _walk(plan, batch[:, bit_reversal_permutation(spec.n)], leaf)
    flags_out = flags[0] if squeeze else flags.reshape(lead + (spec.N,))
    if not return_leaf_llrs:
        return flags_out
    leaf_out = leaf_llrs[0] if squeeze else leaf_llrs.reshape(lead + (spec.N,))
    return flags_out, leaf_out
