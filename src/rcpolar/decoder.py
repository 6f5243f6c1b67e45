"""Successive-cancellation decoding over LLRs, plus the genie-aided variant.

The decoder walks a node plan of the code tree depth first, vectorized over a
leading batch axis: decisions are data, not control flow, so a whole batch
moves through the plan together.  The plan is built once per information set
and cached.  It decides subtrees by the simplified-SC rules (Alamdar-Yazdi &
Kschischang 2011; Sarkis et al. 2014) wherever those reach exactly SC's
decisions:

* rate-0 (all frozen): zeros;
* repetition (all frozen but the last input): the sign of the LLR sum, taken
  in SC's pairwise halving order so the sum is bit-identical;
* rate-1 (no frozen input): hard decisions, kept only on rows where no
  check-node value inside the subtree can round to 0 or flip sign; other rows
  descend one level and try again.

A split whose left child is rate-0 skips its check node, since that child
reads no LLRs: the right child gets ``b + a``, which is ``var_llr(a, b, 0)``
bit for bit.  Genie-aided decoding takes no decisions, so it needs no plan:
it recurses over the code tree with the true partial sums.

Given the transmitted codewords, a row stops at its first wrong decision, for
HARQ's genie acknowledgement; a CRC-based one would have to revisit this.

Input LLRs are aligned to codeword positions (0-based, punctured = 0); the
decoder internally applies the same bit-reversal as the encoder so decisions
come out in natural input order.  An LLR of exactly 0 decides bit 0; LLRs
must be finite.  A check node with an exact-zero input is +0.0 and costs no
libm work (``check_llr``): punctured and unsent IR positions make it common.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polar import PolarCodeSpec, bit_reversal_permutation, polar_transform

__all__ = ["check_llr", "var_llr", "sc_decode", "genie_sc_decode"]


def check_llr(a, b) -> np.ndarray:
    """Check-node LLR combination by the exact tanh rule.  An element with an
    exact-zero input is +0.0 and costs no libm work; on finite inputs that is
    the rule's own result, so every element keeps the rule's bits."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # log((1 + e^{a+b}) / (e^a + e^b)), stable at any magnitude
    if a.all() and b.all():
        return np.logaddexp(0.0, a + b) - np.logaddexp(a, b)
    live = (a != 0) & (b != 0)
    s = np.add(a, b, out=np.zeros(live.shape), where=live)
    np.logaddexp(0.0, s, out=s, where=live)
    # out=None: the second call leaves dead elements unset, and they stay unread
    return np.subtract(s, np.logaddexp(a, b, out=None, where=live), out=s, where=live)


def var_llr(a, b, u_hat) -> np.ndarray:
    """Variable-node update: b + (1 - 2*u_hat) * a."""
    return np.asarray(b, dtype=float) + (1.0 - 2.0 * np.asarray(u_hat)) * np.asarray(a, dtype=float)


RATE0, REP, RATE1, SPLIT = "rate0", "rep", "rate1", "split"
LEFT0 = "left0"  # a split whose left child is rate-0: no check node
# Early termination checks a left child of at least this many inputs only.
# HARQ cycles against full decoding, alternated in one process: checking every
# left child gave 1.15x on IR and 0.99x on CC (22 of 60 cycles faster); from
# 32 inputs on, 1.23x and 1.01x (34 of 60).
EARLY_STOP_MIN_HALF = 32


@dataclass(frozen=True)
class _Node:
    """Subtree over ``size`` consecutive inputs; rate-1 nodes of size > 1 keep
    their halves as children for rows that fail the hard-decision guard."""

    kind: str
    size: int
    left: _Node | None = None
    right: _Node | None = None


@lru_cache(maxsize=64)
def _node_plan(info_set: tuple[int, ...], n: int) -> _Node:
    frozen = np.ones(1 << n, dtype=bool)
    frozen[np.asarray(info_set, dtype=np.int64) - 1] = False

    def build(start: int, size: int) -> _Node:
        f = frozen[start : start + size]
        if size == 1:
            return _Node(RATE0 if f[0] else RATE1, 1)
        h = size // 2
        if f.all():
            return _Node(RATE0, size)
        if f[:-1].all():
            return _Node(REP, size)
        if not f.any():
            return _Node(RATE1, size, build(start, h), build(start + h, h))
        left = build(start, h)
        return _Node(LEFT0 if left.kind == RATE0 else SPLIT, size, left, build(start + h, h))

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


def _walk(node: _Node, v: np.ndarray, t: np.ndarray | None) -> np.ndarray:
    """Decode LLRs ``v`` (B, size) through ``node``; returns its partial sums.

    The partial sums are the subtree's decisions pushed through the polar
    transform, i.e. its re-encoded codeword.  Given the true partial sums
    ``t``, a row stops at its first wrong decision; its partial sums then
    differ from ``t`` but are otherwise arbitrary.
    """
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
                x[redo] = _split(node, v[redo], None if t is None else t[redo])
        return x
    return _split(node, v, t)


def _split(node: _Node, v: np.ndarray, t: np.ndarray | None) -> np.ndarray:
    h = node.size // 2
    if h < EARLY_STOP_MIN_HALF:
        t = None
    a, b = v[:, :h], v[:, h:]
    tr = None if t is None else t[:, h:]
    if node.kind == LEFT0:
        xr = _walk(node.right, b + a, tr)
        return np.concatenate([xr, xr], axis=1)
    tl = None if t is None else t[:, :h] ^ tr
    xl = _walk(node.left, check_llr(a, b), tl)
    if t is None or (right := (xl == tl).all(axis=1)).all():
        xr = _walk(node.right, var_llr(a, b, xl), tr)
    else:   # rows that decided the left child wrongly stop, with xr = 0
        xr = np.zeros_like(xl)
        if right.any():
            xr[right] = _walk(node.right, var_llr(a[right], b[right], xl[right]), tr[right])
    return np.concatenate([xl ^ xr, xr], axis=1)


def _as_batch(llrs, N: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """LLRs of shape (..., N) as a (rows, N) float array, and their shape."""
    llrs = np.asarray(llrs, dtype=float)
    if llrs.shape[-1] != N:
        raise ValueError(f"LLR length {llrs.shape[-1]} does not match N = {N}")
    if not np.isfinite(llrs).all():
        bad = np.argwhere(~np.isfinite(llrs))
        raise ValueError(f"LLRs must be finite: {len(bad)} non-finite, the first "
                         f"{llrs[tuple(bad[0])]} at index {tuple(bad[0].tolist())}")
    return llrs.reshape(-1, N), llrs.shape


def _truth(bits, N: int, rows: int, name: str) -> np.ndarray:
    """True bits of each LLR row as a (rows, N) uint8 array, checked."""
    bits = np.asarray(bits)
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")
    if bits.shape[-1:] != (N,) or bits.size != rows * N:
        raise ValueError(f"{name} has shape {bits.shape}, need {rows} rows of N = {N} bits")
    return bits.astype(np.uint8).reshape(rows, N)


def sc_decode(llrs, spec: PolarCodeSpec, x_true=None) -> np.ndarray:
    """Decided input blocks (uint8, natural input order) of codeword-aligned
    LLRs, in the shape of ``llrs``: (N,) or any (..., N) batch.

    With ``x_true``, the transmitted codeword of each row, a row stops at its
    first wrong decision; its block then differs from the true input block
    but is otherwise arbitrary, frozen bits included.
    """
    batch, shape = _as_batch(llrs, spec.N)
    perm = bit_reversal_permutation(spec.n)
    # take returns a C-ordered copy, fancy indexing an F-ordered one several
    # times slower; only the rate-1 guard's row sums see the order, in their
    # last bits, far inside the guard's margin
    if x_true is not None:
        x_true = _truth(x_true, spec.N, batch.shape[0], "x_true").take(perm, axis=1)
    x = _walk(_node_plan(spec.info_set, spec.n), batch.take(perm, axis=1), x_true)
    return polar_transform(x).reshape(shape)


def _genie_leaf_llrs(batch: np.ndarray, spec: PolarCodeSpec, tu: np.ndarray) -> np.ndarray:
    """Decision LLR of every input (B, N) with every earlier decision correct:
    the channel each input sees under genie-aided decoding."""
    out = np.empty(batch.shape)

    def walk(v: np.ndarray, t: np.ndarray, start: int) -> None:
        if v.shape[1] == 1:
            out[:, start] = v[:, 0]
            return
        h = v.shape[1] // 2
        a, b, tr = v[:, :h], v[:, h:], t[:, h:]
        tl = t[:, :h] ^ tr
        walk(check_llr(a, b), tl, start)
        walk(var_llr(a, b, tl), tr, start + h)

    walk(batch[:, bit_reversal_permutation(spec.n)], polar_transform(tu.copy()), 0)
    return out


def genie_sc_decode(llrs, spec: PolarCodeSpec, true_u) -> np.ndarray:
    """Per-position first-decision error flags under genie-aided decoding.

    Each fresh decision is compared with the truth, then decoding continues
    from the true bit; the flags take the shape of ``llrs``.
    """
    batch, shape = _as_batch(llrs, spec.N)
    tu = _truth(true_u, spec.N, batch.shape[0], "true_u")
    return (((_genie_leaf_llrs(batch, spec, tu) < 0) & ~spec.frozen_mask) != tu).reshape(shape)
