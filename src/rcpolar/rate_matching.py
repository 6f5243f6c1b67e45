"""Rate matching: column-permuted matrix reading with circular repetition.

The codeword is written row-wise into a 2^q x 2^p matrix (row-major), the
columns are permuted by the reverse of the base puncturing order, and the
transmitted bits are read column-wise from a start column, wrapping circularly
so any length L is reachable: L < N punctures (the first-punctured columns are
the last read), L > N repeats.

For QAM the touched columns are partitioned into the modulation's reliability
classes, earlier classes larger when the split is uneven; the bits of each
class feed that class's bit-position pair in the transmitted symbols.  Partial
class substreams are padded with zero bits known to the receiver, which never
enter the decoder's LLR accumulator.

Incremental-redundancy retransmissions move the start column and rotate the
class assignment with it; Chase retransmissions reuse transmission 1 exactly,
except that with ``shift_cc_bicm`` they send the same coded bits but rotate
their class assignment.

``build_tx_map`` is the single cached map of one transmission: the codeword
position, reliability class and symbol-bit slot of each transmitted bit (BPSK
is one class, one bit a symbol).  ``de_rate_match`` folds per-bit values onto
the N codeword positions, for the receiver and the BICM design means alike.

The fold's bins, one (row, position) index per folded value, are cached with
the tx map, so a HARQ cycle does not rebuild and re-fault them on every call.
Each map keeps one array, built for the largest batch seen; the bins of its
first B rows serve a batch of B, so the shrinking retransmission batches
reuse it.  All cached bins together hold at most ``_BINS_CACHE_BYTES``
(32 MiB): the least recently used maps' bins go first, and bins larger than
that are built per call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .channel import ChannelSpec, ModulationSpec, demodulate, modulate, transmit
from .polar import PolarCodeSpec

if TYPE_CHECKING:
    from .puncturing import PuncturingSequence

__all__ = [
    "RateMatcher",
    "TxPlan",
    "TxMap",
    "de_rate_match",
    "build_tx_map",
    "transmit_codeword_llrs",
]


@dataclass(frozen=True)
class TxPlan:
    """One transmission: L bits, attempt r of at most t, Chase or IR."""

    L: int
    t: int
    r: int
    mode: str  # "cc" | "ir"

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.t < 1 or not 1 <= self.r <= self.t:
            raise ValueError(f"need 1 <= r <= t, got r={self.r}, t={self.t}")
        if self.mode not in ("cc", "ir"):
            raise ValueError(f"unknown HARQ mode {self.mode!r}")


@dataclass(frozen=True)
class RateMatcher:
    """Immutable rate-matching structure for one code and modulation."""

    spec: PolarCodeSpec
    sequence: PuncturingSequence
    modulation: ModulationSpec
    shift_cc_bicm: bool = False   # also rotate class assignment under Chase

    def __post_init__(self):
        p, _ = self.spec.split
        if self.sequence.base_len != (1 << p):
            raise ValueError(
                f"sequence base length {self.sequence.base_len} does not match 2^p = {1 << p}")

    @property
    def read_columns(self) -> tuple[int, ...]:
        """Physical column of each reading slot: reverse puncturing order."""
        return tuple(reversed(self.sequence.order))

    def _rotation(self, plan: TxPlan) -> int:
        """Reading slots by which transmission r of t moves: (r-1) 2^p / t."""
        p, _ = self.spec.split
        return ((plan.r - 1) * (1 << p)) // plan.t

    def start_column(self, plan: TxPlan) -> int:
        """0-based reading slot where transmission r starts."""
        return 0 if plan.mode == "cc" else self._rotation(plan)

    def bicm_shift(self, plan: TxPlan) -> int:
        """Slots by which the class assignment rotates for this transmission;
        under IR the start column already carries the rotation."""
        return self._rotation(plan) if plan.mode == "cc" and self.shift_cc_bicm else 0


def de_rate_match(values, rm: RateMatcher, plan: TxPlan) -> np.ndarray:
    """Fold per-bit values of one transmission (``(..., L)``) onto the N
    codeword positions (``(..., N)``).

    Repeated bits add in stream order; positions never transmitted stay
    exactly 0.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != plan.L:
        raise ValueError(f"LLR length {values.shape[-1]} does not match L = {plan.L}")
    flat = _fold(values.reshape(-1, plan.L), build_tx_map(rm, plan).emit_idx, rm.spec.N)
    return flat.reshape(values.shape[:-1] + (rm.spec.N,))


def _fold(values: np.ndarray, idx: np.ndarray, N: int) -> np.ndarray:
    """Rows of ``values`` (B, L) added onto N positions: ``out[r, idx[k]]``
    sums ``values[r, k]`` over k.

    ``np.bincount`` gives each (row, position) pair one bin and adds the
    weights into their bins in input order onto +0.0, which is
    ``np.add.at``'s arithmetic (-0.0 folds to +0.0) in one pass, without
    its per-element indexing.
    """
    B = values.shape[0]
    out = np.bincount(_fold_bins(idx, N, B), weights=values.ravel(), minlength=B * N)
    return out.astype(float, copy=False).reshape(B, N)   # an empty count is int


# Bins of the folds of read-only maps that own their data, such as the tx
# maps, keyed by the map's id and N; an entry holds its map, so no other map
# can take that id while the entry lives.  Writable maps, such as arbitrary
# test maps, get their bins built per call.  Cached bins are never written.
_BINS_CACHE_BYTES = 32 << 20
_bins_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
_bins_lock = threading.Lock()


def _fold_bins(idx: np.ndarray, N: int, B: int) -> np.ndarray:
    """Bin ``r * N + idx[k]`` of each (row r, stream bit k) of a (B, L) fold,
    flattened in row order."""
    key = (id(idx), N)
    with _bins_lock:
        hit = _bins_cache.pop(key, None)
        if hit is not None and hit[1].size >= B * idx.size:
            _bins_cache[key] = hit   # most recently used last
            return hit[1][: B * idx.size]
        bins = (np.arange(0, B * N, N)[:, None] + idx).ravel()
        if idx.base is None and not idx.flags.writeable and bins.nbytes <= _BINS_CACHE_BYTES:
            _bins_cache[key] = (idx, bins)
            while sum(b.nbytes for _, b in _bins_cache.values()) > _BINS_CACHE_BYTES:
                del _bins_cache[next(iter(_bins_cache))]
        return bins


@dataclass(frozen=True)
class TxMap:
    """Precomputed index maps for one (rate matcher, plan) pair.

    ``emit_idx``: codeword position of each stream bit.
    ``bit_class``: reliability class of each stream bit.
    ``stream_to_symbit``: flat symbol-bit slot of each stream bit; slots not
    hit are padding (zero bits, skipped at the receiver).
    """

    emit_idx: np.ndarray
    bit_class: np.ndarray
    stream_to_symbit: np.ndarray
    n_symbols: int


@lru_cache(maxsize=512)
def build_tx_map(rm: RateMatcher, plan: TxPlan) -> TxMap:
    """Codeword position, class and symbol-bit slot of each of the L transmitted
    bits; the class assignment rotates by ``bicm_shift``."""
    _, q = rm.spec.split
    rows = 1 << q
    cols = np.asarray(rm.read_columns, dtype=np.int64)
    k = np.arange(plan.L, dtype=np.int64)
    slot = k // rows  # bit k is row k % 2^q of the slot-th column read, circularly
    idx = (k % rows) * len(cols) + cols[(rm.start_column(plan) + slot) % len(cols)]
    mod = rm.modulation
    n_classes, n_touched = mod.bits_per_dim, -(-plan.L // rows)
    sizes = np.full(n_classes, n_touched // n_classes)
    sizes[: n_touched % n_classes] += 1
    slot_class = np.roll(np.repeat(np.arange(n_classes, dtype=np.int64), sizes),
                         rm.bicm_shift(plan))
    cls_of_bit = slot_class[slot]
    B = mod.bits_per_symbol
    bpc = B // n_classes
    n_sym = -(-int(np.bincount(cls_of_bit).max()) // bpc)
    s2s = np.empty(plan.L, dtype=np.int64)
    for c in range(n_classes):
        pos = np.nonzero(cls_of_bit == c)[0]
        j = np.arange(len(pos), dtype=np.int64)
        s2s[pos] = (j // bpc) * B + c * bpc + (j % bpc)
    for a in (idx, cls_of_bit, s2s):
        a.setflags(write=False)
    return TxMap(emit_idx=idx, bit_class=cls_of_bit, stream_to_symbit=s2s, n_symbols=n_sym)


def transmit_codeword_llrs(codeword, rm: RateMatcher, plan: TxPlan, chan: ChannelSpec,
                           rng) -> np.ndarray:
    """Run one full transmission and return its LLRs on the N codeword positions.

    rate-match -> class packing -> modulate -> channel -> per-bit LLRs ->
    unpack -> fold into a zeroed accumulator (positions not sent stay 0).
    """
    cw = np.atleast_1d(codeword)
    if cw.shape[-1] != rm.spec.N:
        raise ValueError(f"codeword length {cw.shape[-1]} does not match N = {rm.spec.N}")
    if chan.kind == "bec" and rm.modulation.is_qam:
        raise ValueError("erasure channel supports BPSK only")
    tm = build_tx_map(rm, plan)
    mod = rm.modulation
    stream = cw[..., tm.emit_idx]
    sym_bits = np.zeros(cw.shape[:-1] + (tm.n_symbols * mod.bits_per_symbol,), dtype=np.uint8)
    sym_bits[..., tm.stream_to_symbit] = stream
    syms = modulate(sym_bits, mod)
    y, amp = transmit(syms, chan, mod, rng)
    # take, not [..., idx]: a C-ordered gather, which the fold ravels without a copy
    llr_stream = np.take(demodulate(y, amp, chan, mod), tm.stream_to_symbit, axis=-1)
    return de_rate_match(llr_stream, rm, plan)
