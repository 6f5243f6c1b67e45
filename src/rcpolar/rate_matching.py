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
class assignment with it; Chase retransmissions reuse transmission 1 exactly.

``build_tx_map`` is the single cached map of one transmission: for each
transmitted bit it names the codeword position the bit carries and the
symbol-bit slot it rides.  The sender, ``de_rate_match`` and the BICM design
means all read it.
"""

from __future__ import annotations

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
    "assign_bicm_columns",
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

    def start_column(self, plan: TxPlan) -> int:
        """0-based reading slot where transmission r starts."""
        if plan.mode == "cc" or plan.r == 1:
            return 0
        p, _ = self.spec.split
        return ((plan.r - 1) * (1 << p)) // plan.t

    def bicm_shift(self, plan: TxPlan) -> int:
        """Slots by which the class assignment rotates for this transmission."""
        p, _ = self.spec.split
        if plan.mode == "ir":
            return 0  # the shift is already carried by the start column
        if self.shift_cc_bicm:
            return ((plan.r - 1) * (1 << p)) // plan.t
        return 0


def de_rate_match(llrs, rm: RateMatcher, plan: TxPlan, accumulator) -> np.ndarray:
    """Add received LLRs into their codeword positions inside ``accumulator``.

    Repeated bits and retransmissions accumulate; positions never transmitted
    stay exactly 0.  The accumulator is modified in place and returned.
    """
    llrs = np.asarray(llrs, dtype=float)
    acc = accumulator
    if llrs.shape[-1] != plan.L:
        raise ValueError(f"LLR length {llrs.shape[-1]} does not match L = {plan.L}")
    if acc.shape[:-1] != llrs.shape[:-1] or acc.shape[-1] != rm.spec.N:
        raise ValueError("accumulator shape does not match LLR batch and N")
    idx = build_tx_map(rm, plan).emit_idx
    flat_acc = acc.reshape(-1, rm.spec.N)
    flat_llr = llrs.reshape(-1, plan.L)
    np.add.at(flat_acc, (np.arange(flat_acc.shape[0])[:, None], idx[None, :]), flat_llr)
    return acc


def assign_bicm_columns(rm: RateMatcher, plan: TxPlan) -> np.ndarray:
    """Reliability class of each touched column slot, in reading order.

    The slots split into consecutive groups, one per class, as equal as
    possible with earlier groups larger; the assignment then rotates by
    ``bicm_shift``.
    """
    _, q = rm.spec.split
    n_touched = -(-plan.L // (1 << q))
    n_classes = rm.modulation.bits_per_dim
    sizes = np.full(n_classes, n_touched // n_classes)
    sizes[: n_touched % n_classes] += 1
    classes = np.repeat(np.arange(n_classes, dtype=np.int64), sizes)
    return np.roll(classes, rm.bicm_shift(plan))


@dataclass(frozen=True)
class TxMap:
    """Precomputed index maps for one (rate matcher, plan) pair.

    ``emit_idx``: codeword position of each stream bit.
    ``stream_to_symbit``: flat symbol-bit slot of each stream bit; slots not
    hit are padding (zero bits, skipped at the receiver).
    """

    emit_idx: np.ndarray
    stream_to_symbit: np.ndarray
    n_symbols: int


@lru_cache(maxsize=512)
def build_tx_map(rm: RateMatcher, plan: TxPlan) -> TxMap:
    """Codeword position and symbol-bit slot of each of the L transmitted bits."""
    _, q = rm.spec.split
    rows = 1 << q
    cols = np.asarray(rm.read_columns, dtype=np.int64)
    k = np.arange(plan.L, dtype=np.int64)
    slot = k // rows  # bit k is row k % 2^q of the slot-th column read, circularly
    idx = (k % rows) * len(cols) + cols[(rm.start_column(plan) + slot) % len(cols)]
    mod = rm.modulation
    if not mod.is_qam:
        s2s, n_sym = k, plan.L
    else:
        B = mod.bits_per_symbol
        cls_of_bit = assign_bicm_columns(rm, plan)[slot]
        bpc = B // mod.bits_per_dim
        counts = np.bincount(cls_of_bit, minlength=mod.bits_per_dim)
        n_sym = int(max(-(-c // bpc) for c in counts))
        s2s = np.empty(plan.L, dtype=np.int64)
        for c in range(mod.bits_per_dim):
            pos = np.nonzero(cls_of_bit == c)[0]
            j = np.arange(len(pos), dtype=np.int64)
            s2s[pos] = (j // bpc) * B + c * bpc + (j % bpc)
    idx.setflags(write=False)
    s2s.setflags(write=False)
    return TxMap(emit_idx=idx, stream_to_symbit=s2s, n_symbols=n_sym)


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
    llr_stream = demodulate(y, amp, chan, mod)[..., tm.stream_to_symbit]
    return de_rate_match(llr_stream, rm, plan, np.zeros(cw.shape[:-1] + (rm.spec.N,)))
