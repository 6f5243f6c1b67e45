"""Modulation, channel simulation, and per-bit LLR demodulation.

LLR convention: positive favors bit 0.  Coded positions that were never
transmitted hold LLR exactly 0.

Symbol bit layout for QAM: position 0 is the in-phase sign bit, position 1 the
quadrature sign bit, then the next I/Q bit pair, and so on.  Consecutive pairs
therefore share one reliability class: positions {0,1} are the strongest pair,
{2,3} the next, {4,5} the weakest (64-QAM).  Gray labelling is applied per
dimension, so adjacent constellation points differ in exactly one bit.

SNR definitions: 10*log10(1/sigma^2) for BPSK and 10*log10(1/(2*sigma^2)) for
QAM, where sigma^2 is the noise variance per real dimension and constellations
have unit average energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ModulationSpec",
    "ChannelSpec",
    "BPSK",
    "QAM16",
    "QAM64",
    "modulate",
    "transmit",
    "demodulate",
    "bicm_subchannel_of",
]


@dataclass(frozen=True)
class ModulationSpec:
    """Constellation order and derived bit geometry."""

    order: int

    def __post_init__(self):
        if self.order not in (2, 16, 64):
            raise ValueError(f"unsupported modulation order {self.order}")

    @property
    def bits_per_symbol(self) -> int:
        return int(math.log2(self.order))

    @property
    def is_qam(self) -> bool:
        return self.order != 2

    @property
    def n_subchannel_types(self) -> int:
        return 1 if self.order == 2 else self.bits_per_symbol // 2

    @property
    def bits_per_dim(self) -> int:
        return 1 if self.order == 2 else self.bits_per_symbol // 2

    @property
    def energy_norm(self) -> float:
        """1 for BPSK, sqrt(10) for 16-QAM, sqrt(42) for 64-QAM."""
        if self.order == 2:
            return 1.0
        lv = pam_levels(self.bits_per_dim)
        return math.sqrt(2.0 * float(np.mean(lv**2)))

    def constellation(self) -> np.ndarray:
        """Complex points indexed by the symbol's bit tuple read MSB-first."""
        if not self.is_qam:
            return np.array([1.0 + 0j, -1.0 + 0j])
        B = self.bits_per_symbol
        pts = np.empty(self.order, dtype=complex)
        for val in range(self.order):
            bits = np.array([(val >> (B - 1 - i)) & 1 for i in range(B)], dtype=np.uint8)
            pts[val] = complex(_map_symbol(bits[None, :], self)[0])
        return pts


BPSK = ModulationSpec(2)
QAM16 = ModulationSpec(16)
QAM64 = ModulationSpec(64)


@lru_cache(maxsize=None)
def pam_levels(bits_per_dim: int) -> np.ndarray:
    """Unnormalized amplitude levels in natural (binary-index) order."""
    L = 1 << bits_per_dim
    lv = 2.0 * np.arange(L) - (L - 1)
    lv.setflags(write=False)
    return lv


def _gray_decode(bits: np.ndarray) -> np.ndarray:
    """Gray-coded bit rows (..., m), MSB first -> level index (...,)."""
    idx = np.zeros(bits.shape[:-1], dtype=np.int64)
    acc = np.zeros(bits.shape[:-1], dtype=np.int64)
    for j in range(bits.shape[-1]):
        acc ^= bits[..., j].astype(np.int64)
        idx = (idx << 1) | acc
    return idx


@lru_cache(maxsize=None)
def _gray_index_table(bits_per_dim: int) -> np.ndarray:
    """gray_value -> level index, so vectorized mapping is a table lookup."""
    m = bits_per_dim
    tab = np.empty(1 << m, dtype=np.int64)
    for g in range(1 << m):
        bits = np.array([(g >> (m - 1 - j)) & 1 for j in range(m)], dtype=np.uint8)
        tab[g] = int(_gray_decode(bits[None, :])[0])
    tab.setflags(write=False)
    return tab


def _map_symbol(sym_bits: np.ndarray, mod: ModulationSpec) -> np.ndarray:
    """(..., bits_per_symbol) bit rows -> unit-energy complex symbols."""
    m = mod.bits_per_dim
    i_bits = sym_bits[..., 0::2]
    q_bits = sym_bits[..., 1::2]

    def gray_val(b):
        v = np.zeros(b.shape[:-1], dtype=np.int64)
        for j in range(m):
            v = (v << 1) | b[..., j].astype(np.int64)
        return v

    tab = _gray_index_table(m)
    lv = pam_levels(m)
    i_amp = lv[tab[gray_val(i_bits)]]
    q_amp = lv[tab[gray_val(q_bits)]]
    return (i_amp + 1j * q_amp) / mod.energy_norm


@dataclass(frozen=True)
class ChannelSpec:
    """Channel model: AWGN, per-symbol (fast) fading, or an erasure channel.

    ``llr_inf`` is the finite stand-in for an infinite LLR, used for erasure
    non-erasures and known padding bits so downstream arithmetic stays total.
    """

    kind: str                     # "awgn" | "fading" | "bec"
    snr_db: float | None = None
    epsilon: float | None = None
    llr_inf: float = 300.0

    def __post_init__(self):
        if self.kind not in ("awgn", "fading", "bec"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind == "bec":
            if self.epsilon is None or not 0.0 <= self.epsilon <= 1.0:
                raise ValueError("bec channel needs epsilon in [0, 1]")
        else:
            if self.snr_db is None:
                raise ValueError(f"{self.kind} channel needs snr_db")

    def noise_sigma2(self, mod: ModulationSpec) -> float:
        """Noise variance per real dimension at this SNR."""
        if self.kind == "bec":
            raise ValueError("erasure channel has no noise variance")
        s = 10.0 ** (-self.snr_db / 10.0)
        return s if mod.order == 2 else s / 2.0


def modulate(bits, mod: ModulationSpec) -> np.ndarray:
    """Bits (..., n_bits) -> symbols; n_bits must divide into whole symbols."""
    bits = np.asarray(bits)
    n = bits.shape[-1]
    B = mod.bits_per_symbol
    if n % B:
        raise ValueError(f"bit count {n} not divisible by {B} bits/symbol")
    if mod.order == 2:
        return 1.0 - 2.0 * bits.astype(float)
    sym_bits = bits.reshape(bits.shape[:-1] + (n // B, B))
    return _map_symbol(sym_bits, mod)


def transmit(symbols, chan: ChannelSpec, mod: ModulationSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    """Push symbols through the channel; returns (received, fading amplitude).

    AWGN uses amplitude 1.  Fading draws an independent coefficient per symbol
    (complex Gaussian for QAM, Rayleigh amplitude for BPSK), known at the
    receiver.  For the erasure channel ``symbols`` must be +-1 BPSK values;
    erased positions are returned as 0.
    """
    symbols = np.asarray(symbols)
    if chan.kind == "bec":
        erase = rng.random(symbols.shape) < chan.epsilon
        return np.where(erase, 0.0, symbols), np.ones_like(symbols, dtype=float)
    sigma = math.sqrt(chan.noise_sigma2(mod))
    if mod.order == 2:
        if chan.kind == "fading":
            g = rng.standard_normal(symbols.shape + (2,))
            amp = np.sqrt(g[..., 0] ** 2 + g[..., 1] ** 2) / math.sqrt(2.0)
        else:
            amp = np.ones(symbols.shape)
        y = amp * symbols + sigma * rng.standard_normal(symbols.shape)
        return y, amp
    if chan.kind == "fading":
        g = rng.standard_normal(symbols.shape + (2,))
        coef = (g[..., 0] + 1j * g[..., 1]) / math.sqrt(2.0)
    else:
        coef = np.ones(symbols.shape, dtype=complex)
    noise = rng.standard_normal(symbols.shape + (2,))
    y = coef * symbols + sigma * (noise[..., 0] + 1j * noise[..., 1])
    return y, coef


@lru_cache(maxsize=None)
def pam_demap_table(bits_per_dim: int) -> tuple[np.ndarray, tuple[tuple[tuple[int, ...], ...], ...]]:
    """Unit-energy levels of one QAM dimension and the Gray label sets.

    Returns ``(levels, members)``: ``levels`` in natural order, scaled so the
    two-dimensional constellation has unit average energy, and
    ``members[b][v]`` the indices of the levels whose Gray label has value v
    at bit b (bit 0 = MSB), in level order.
    """
    m = bits_per_dim
    lv = pam_levels(m)
    lv = lv / math.sqrt(2.0 * float(np.mean(lv**2)))
    lv.setflags(write=False)
    tab = _gray_index_table(m)
    gray_of_level = np.empty_like(tab)
    gray_of_level[tab] = np.arange(1 << m)
    members = tuple(
        tuple(tuple(int(l) for l in np.flatnonzero(((gray_of_level >> (m - 1 - b)) & 1) == v))
              for v in (0, 1))
        for b in range(m))
    return lv, members


def _log_sum_exp(metric: list, idx: tuple[int, ...]) -> np.ndarray:
    """log sum_l exp(metric[l]) over the levels ``idx``, elementwise.

    This is the arithmetic of scipy's ``logsumexp`` over a length-2^m last
    axis whose other entries are -inf: the maxima are taken out of the sum
    and counted, the rest add up in numpy's reduction order over the 2^m
    entries (in sequence below 8, an 8-way tree at 8, the most that 64-QAM
    needs), and ``log1p(s / count) + log(count)`` restores them.  Matching
    that arithmetic keeps the LLRs' last bits.
    """
    a_max = _max(metric, idx)
    is_max = {l: metric[l] == a_max for l in idx}
    cnt = sum(is_max.values())
    terms = [np.where(is_max[l], 0.0, np.exp(metric[l] - a_max)) if l in is_max else None
             for l in range(len(metric))]
    if len(terms) == 8:
        for _ in range(3):
            terms = [_add(terms[i], terms[i + 1]) for i in range(0, len(terms), 2)]
    s = None
    for t in terms:
        s = _add(s, t)
    s = np.zeros_like(a_max) if s is None else s
    s = np.where(s == 0, s, s / cnt)
    return np.log1p(s) + np.log(cnt) + a_max


def _max(metric: list, idx: tuple[int, ...]) -> np.ndarray:
    """Elementwise maximum of the levels ``idx``; exact in any order."""
    a_max = metric[idx[0]]
    for l in idx[1:]:
        a_max = np.maximum(a_max, metric[l])
    return a_max


def _add(x, y):
    """x + y, where None stands for an exact zero term."""
    if x is None:
        return y
    return x if y is None else x + y


def _pam_bit_llrs(z: np.ndarray, amp: np.ndarray, sigma2: float, m: int,
                  max_log: bool = False) -> np.ndarray:
    """Exact per-bit LLRs of one real dimension.

    z: matched-filter outputs amp*level + N(0, sigma2); amp broadcastable.
    Returns (..., m) with bit 0 = MSB of the Gray label.
    """
    lv, members = pam_demap_table(m)
    # np.square, not **: on a 0-d input ** takes the scalar pow(), whose
    # last bit can differ from the array square
    metric = [-np.square(z - amp * lv[l]) / (2.0 * sigma2) for l in range(lv.size)]
    out = np.empty(np.shape(z) + (m,))
    for b, (idx0, idx1) in enumerate(members):
        if max_log:
            out[..., b] = _max(metric, idx0) - _max(metric, idx1)
        else:
            out[..., b] = _log_sum_exp(metric, idx0) - _log_sum_exp(metric, idx1)
    return out


def demodulate(received, amp, chan: ChannelSpec, mod: ModulationSpec,
               max_log: bool = False) -> np.ndarray:
    """Received symbols (+ known fading) -> per-bit LLRs, positive favors 0."""
    y = np.asarray(received)
    if chan.kind == "bec":
        return np.sign(np.real(y)) * chan.llr_inf
    sigma2 = chan.noise_sigma2(mod)
    if mod.order == 2:
        return 2.0 * np.asarray(amp) * np.real(y) / sigma2
    coef = np.asarray(amp)
    a = np.abs(coef)
    safe = np.where(a > 0, a, 1.0)
    z = np.conj(coef) * y / safe
    m = mod.bits_per_dim
    li = _pam_bit_llrs(np.real(z), a, sigma2, m, max_log)
    lq = _pam_bit_llrs(np.imag(z), a, sigma2, m, max_log)
    out = np.empty(y.shape + (2 * m,))
    out[..., 0::2] = li
    out[..., 1::2] = lq
    return out.reshape(y.shape[:-1] + (y.shape[-1] * 2 * m,))


def bicm_subchannel_of(bit_position_in_symbol: int, mod: ModulationSpec) -> int:
    """Reliability class of a symbol bit position; class 0 is the strongest."""
    if not 0 <= bit_position_in_symbol < mod.bits_per_symbol:
        raise ValueError(
            f"bit position {bit_position_in_symbol} out of range for order {mod.order}")
    if mod.order == 2:
        return 0
    return bit_position_in_symbol // 2
