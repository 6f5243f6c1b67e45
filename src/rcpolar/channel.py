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
from functools import lru_cache, reduce

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
    def bits_per_dim(self) -> int:
        """Label bits per dimension; also the number of reliability classes."""
        return 1 if self.order == 2 else self.bits_per_symbol // 2

    def constellation(self) -> np.ndarray:
        """Complex points indexed by the symbol's bit tuple read MSB-first."""
        return _label_points(self).astype(complex)


BPSK = ModulationSpec(2)
QAM16 = ModulationSpec(16)
QAM64 = ModulationSpec(64)


@lru_cache(maxsize=None)
def _gray_pam(m: int) -> tuple[np.ndarray, float]:
    """Unnormalized amplitude of each m-bit Gray label of one QAM dimension,
    and the norm that gives the two-dimensional constellation unit energy.

    Level l, counted from the most negative, has amplitude 2l - (L-1) and
    label l ^ (l >> 1), so neighbouring levels differ in one label bit.
    """
    lvl = np.arange(1 << m)
    amp = np.empty(1 << m)
    amp[lvl ^ (lvl >> 1)] = 2.0 * lvl - ((1 << m) - 1)
    amp.setflags(write=False)
    return amp, math.sqrt(2.0 * float(np.mean(amp**2)))


@lru_cache(maxsize=None)
def _label_points(mod: ModulationSpec) -> np.ndarray:
    """Unit-energy point of each symbol label (its bits read MSB first).

    BPSK points are real.  A QAM label interleaves the I and Q labels, I bit
    first, and each point is ``(i_amp + 1j * q_amp) / norm``.
    """
    if not mod.is_qam:
        pts = np.array([1.0, -1.0])
    else:
        amp, norm = _gray_pam(mod.bits_per_dim)
        bits = (np.arange(mod.order)[:, None] >> np.arange(mod.bits_per_symbol - 1, -1, -1)) & 1
        weights = 1 << np.arange(mod.bits_per_dim - 1, -1, -1)
        pts = (amp[bits[:, 0::2] @ weights] + 1j * amp[bits[:, 1::2] @ weights]) / norm
    pts.setflags(write=False)
    return pts


LLR_INF = 300.0   # finite LLR of a bit the erasure channel did not erase


@dataclass(frozen=True)
class ChannelSpec:
    """Channel model: AWGN, per-symbol (fast) fading, or an erasure channel."""

    kind: str                     # "awgn" | "fading" | "bec"
    snr_db: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in ("awgn", "fading", "bec"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind == "bec":
            if self.epsilon is None or not 0.0 <= self.epsilon <= 1.0:
                raise ValueError("bec channel needs epsilon in [0, 1]")
        else:
            if self.snr_db is None or not math.isfinite(self.snr_db):
                raise ValueError(f"{self.kind} channel needs a finite snr_db")

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
    sym_bits = bits.reshape(bits.shape[:-1] + (n // B, B))
    labels = sym_bits[..., 0].astype(np.intp)
    for j in range(1, B):
        labels = (labels << 1) | sym_bits[..., j]
    return _label_points(mod)[labels]


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
    lvl = np.arange(1 << m)
    gray = lvl ^ (lvl >> 1)
    amp, norm = _gray_pam(m)
    lv = amp[gray] / norm
    lv.setflags(write=False)
    members = tuple(
        tuple(tuple(int(l) for l in np.flatnonzero(((gray >> (m - 1 - b)) & 1) == v))
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
    a_max = reduce(np.maximum, [metric[l] for l in idx])  # exact in any order
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


def _add(x, y):
    """x + y, where None stands for an exact zero term."""
    if x is None:
        return y
    return x if y is None else x + y


def _pam_bit_llrs(z: np.ndarray, amp: np.ndarray, sigma2: float, m: int) -> np.ndarray:
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
        out[..., b] = _log_sum_exp(metric, idx0) - _log_sum_exp(metric, idx1)
    return out


def demodulate(received, amp, chan: ChannelSpec, mod: ModulationSpec) -> np.ndarray:
    """Received symbols (+ known fading) -> per-bit LLRs, positive favors 0."""
    y = np.asarray(received)
    if chan.kind == "bec":
        return np.sign(np.real(y)) * LLR_INF
    sigma2 = chan.noise_sigma2(mod)
    if mod.order == 2:
        return 2.0 * np.asarray(amp) * np.real(y) / sigma2
    coef = np.asarray(amp)
    a = np.abs(coef)
    safe = np.where(a > 0, a, 1.0)
    z = np.conj(coef) * y / safe
    m = mod.bits_per_dim
    li = _pam_bit_llrs(np.real(z), a, sigma2, m)
    lq = _pam_bit_llrs(np.imag(z), a, sigma2, m)
    out = np.empty(y.shape + (2 * m,))
    out[..., 0::2] = li
    out[..., 1::2] = lq
    return out.reshape(y.shape[:-1] + (y.shape[-1] * 2 * m,))

