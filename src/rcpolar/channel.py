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
_LOG2 = math.log(2.0)


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
            faded = amp * symbols
        else:   # amplitude 1: 1.0 * x is x, so the multiply is skipped
            amp, faded = np.ones(symbols.shape), symbols
        return faded + sigma * rng.standard_normal(symbols.shape), amp
    if chan.kind == "fading":
        g = rng.standard_normal(symbols.shape + (2,))
        coef = (g[..., 0] + 1j * g[..., 1]) / math.sqrt(2.0)
        faded = coef * symbols
    else:
        coef, faded = np.ones(symbols.shape, dtype=complex), symbols
    noise = rng.standard_normal(symbols.shape + (2,))
    return faded + sigma * (noise[..., 0] + 1j * noise[..., 1]), coef


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

    The general rule takes the maximum out and counts its occurrences, adds
    the other terms ``exp(metric[l] - max)`` pairwise in level order, and
    restores the maxima with ``log1p(s / count) + log(count)``.  This is the
    arithmetic of scipy's ``logsumexp`` over a length-2^m axis whose other
    entries are -inf: numpy adds that axis in sequence below 8 entries and as
    an 8-way tree at 8, and on every Gray label set (two members for 16-QAM,
    four for 64-QAM) either order is the pairwise sum, so the LLRs keep their
    last bits.

    A two-member set (a, b) takes one ``exp``: the general rule's sum is
    ``exp(min - max)`` over a count of 1 when a != b, and 0 over a count of
    2 when a == b, so ``log1p(exp(min - max))``, or ``log(2)`` on ties, plus
    the maximum gives the same bits.
    """
    if len(idx) == 2:
        a, b = metric[idx[0]], metric[idx[1]]
        hi = np.maximum(a, b)
        s = np.minimum(a, b, out=np.empty_like(hi))   # an array, also for 0-d inputs
        s -= hi
        np.log1p(np.exp(s, out=s), out=s)
        np.copyto(s, _LOG2, where=a == b)
        s += hi
        return s
    a_max = reduce(np.maximum, [metric[l] for l in idx])  # exact in any order
    is_max = [metric[l] == a_max for l in idx]
    cnt = sum(is_max)
    terms = [np.where(hit, 0.0, np.exp(metric[l] - a_max)) for l, hit in zip(idx, is_max)]
    while len(terms) > 1:
        terms = [terms[i] + terms[i + 1] for i in range(0, len(terms), 2)]
    return np.log1p(terms[0] / cnt) + np.log(cnt) + a_max


def _pam_bit_llrs(z: np.ndarray, amp: np.ndarray, sigma2: float, m: int) -> np.ndarray:
    """Exact per-bit LLRs of one real dimension.

    z: matched-filter outputs amp*level + N(0, sigma2); amp broadcastable.
    Returns (..., m) with bit 0 = MSB of the Gray label.
    """
    lv, members = pam_demap_table(m)
    # np.square, not **: on a 0-d input ** takes the scalar pow(), whose
    # last bit can differ from the array square; x / -c is -x / c bit for bit
    metric = [np.square(z - amp * lv[l]) / (-2.0 * sigma2) for l in range(lv.size)]
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

