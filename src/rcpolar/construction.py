"""Bit-channel reliability estimation and information-set selection.

Three estimators populate a :class:`ReliabilityProfile`:

* Gaussian-approximation density evolution over mean LLRs (``ga_evolve``),
* the exact erasure-probability recursion on the BEC (``bhattacharyya_bec``),
* genie-aided successive-cancellation Monte-Carlo through a rate matcher
  (``genie_monte_carlo``).

Punctured coded positions enter the GA with mean 0 (the receiver sees an LLR
that is identically zero) and the BEC recursion with erasure probability 1.

The check-node function ``phi`` is tabulated as log phi on a dense log-spaced
grid of 8,192 knots and interpolated monotonically; its inverse is solved
against that same interpolant, so the pair is self-consistent to far better
than 1e-9.  The interpolant is PCHIP (Fritsch & Carlson 1980), ported to
numpy from scipy's ``PchipInterpolator`` and ``PPoly``: slopes, end points,
coefficients and the power-form evaluation run in scipy's operation order, so
every coefficient and value carries scipy's bits without importing
``scipy.interpolate``.  Outside the grid a matched series (small x) and a
matched exponential tail (large x) extend both directions monotonically.  The
knots ship as package data (``data/log_phi_knots.txt``, one ``repr`` a line),
so a process reads them in milliseconds; they were computed once by composite
Gauss-Legendre quadrature, and ``tests/test_construction.py`` holds that
quadrature, recomputes every knot and compares the bits.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from scipy.special import erfc

from .channel import _pam_bit_llrs, pam_demap_table
from .decoder import genie_sc_decode
from .polar import PolarCodeSpec, bit_reversal_permutation, butterfly, encode
from .rate_matching import (RateMatcher, TxPlan, build_tx_map, de_rate_match,
                            transmit_codeword_llrs)

__all__ = [
    "ReliabilityProfile",
    "phi",
    "log_phi",
    "phi_inverse",
    "ga_check_mean",
    "ga_evolve",
    "ga_leaf_means",
    "bit_error_prob",
    "bhattacharyya_bec",
    "bec_leaf_erasures",
    "genie_monte_carlo",
    "build_bicm_ga_means",
    "select_information_set",
    "design_code",
    "design_mean_llr",
]

# ---------------------------------------------------------------------------
# phi table
# ---------------------------------------------------------------------------

_GRID_LO = 1e-6
_GRID_HI = 200.0
_GRID_KNOTS = 8192


def _knot_x() -> np.ndarray:
    """The log-spaced grid on which the shipped log phi knots are tabulated."""
    return np.exp(np.linspace(math.log(_GRID_LO), math.log(_GRID_HI), _GRID_KNOTS))


def _log_phi_tail(x) -> np.ndarray:
    """Log of the large-x decay shape; used only relative to its value at 200."""
    x = np.asarray(x, dtype=float)
    return 0.5 * np.log(np.pi / x) - x / 4.0 + np.log1p(-10.0 / (7.0 * x))


def _pchip(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCHIP interpolant through (x, y), x strictly increasing: its inner knots
    and one row [c0, c1, c2, c3, x_k] per interval, from scipy's
    ``PchipInterpolator`` slopes and end points and ``CubicHermiteSpline``
    coefficients, in its order."""
    h = np.diff(x)
    m = np.diff(y) / h
    # interior slopes: the weighted harmonic mean of the two secants, or 0
    # where they differ in sign or either is 0
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    # one-sided three-point end slopes, kept shape-preserving
    for k, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]), (-1, h[-1], h[-2], m[-1], m[-2])):
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(e) != np.sign(m0):
            e = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(e) > 3.0 * abs(m0):
            e = 3.0 * m0
        d[k] = e
    t = (d[:-1] + d[1:] - 2 * m) / h
    return x[1:-1].copy(), np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1], x[:-1]], axis=-1)


def _cubic(table: tuple[np.ndarray, np.ndarray], z: np.ndarray) -> np.ndarray:
    """The piecewise cubic ``table`` (inner knots, rows (K-1, 5) or (K-1, n, 5))
    at 1-D z inside the knots: (len(z),) or (n, len(z)).  ``searchsorted`` over
    the inner knots is scipy's interval rule x_k <= z < x_k+1, with the last
    knot in the last interval; the sum runs in ``PPoly``'s power-form order."""
    knots, rows = table
    c0, c1, c2, c3, xk = rows.take(knots.searchsorted(z, "right"), 0).T
    s = z - xk
    s2 = s * s
    return ((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s)


@lru_cache(maxsize=None)
def _phi_table() -> SimpleNamespace:
    """Interpolation table for log phi and its inverse, built from the shipped
    knots on first use."""
    text = importlib.resources.files("rcpolar.data").joinpath("log_phi_knots.txt").read_text()
    ls = np.array([float(v) for v in text.split()])
    if len(ls) != _GRID_KNOTS:
        raise RuntimeError("bundled phi knots asset is corrupt")
    log_x = np.log(_knot_x())
    knots, fwd = _pchip(log_x, ls)
    # log phi and its slope as the two columns of one table, so a Newton step
    # makes one interval search; the slope's coefficients are scipy's
    # ``PPoly.derivative`` under a zero leading term
    slope = np.hstack([np.zeros_like(fwd[:, :1]), fwd[:, :3] * [3.0, 2.0, 1.0], fwd[:, 4:]])
    inv_knots, inv = _pchip(ls[::-1], log_x[::-1])
    return SimpleNamespace(
        log_x=log_x, log_phi_knots=ls,
        fwd=(knots, fwd), fwd_and_d=(knots, np.stack([fwd, slope], axis=1)),
        # seed table for the inverse: log phi is strictly decreasing
        inv=(inv_knots, inv),
        l_hi=float(ls[0]),    # log phi(1e-6), close to 0
        l_lo=float(ls[-1]))   # log phi(200)


def log_phi(x) -> np.ndarray:
    """Elementwise log of phi; phi(0) = 1, strictly decreasing in x."""
    t = _phi_table()
    x = np.asarray(x, dtype=float)
    if not (x >= 0).all():
        raise ValueError("phi is defined for x >= 0 only")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = x < _GRID_LO
    big = x > _GRID_HI
    mid = ~small & ~big
    # second-order series around 0: phi ~ 1 - x/2 + x^2/4
    if small.any():
        xs = x[small]
        out[small] = np.log1p(-0.5 * xs * (1.0 - 0.5 * xs))
    if mid.any():
        out[mid] = _cubic(t.fwd, np.log(x[mid]))
    if big.any():
        out[big] = t.l_lo + _log_phi_tail(x[big]) - _log_phi_tail(_GRID_HI)
    return float(out[0]) if scalar else out


def phi(x) -> np.ndarray:
    """Check-node degradation function of the Gaussian approximation."""
    return np.exp(log_phi(x))


def _phi_inverse_log(ly) -> np.ndarray:
    """Solve log_phi(x) = ly elementwise; ly must be <= 0."""
    t = _phi_table()
    ly = np.atleast_1d(np.asarray(ly, dtype=float))
    out = np.empty_like(ly)
    hi = ly > t.l_hi      # x below the grid: invert the series
    lo = ly < t.l_lo      # x beyond the grid: invert the matched tail
    mid = ~hi & ~lo
    if hi.any():
        eps = -np.expm1(ly[hi])             # 1 - y
        out[hi] = 2.0 * eps * (1.0 + eps)
    if lo.any():
        target = ly[lo] - t.l_lo + _log_phi_tail(_GRID_HI)
        xv = np.full(target.shape, 2.0 * _GRID_HI)
        # the error shrinks by about 2/x per step, so ten steps reach the
        # fixed point; the count stays even because a few targets end in a
        # two-value cycle in the last bit
        for _ in range(10):
            xv = -4.0 * (target - 0.5 * np.log(np.pi / xv) - np.log1p(-10.0 / (7.0 * xv)))
        out[lo] = xv
    if mid.any():
        target = ly[mid]
        # Newton on the forward interpolant, seeded by the inverse table; four
        # steps leave a residual below 1e-13 anywhere on the table.  Clipping
        # by minimum/maximum gives np.clip's bits without its dispatch cost.
        z_lo, z_hi = t.log_x[0], t.log_x[-1]
        z = np.minimum(np.maximum(_cubic(t.inv, target), z_lo), z_hi)
        for _ in range(4):
            f, df = _cubic(t.fwd_and_d, z)
            z = np.minimum(np.maximum(z - (f - target) / df, z_lo), z_hi)
        out[mid] = np.exp(z)
    return out


def phi_inverse(y) -> np.ndarray:
    """Inverse of :func:`phi` on (0, 1]; ``phi_inverse(1) = 0``."""
    y = np.asarray(y, dtype=float)
    if not np.all((y > 0.0) & (y <= 1.0)):
        raise ValueError("phi_inverse is defined on (0, 1]")
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    out = np.where(y >= 1.0, 0.0, _phi_inverse_log(np.log(np.minimum(y, 1.0))))
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Gaussian-approximation density evolution
# ---------------------------------------------------------------------------


def design_mean_llr(design_snr_db: float) -> float:
    """Channel LLR mean used when constructing at a given design SNR.

    The design point treats unit-energy binary symbols against total noise
    power N0 with SNR = Es/N0, i.e. sigma^2 = 1/(2 SNR) per real dimension and
    mean 2/sigma^2 = 4 * 10^(snr/10).
    """
    return 4.0 * 10.0 ** (design_snr_db / 10.0)


def ga_check_mean(a, b) -> np.ndarray:
    """Mean LLR out of a check node with input means a, b (elementwise)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    # one log_phi call for both inputs: it is elementwise, and its fixed cost
    # dominates the small batches of PPA
    la, lb = log_phi(np.stack([a, b]))
    m = np.maximum(la, lb)
    n = np.minimum(la, lb)
    # log(phi_a + phi_b - phi_a phi_b), cancellation-free
    larg = m + np.log1p(np.exp(n - m) - np.exp(n))
    larg = np.minimum(larg, 0.0)
    out = _phi_inverse_log(larg)
    return np.where((a == 0.0) | (b == 0.0), 0.0, out)


def ga_leaf_means(channel_means: np.ndarray) -> np.ndarray:
    """Propagate coded-position LLR means to input means, batched.

    ``channel_means[..., t]`` is the mean LLR of coded position t (0-based
    codeword order, mean 0 where punctured).  Returns means indexed by input
    position (0-based u order).
    """
    means = np.asarray(channel_means, dtype=float)
    vals, codes = _ga_leaf_codes(*_distinct_values(means[..., _bit_reversal_of(means.shape[-1])]))
    return vals[codes]


def _bit_reversal_of(N: int) -> np.ndarray:
    """The bit-reversal permutation of length N, which must be a power of two."""
    n = N.bit_length() - 1
    if N != 1 << n:
        raise ValueError(f"length {N} is not a power of two")
    return bit_reversal_permutation(n)


def _ga_leaf_codes(vals: np.ndarray, codes: np.ndarray,
                   memo: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ga_leaf_means` on codes into a table of distinct values, rewritten
    in place; returns the leaf table and ``codes``, now indexed by u position.
    ``codes[..., j]`` must code the mean of coded position ``bit_reversal(j)``.
    Each stage runs the check node once per distinct input pair (a batch of
    patterns holds few distinct means); both node functions are elementwise,
    so the result is bit-identical to evaluating every element.  A stage's
    pair keys ``x*K + y`` are int32 while K² < 2^31; where the dense rule admits
    them, the codes are rewritten through one (2, K²) lookup table, otherwise
    through ``np.unique``.  A new table holds at most 2 entries per distinct
    pair, never more than ``codes.size``, so int32 codes cannot overflow.

    ``memo`` maps a check-node input pair, keyed by the two float64 bit
    patterns, to its output mean; the check node runs only on the pairs it
    misses, and their results are stored back.  A caller that evaluates many
    related batches (one PPA run) passes one dict to all of them; without it
    each call starts from an empty dict."""
    if not (vals >= 0).all():
        raise ValueError("channel means must be nonnegative")
    memo = {} if memo is None else memo

    def stage(x, y):
        nonlocal vals
        K = len(vals)
        k = np.multiply(x, K, dtype=np.int32 if K * K < 1 << 31 else np.int64)
        k += y
        dense = K * K <= min(_DENSE_CAP, _DENSE_RATIO * k.size)
        keys, inv = (np.flatnonzero(np.bincount(k.ravel()) > 0), k) if dense else _distinct(k)
        a, b = vals[keys // K], vals[keys % K]
        vals, remap = _distinct_values(np.concatenate([_memo_check_mean(a, b, memo), a + b]))
        # dense: indexed by the pair key itself; keys that do not occur are never read
        lut = np.empty((2, K * K if dense else len(keys)), dtype=x.dtype)
        lut[:, keys if dense else slice(None)] = remap.reshape(2, -1)
        lut[0].take(inv, out=x, mode="wrap")
        lut[1].take(inv, out=y, mode="wrap")

    butterfly(codes, stage)
    return vals, codes


def _memo_check_mean(a: np.ndarray, b: np.ndarray, memo: dict) -> np.ndarray:
    """``ga_check_mean(a, b)`` for 1-D a, b, evaluated only on the pairs that
    ``memo`` misses; those results are stored back."""
    pairs = list(zip(a.view(np.int64).tolist(), b.view(np.int64).tolist()))
    out = [memo.get(p) for p in pairs]
    miss = [i for i, v in enumerate(out) if v is None]
    if miss:
        # ga_check_mean is looked up at call time, so a wrapper installed on
        # the module attribute sees every evaluation
        for i, v in zip(miss, ga_check_mean(a[miss], b[miss]).tolist()):
            memo[pairs[i]] = out[i] = v
    return np.array(out, dtype=float)


_DENSE_CAP = 1 << 20   # dense rule: largest lookup table of a GA stage, in pair keys
_DENSE_RATIO = 8       # and its largest multiple of the stage's pair count


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct entries of an integer array and each entry's index among them."""
    table, inv = np.unique(keys.ravel(), return_inverse=True)
    return table, inv.reshape(keys.shape)   # numpy 1.x returns the inverse flat


def _distinct_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Table of the distinct float64 bit patterns in ``values`` and the code of
    each entry; -0.0, +0.0 and NaNs stay distinct, so ``table[codes]``
    reproduces ``values`` bit for bit."""
    bits, codes = _distinct(values.view(np.int64))
    return bits.view(np.float64), codes


def bit_error_prob(mean_llr) -> np.ndarray:
    """Q(sqrt(mean/2)): decision error probability of a consistent-Gaussian LLR."""
    m = np.asarray(mean_llr, dtype=float)
    if not (m >= 0).all():
        raise ValueError("mean LLR must be nonnegative")
    return 0.5 * erfc(np.sqrt(m / 2.0) / np.sqrt(2.0))


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReliabilityProfile:
    """Per-input-position reliability estimates for one code length.

    ``error_prob[i]`` estimates the chance that input position i (0-based) is
    the first wrong decision under genie-aided successive cancellation.  For
    the BEC method the entries are the exact synthesized erasure probabilities
    (a genie decoder with a fixed tie rule errs on half of those erasures).
    ``mean_llr`` is populated by the GA method and NaN otherwise.
    """

    method: str                 # "ga" | "bec" | "monte_carlo"
    design_param: float         # design mean LLR, erasure rate, or sim SNR
    error_prob: np.ndarray
    mean_llr: np.ndarray

    def __post_init__(self):
        ep = np.asarray(self.error_prob, dtype=float)
        ml = np.asarray(self.mean_llr, dtype=float)
        if ep.shape != ml.shape or ep.ndim != 1:
            raise ValueError("error_prob and mean_llr must be 1-D of equal length")
        if not np.all((ep >= 0) & (ep <= 1)):
            raise ValueError("error probabilities must lie in [0, 1]")
        ep.setflags(write=False)
        ml.setflags(write=False)
        object.__setattr__(self, "error_prob", ep)
        object.__setattr__(self, "mean_llr", ml)

    def __len__(self) -> int:
        return len(self.error_prob)

    def to_csv(self) -> str:
        """CSV text: rows ``index,mean_llr,error_prob``, 1-based, NaN written empty."""
        rows = "".join(f"{i},{'' if math.isnan(ml) else repr(ml)},{ep!r}\n" for i, (ml, ep)
                       in enumerate(zip(self.mean_llr.tolist(), self.error_prob.tolist()), 1))
        return (f"# method={self.method} design={self.design_param!r} n_positions={len(self)}\n"
                "index,mean_llr,error_prob\n" + rows)

    @classmethod
    def from_csv(cls, text: str) -> "ReliabilityProfile":
        """Parse the text ``to_csv`` writes; the rows must be indexed 1 to N in order."""
        meta, eps, mls = {}, [], []
        for ln in text.split("\n"):
            ln = ln.strip()
            if ln.startswith("#"):
                meta.update(tok.split("=", 1) for tok in ln[1:].split() if "=" in tok)
                continue
            if not ln or ln.startswith("index,"):
                continue
            i, ml, ep = ln.split(",")
            if int(i) != len(eps) + 1:
                raise ValueError(f"row {len(eps) + 1} has index {i}; rows run 1 to N in order")
            mls.append(float(ml) if ml else float("nan"))
            eps.append(float(ep))
        return cls(method=meta.get("method", "unknown"),
                   design_param=float(meta.get("design", "nan")),
                   error_prob=np.array(eps), mean_llr=np.array(mls))


def ga_evolve(spec: PolarCodeSpec, channel_means) -> ReliabilityProfile:
    """GA density evolution for one code; punctured positions carry mean 0."""
    means = np.asarray(channel_means, dtype=float)
    if means.shape != (spec.N,):
        raise ValueError(f"need {spec.N} channel means, got shape {means.shape}")
    mu = ga_leaf_means(means)
    return ReliabilityProfile(
        method="ga",
        design_param=float(means.max(initial=0.0)),
        error_prob=bit_error_prob(mu),
        mean_llr=mu,
    )


# ---------------------------------------------------------------------------
# exact BEC recursion
# ---------------------------------------------------------------------------


def bec_leaf_erasures(erasure_probs: np.ndarray) -> np.ndarray:
    """Exact synthesized-channel erasure probabilities on the BEC, batched.

    Check halves combine as ``z_a + z_b - z_a z_b`` and variable halves as
    ``z_a z_b``; both are exact for erasure channels with unequal inputs.
    """
    z = np.asarray(erasure_probs, dtype=float)
    rev = _bit_reversal_of(z.shape[-1])
    if not np.all((z >= 0) & (z <= 1)):
        raise ValueError("erasure probabilities must lie in [0, 1]")
    return butterfly(z[..., rev], _bec_stage)


def _bec_stage(x, y):
    x[...], y[...] = x + y - x * y, x * y


def bhattacharyya_bec(spec: PolarCodeSpec, erasure_probs) -> ReliabilityProfile:
    """Exact BEC reliability profile; punctured positions carry erasure 1."""
    z = np.asarray(erasure_probs, dtype=float)
    if z.shape != (spec.N,):
        raise ValueError(f"need {spec.N} erasure probabilities, got shape {z.shape}")
    out = bec_leaf_erasures(z)
    return ReliabilityProfile(
        method="bec",
        design_param=float(np.min(z)),
        error_prob=out,
        mean_llr=np.full(spec.N, np.nan),
    )


# ---------------------------------------------------------------------------
# genie-aided Monte-Carlo
# ---------------------------------------------------------------------------


_GENIE_BATCH = 8192   # trials per batch; the batch index keys the random draws


def genie_monte_carlo(rm: RateMatcher, chan, L: int, trials: int = 100_000,
                      seed: int = 0) -> ReliabilityProfile:
    """Per-position first-error rates of ``rm.spec`` under genie-aided SC decoding.

    Random information blocks are encoded, sent through ``rm`` as one
    length-``L`` transmission over ``chan`` and decoded with every previous
    decision forced correct.  A code sent without rate matching uses the
    natural-order matcher: split (n, 0), sequence N-1, ..., 0 and L = N.
    Batches of ``_GENIE_BATCH`` trials carry their own seeded random streams,
    so the result does not depend on how the batches are scheduled.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    spec = rm.spec
    plan = TxPlan(L=L, t=1, r=1, mode="cc")
    counts = np.zeros(spec.N, dtype=np.int64)
    n_batches = (trials + _GENIE_BATCH - 1) // _GENIE_BATCH
    for bi in range(n_batches):
        b = min(_GENIE_BATCH, trials - bi * _GENIE_BATCH)
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 7, bi)))
        u = np.zeros((b, spec.N), dtype=np.uint8)
        u[:, spec.info_zero_based] = rng.integers(0, 2, size=(b, spec.k), dtype=np.uint8)
        llrs = transmit_codeword_llrs(encode(u, spec), rm, plan, chan, rng)
        counts += genie_sc_decode(llrs, spec, u).sum(axis=0)
    return ReliabilityProfile(
        method="monte_carlo",
        design_param=float(chan.epsilon if chan.kind == "bec" else chan.snr_db),
        error_prob=counts / float(trials),
        mean_llr=np.full(spec.N, np.nan),
    )


@lru_cache(maxsize=None)
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 255-point Gauss-Hermite rule for weight exp(-x^2/2), read-only."""
    rule = np.polynomial.hermite_e.hermegauss(255)
    for a in rule:
        a.setflags(write=False)
    return rule


def build_bicm_ga_means(spec: PolarCodeSpec, rm: RateMatcher, L: int,
                        design_snr_db: float) -> np.ndarray:
    """Per-coded-position design LLR means under the transmission mapping.

    Each transmitted bit carries the average LLR of its reliability class at
    the design point: for QAM computed by Gauss-Hermite integration over the
    noise, for BPSK the usual 2/sigma^2 with sigma^2 = 1/(2 * 10^(snr/10)).
    Repeated positions add their means; positions never read at length L
    carry mean 0.
    """
    mod = rm.modulation
    plan = TxPlan(L=L, t=1, r=1, mode="cc")
    if not mod.is_qam:
        class_mean = np.array([design_mean_llr(design_snr_db)])
    else:
        sigma2 = 0.5 * 10.0 ** (-design_snr_db / 10.0)
        m = mod.bits_per_dim
        lv, members = pam_demap_table(m)
        nodes, weights = _hermite_rule()
        z = lv[:, None] + np.sqrt(sigma2) * nodes
        llr = _pam_bit_llrs(z, np.ones_like(z), sigma2, m)   # (level, node, bit)
        class_mean = np.zeros(m)
        for b, (idx0, _) in enumerate(members):
            for l in idx0:
                class_mean[b] += np.sum(weights * llr[l, :, b]) / np.sqrt(2.0 * np.pi) / len(idx0)
    return de_rate_match(class_mean[build_tx_map(rm, plan).bit_class], rm, plan)


# ---------------------------------------------------------------------------
# information-set selection
# ---------------------------------------------------------------------------


def select_information_set(profile: ReliabilityProfile, k: int) -> tuple[int, ...]:
    """1-based indices of the k most reliable inputs; ties prefer lower index."""
    N = len(profile)
    if not 0 <= k <= N:
        raise ValueError(f"k = {k} out of range [0, {N}]")
    order = np.lexsort((np.arange(N), profile.error_prob))
    return tuple(sorted(int(i) + 1 for i in order[:k]))


def design_code(n: int, k: int, sequence, modulation, L: int,
                design_snr_db: float) -> RateMatcher:
    """Rate matcher of the length-2^n code whose k information positions are the
    most reliable by GA at ``design_snr_db`` under the rate matching and BICM
    mapping of one length-L transmission; its ``spec`` is the designed code,
    with the split that the sequence's base length fixes."""
    split = sequence.split(n)
    probe = PolarCodeSpec(n=n, k=1, info_set=(1,), split=split)  # the means read only N and split
    means = build_bicm_ga_means(
        probe, RateMatcher(spec=probe, sequence=sequence, modulation=modulation), L, design_snr_db)
    info = select_information_set(ga_evolve(probe, means), k)
    return RateMatcher(spec=PolarCodeSpec(n=n, k=k, info_set=info, split=split),
                       sequence=sequence, modulation=modulation)
