"""Bit-channel reliability estimation and information-set selection.

Three estimators populate a :class:`ReliabilityProfile`:

* Gaussian-approximation density evolution over mean LLRs (``ga_evolve``),
* the exact erasure-probability recursion on the BEC (``bhattacharyya_bec``),
* genie-aided successive-cancellation Monte-Carlo (``genie_monte_carlo``).

Punctured coded positions enter the GA with mean 0 (the receiver sees an LLR
that is identically zero) and the BEC recursion with erasure probability 1.

The check-node function ``phi`` is tabulated as log phi on a dense log-spaced
grid of 8,192 knots and interpolated monotonically; its inverse is solved
against that same interpolant, so the pair is self-consistent to far better
than 1e-9.  Outside the grid a matched series (small x) and a matched
exponential tail (large x) extend both directions monotonically.  The knots
ship as package data (``data/log_phi_knots.txt``, one ``repr`` a line), so a
process reads them in milliseconds; they were computed once by composite
Gauss-Legendre quadrature, and ``tests/test_construction.py`` holds that
quadrature, recomputes every knot and compares the bits.
"""

from __future__ import annotations

import importlib.resources
import io
import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from scipy.interpolate import PchipInterpolator, PPoly
from scipy.special import erfc

from ._textio import open_text
from .channel import _pam_bit_llrs, demodulate, modulate, pam_demap_table, transmit
from .decoder import genie_sc_decode
from .polar import PolarCodeSpec, bit_reversal_permutation, butterfly, encode
from .rate_matching import RateMatcher, TxPlan, build_tx_map, transmit_codeword_llrs

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


@lru_cache(maxsize=None)
def _phi_table() -> SimpleNamespace:
    """Interpolation table for log phi and its inverse, built from the shipped
    knots on first use."""
    text = importlib.resources.files("rcpolar.data").joinpath("log_phi_knots.txt").read_text()
    ls = np.array([float(v) for v in text.split()])
    if len(ls) != _GRID_KNOTS:
        raise RuntimeError("bundled phi knots asset is corrupt")
    log_x = np.log(_knot_x())
    fwd = PchipInterpolator(log_x, ls, extrapolate=False)
    # log phi and its derivative as the two columns of one piecewise
    # polynomial, so a Newton step makes one interval search: the
    # derivative's coefficients under a zero leading row evaluate in the
    # same power-form order as fwd.derivative(), bit for bit
    d = fwd.derivative().c
    c = np.stack([fwd.c, np.vstack([np.zeros_like(d[:1]), d])], axis=-1)
    return SimpleNamespace(
        log_x=log_x, log_phi_knots=ls, fwd=fwd,
        fwd_and_d=PPoly(c, fwd.x, extrapolate=False),
        # seed table for the inverse: log phi is strictly decreasing
        inv=PchipInterpolator(ls[::-1], log_x[::-1], extrapolate=False),
        l_hi=float(ls[0]),    # log phi(1e-6), close to 0
        l_lo=float(ls[-1]))   # log phi(200)


def log_phi(x) -> np.ndarray:
    """Elementwise log of phi; phi(0) = 1, strictly decreasing in x."""
    t = _phi_table()
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
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
        out[mid] = t.fwd(np.log(x[mid]))
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
        for _ in range(60):
            xv = -4.0 * (target - 0.5 * np.log(np.pi / xv) - np.log1p(-10.0 / (7.0 * xv)))
        out[lo] = xv
    if mid.any():
        target = ly[mid]
        # Newton on the forward interpolant, seeded by the inverse table; four
        # steps leave a residual below 1e-13 anywhere on the table.  Clipping
        # by minimum/maximum gives np.clip's bits without its dispatch cost.
        z_lo, z_hi = t.log_x[0], t.log_x[-1]
        z = np.minimum(np.maximum(t.inv(target), z_lo), z_hi)
        for _ in range(4):
            f, df = t.fwd_and_d(z).T
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
    vals, codes = _ga_leaf_codes(*_distinct_values(np.asarray(channel_means, dtype=float)))
    return vals[codes]


def _ga_leaf_codes(vals: np.ndarray, codes: np.ndarray,
                   memo: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ga_leaf_means` on codes into a table of distinct values; returns
    the leaf table and codes.  Each stage runs the check node once per distinct
    input pair (a batch of patterns holds few distinct means); both node functions
    are elementwise, so the result is bit-identical to evaluating every element.

    ``memo`` maps a check-node input pair, keyed by the two float64 bit
    patterns, to its output mean; the check node runs only on the pairs it
    misses, and their results are stored back.  A caller that evaluates many
    related batches (one PPA run) passes one dict to all of them; without it
    each call starts from an empty dict."""
    N = codes.shape[-1]
    n = N.bit_length() - 1
    if N != 1 << n:
        raise ValueError(f"length {N} is not a power of two")
    if not np.all(vals >= 0):
        raise ValueError("channel means must be nonnegative")
    codes = codes[..., bit_reversal_permutation(n)]
    memo = {} if memo is None else memo

    def stage(x, y):
        nonlocal vals
        K = len(vals)
        keys, inv = _distinct(x * K + y, K * K)
        a, b = vals[keys // K], vals[keys % K]
        vals, remap = _distinct_values(np.concatenate([_memo_check_mean(a, b, memo), a + b]))
        x[...], y[...] = remap[inv], remap[inv + len(keys)]

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


_DENSE_CAP = 1 << 20   # largest seen-table of _distinct, in entries
_DENSE_RATIO = 8       # and its largest multiple of the key count


def _distinct(keys: np.ndarray, bound: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct entries of an int64 array and each entry's index among them;
    keys in [0, bound) are ranked by marking them in a table when it is small."""
    flat = keys.ravel()
    if bound is not None and bound <= min(_DENSE_CAP, _DENSE_RATIO * len(flat)):
        seen = np.zeros(bound, dtype=bool)
        seen[flat] = True
        rank = np.cumsum(seen, dtype=np.int32) - 1
        return np.flatnonzero(seen), rank[keys]
    table, inv = np.unique(flat, return_inverse=True)
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
    if not np.all(m >= 0):
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

    def to_csv(self, path_or_file) -> None:
        """Write rows ``index,mean_llr,error_prob`` with 1-based indices."""
        with open_text(path_or_file, "w") as fh:
            fh.write(f"# method={self.method} design={self.design_param!r} n_positions={len(self)}\n")
            fh.write("index,mean_llr,error_prob\n")
            for i in range(len(self)):
                ml = "" if math.isnan(self.mean_llr[i]) else repr(float(self.mean_llr[i]))
                fh.write(f"{i + 1},{ml},{float(self.error_prob[i])!r}\n")

    @classmethod
    def from_csv(cls, path_or_file) -> "ReliabilityProfile":
        with open_text(path_or_file) as fh:
            text = fh.read()
        method, design = "unknown", float("nan")
        eps, mls = [], []
        lines = [ln for ln in io.StringIO(text)]
        for ln in lines:
            ln = ln.strip()
            if ln.startswith("#"):
                for tok in ln[1:].split():
                    if tok.startswith("method="):
                        method = tok.split("=", 1)[1]
                    elif tok.startswith("design="):
                        design = float(tok.split("=", 1)[1])
                continue
            if not ln or ln.startswith("index,"):
                continue
            _, ml, ep = ln.split(",")
            mls.append(float(ml) if ml else float("nan"))
            eps.append(float(ep))
        return cls(method=method, design_param=design,
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
    N = z.shape[-1]
    n = N.bit_length() - 1
    if N != 1 << n:
        raise ValueError(f"length {N} is not a power of two")
    if not np.all((z >= 0) & (z <= 1)):
        raise ValueError("erasure probabilities must lie in [0, 1]")
    return butterfly(z[..., bit_reversal_permutation(n)], _bec_stage)


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


def genie_monte_carlo(
    spec: PolarCodeSpec,
    chan,
    mod,
    rate_matcher=None,
    trials: int = 100_000,
    seed: int = 0,
    tx_length: int | None = None,
) -> ReliabilityProfile:
    """Estimate per-position first-error rates with a genie-aided SC decoder.

    Random information blocks are encoded, sent through ``chan``/``mod`` (with
    ``rate_matcher`` selecting/repeating coded bits when given), and decoded
    with every previous decision forced correct.  Batches of
    ``_GENIE_BATCH`` trials carry their own seeded random streams, so the
    result does not depend on how the batches are scheduled.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts = np.zeros(spec.N, dtype=np.int64)
    n_batches = (trials + _GENIE_BATCH - 1) // _GENIE_BATCH
    for bi in range(n_batches):
        b = min(_GENIE_BATCH, trials - bi * _GENIE_BATCH)
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 7, bi)))
        u = np.zeros((b, spec.N), dtype=np.uint8)
        u[:, spec.info_zero_based] = rng.integers(0, 2, size=(b, spec.k), dtype=np.uint8)
        x = encode(u, spec)
        if rate_matcher is not None:
            L = tx_length if tx_length is not None else spec.N
            plan = TxPlan(L=L, t=1, r=1, mode="cc")
            llrs = transmit_codeword_llrs(x, rate_matcher, plan, chan, rng)
        else:
            syms = modulate(x, mod)
            y, amp = transmit(syms, chan, mod, rng)
            llrs = demodulate(y, amp, chan, mod)
        flags = genie_sc_decode(llrs, spec, u)
        counts += flags.sum(axis=0)
    return ReliabilityProfile(
        method="monte_carlo",
        design_param=float(getattr(chan, "snr_db", 0.0) or 0.0),
        error_prob=counts / float(trials),
        mean_llr=np.full(spec.N, np.nan),
    )


def build_bicm_ga_means(spec: PolarCodeSpec, rm: RateMatcher, L: int,
                        design_snr_db: float) -> np.ndarray:
    """Per-coded-position design LLR means under the transmission mapping.

    Positions never read at length L carry mean 0.  QAM positions carry the
    average LLR of their reliability class at the design point, computed by
    Gauss-Hermite integration over the noise; BPSK positions carry the usual
    2/sigma^2 with sigma^2 = 1/(2 * 10^(snr/10)).
    """
    mod = rm.modulation
    plan = TxPlan(L=L, t=1, r=1, mode="cc")
    tm = build_tx_map(rm, plan)
    if not mod.is_qam:
        means_stream = np.full(L, design_mean_llr(design_snr_db))
    else:
        sigma2 = 0.5 * 10.0 ** (-design_snr_db / 10.0)
        m = mod.bits_per_dim
        lv, members = pam_demap_table(m)
        nodes, weights = np.polynomial.hermite_e.hermegauss(255)
        class_mean = np.zeros(m)
        for b in range(m):
            idx0 = members[b][0]
            acc = 0.0
            for l in idx0:
                z = lv[l] + np.sqrt(sigma2) * nodes
                llr = _pam_bit_llrs(z, np.ones_like(z), sigma2, m)[:, b]
                acc += float(np.sum(weights * llr)) / np.sqrt(2.0 * np.pi) / len(idx0)
            class_mean[b] = acc
        # positions 2c and 2c+1 share class c; both dims have equal statistics
        bitpos_mean = np.repeat(class_mean, 2)
        means_stream = bitpos_mean[tm.stream_to_symbit % mod.bits_per_symbol]
    # repeated positions accumulate LLR mass additively; untouched stay 0
    means = np.zeros(spec.N)
    np.add.at(means, tm.emit_idx, means_stream)
    return means


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


def design_code(n: int, k: int, split: tuple[int, int], sequence, modulation,
                L: int, design_snr_db: float, shift_cc_bicm: bool = False) -> RateMatcher:
    """Rate matcher of the length-2^n code whose k information positions are the
    most reliable by GA at ``design_snr_db`` under the rate matching and BICM
    mapping of one length-L transmission; its ``spec`` is the designed code."""
    probe = PolarCodeSpec(n=n, k=1, info_set=(1,), split=split)  # the means read only N and split
    means = build_bicm_ga_means(
        probe, RateMatcher(spec=probe, sequence=sequence, modulation=modulation), L, design_snr_db)
    info = select_information_set(ga_evolve(probe, means), k)
    return RateMatcher(spec=PolarCodeSpec(n=n, k=k, info_set=info, split=split),
                       sequence=sequence, modulation=modulation, shift_cc_bicm=shift_cc_bicm)
