"""Bit-channel reliability estimation and information-set selection.

Three estimators populate a :class:`ReliabilityProfile`:

* Gaussian-approximation density evolution over mean LLRs (``ga_evolve``),
* the exact erasure-probability recursion on the BEC (``bhattacharyya_bec``),
* genie-aided successive-cancellation Monte-Carlo (``genie_monte_carlo``).

Punctured coded positions enter the GA with mean 0 (the receiver sees an LLR
that is identically zero) and the BEC recursion with erasure probability 1.

The check-node function ``phi`` is evaluated once by composite Gauss-Legendre
quadrature onto a dense log-spaced grid and interpolated monotonically; its
inverse is solved against that same interpolant, so the pair is self-consistent
to far better than 1e-9.  Outside the grid a matched series (small x) and a
matched exponential tail (large x) extend both directions monotonically.
"""

from __future__ import annotations

import io
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
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
    "union_bound",
    "design_mean_llr",
]

# ---------------------------------------------------------------------------
# phi table
# ---------------------------------------------------------------------------

_GRID_LO = 1e-6
_GRID_HI = 200.0
_GRID_KNOTS = 8192


def _quad_log_phi(xs: np.ndarray) -> np.ndarray:
    """log phi(x) by composite 16-point Gauss-Legendre quadrature.

    Uses the cancellation-free form phi(x) = E[2 / (1 + e^U)], U ~ N(x, 2x).
    The integrand has two features: the Gaussian bulk around u = x (width
    sqrt(2x)) and the logistic knee at u = 0 (width ~2); panels are sized to
    resolve both.
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        sd = math.sqrt(2.0 * x)
        blo = x - 42.0 * sd
        bhi = x + 42.0 * sd
        edges = [np.linspace(blo, bhi, max(257, int(np.ceil((bhi - blo) / 1.5)) + 1))]
        if blo > -64.0:
            # left segment covering the logistic knee and the far Gaussian tail
            edges.insert(0, np.linspace(-64.0, blo, int(np.ceil((blo + 64.0) / 2.0)) + 1))
        ed = np.concatenate([e[:-1] for e in edges] + [edges[-1][-1:]])
        mid = 0.5 * (ed[1:] + ed[:-1])
        half = 0.5 * (ed[1:] - ed[:-1])
        u = mid[:, None] + half[:, None] * nodes[None, :]
        w = half[:, None] * weights[None, :]
        logf = (
            math.log(2.0)
            - np.logaddexp(0.0, u)
            - (u - x) ** 2 / (4.0 * x)
            - 0.5 * math.log(4.0 * math.pi * x)
        )
        m = logf.max()
        out[i] = m + math.log(float(np.sum(w * np.exp(logf - m))))
    return out


def _log_phi_tail(x) -> np.ndarray:
    """Log of the large-x decay shape; used only relative to its value at 200."""
    x = np.asarray(x, dtype=float)
    return 0.5 * np.log(np.pi / x) - x / 4.0 + np.log1p(-10.0 / (7.0 * x))


class _PhiTable:
    """Lazily built interpolation table for log phi and its inverse."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ready = False

    def _build(self):
        xs = np.exp(np.linspace(math.log(_GRID_LO), math.log(_GRID_HI), _GRID_KNOTS))
        ls = _quad_log_phi(xs)
        self.log_x = np.log(xs)
        self.log_phi_knots = ls
        self.fwd = PchipInterpolator(self.log_x, ls, extrapolate=False)
        self.fwd_d = self.fwd.derivative()
        # seed table for the inverse: log phi is strictly decreasing
        self.inv = PchipInterpolator(ls[::-1], self.log_x[::-1], extrapolate=False)
        self.l_hi = float(ls[0])    # log phi(1e-6), close to 0
        self.l_lo = float(ls[-1])   # log phi(200)
        self._ready = True

    def get(self):
        if not self._ready:
            with self._lock:
                if not self._ready:
                    self._build()
        return self


_TABLE = _PhiTable()


def log_phi(x) -> np.ndarray:
    """Elementwise log of phi; phi(0) = 1, strictly decreasing in x."""
    t = _TABLE.get()
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("phi is defined for x >= 0 only")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = x < _GRID_LO
    big = x > _GRID_HI
    mid = ~small & ~big
    # second-order series around 0: phi ~ 1 - x/2 + x^2/4
    xs = x[small]
    out[small] = np.log1p(-0.5 * xs * (1.0 - 0.5 * xs))
    if np.any(mid):
        out[mid] = t.fwd(np.log(x[mid]))
    if np.any(big):
        out[big] = t.l_lo + _log_phi_tail(x[big]) - _log_phi_tail(_GRID_HI)
    return float(out[0]) if scalar else out


def phi(x) -> np.ndarray:
    """Check-node degradation function of the Gaussian approximation."""
    return np.exp(log_phi(x))


def _phi_inverse_log(ly) -> np.ndarray:
    """Solve log_phi(x) = ly elementwise; ly must be <= 0."""
    t = _TABLE.get()
    ly = np.atleast_1d(np.asarray(ly, dtype=float))
    out = np.empty_like(ly)
    hi = ly > t.l_hi      # x below the grid: invert the series
    lo = ly < t.l_lo      # x beyond the grid: invert the matched tail
    mid = ~hi & ~lo
    eps = -np.expm1(ly[hi])                 # 1 - y
    out[hi] = 2.0 * eps * (1.0 + eps)
    if np.any(lo):
        target = ly[lo] - t.l_lo + _log_phi_tail(_GRID_HI)
        xv = np.full(target.shape, 2.0 * _GRID_HI)
        for _ in range(60):
            xv = -4.0 * (target - 0.5 * np.log(np.pi / xv) - np.log1p(-10.0 / (7.0 * xv)))
        out[lo] = xv
    if np.any(mid):
        target = ly[mid]
        # Newton on the forward interpolant, seeded by the inverse table
        z = np.clip(t.inv(target), t.log_x[0], t.log_x[-1])
        for _ in range(4):
            z = z - (t.fwd(z) - target) / t.fwd_d(z)
            z = np.clip(z, t.log_x[0], t.log_x[-1])
        resid = np.abs(t.fwd(z) - target)
        bad = ~np.isfinite(z) | (resid > 1e-10)
        if np.any(bad):
            # bisection fallback where Newton struggled (flat small-x end)
            tb = target[bad]
            lo_b = np.full(tb.shape, t.log_x[0])
            hi_b = np.full(tb.shape, t.log_x[-1])
            for _ in range(64):
                zm = 0.5 * (lo_b + hi_b)
                too_small = t.fwd(zm) > tb  # log_phi decreasing
                lo_b = np.where(too_small, zm, lo_b)
                hi_b = np.where(too_small, hi_b, zm)
            zb = 0.5 * (lo_b + hi_b)
            z = z.copy()
            z[bad] = zb
        out[mid] = np.exp(z)
    return out


def phi_inverse(y) -> np.ndarray:
    """Inverse of :func:`phi` on (0, 1]; ``phi_inverse(1) = 0``."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or np.any(y > 1.0):
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
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    la, lb = log_phi(a), log_phi(b)
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
    N = means.shape[-1]
    n = N.bit_length() - 1
    if N != 1 << n:
        raise ValueError(f"length {N} is not a power of two")
    if np.any(means < 0):
        raise ValueError("channel means must be nonnegative")
    return butterfly(means[..., bit_reversal_permutation(n)], _ga_stage)


def _ga_stage(x, y):
    # ga_check_mean is looked up at call time, so a wrapper installed on the
    # module attribute sees every stage
    x[...], y[...] = ga_check_mean(x, y), x + y


def bit_error_prob(mean_llr) -> np.ndarray:
    """Q(sqrt(mean/2)): decision error probability of a consistent-Gaussian LLR."""
    m = np.asarray(mean_llr, dtype=float)
    if np.any(m < 0):
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
        if np.any(ep < 0) or np.any(ep > 1):
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
    if np.any(z < 0) or np.any(z > 1):
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


def genie_monte_carlo(
    spec: PolarCodeSpec,
    chan,
    mod,
    rate_matcher=None,
    trials: int = 100_000,
    seed: int = 0,
    batch_size: int = 8192,
    tx_length: int | None = None,
) -> ReliabilityProfile:
    """Estimate per-position first-error rates with a genie-aided SC decoder.

    Random information blocks are encoded, sent through ``chan``/``mod`` (with
    ``rate_matcher`` selecting/repeating coded bits when given), and decoded
    with every previous decision forced correct.  Batches of fixed size carry
    their own seeded random streams, so the result does not depend on how the
    batches are scheduled.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts = np.zeros(spec.N, dtype=np.int64)
    n_batches = (trials + batch_size - 1) // batch_size
    for bi in range(n_batches):
        b = min(batch_size, trials - bi * batch_size)
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
        class_mean = np.zeros(mod.n_subchannel_types)
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
# selection and the block-error bound
# ---------------------------------------------------------------------------


def select_information_set(profile: ReliabilityProfile, k: int) -> tuple[int, ...]:
    """1-based indices of the k most reliable inputs; ties prefer lower index."""
    N = len(profile)
    if not 0 <= k <= N:
        raise ValueError(f"k = {k} out of range [0, {N}]")
    order = np.lexsort((np.arange(N), profile.error_prob))
    return tuple(sorted(int(i) + 1 for i in order[:k]))


def union_bound(profile: ReliabilityProfile, info_set) -> float:
    """Sum of estimated error probabilities over a 1-based information set."""
    idx = np.asarray(sorted(int(i) - 1 for i in info_set), dtype=np.int64)
    if idx.size and (idx[0] < 0 or idx[-1] >= len(profile)):
        raise ValueError("info_set index out of range")
    return float(np.sum(profile.error_prob[idx]))
