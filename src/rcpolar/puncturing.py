"""Puncturing-order design on a short base code and expansion to long codes.

The progressive search fixes the information set, then grows a nested family
of puncturing patterns one coded position at a time, always taking the
position whose removal keeps the block-error union bound smallest.  Prefixes
of the resulting order are the patterns for every rate, so the family is
rate-compatible by construction.

A sequence file is one line of comma-separated 0-based coded positions.  A
reference order for base length 32, designed at 3.5 dB on the Gaussian
channel at rate 11/32, ships with the package (``reference_base32_sequence``).
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .channel import ChannelSpec
from .construction import (  # noqa: F401  (ga_leaf_means: traced by rcbench)
    _bit_reversal_of,
    _ga_leaf_codes,
    bec_leaf_erasures,
    bhattacharyya_bec,
    bit_error_prob,
    design_mean_llr,
    ga_evolve,
    ga_leaf_means,
    select_information_set,
)
from .polar import PolarCodeSpec

__all__ = [
    "PuncturingSequence",
    "GaussianDesign",
    "ErasureDesign",
    "PpaStats",
    "base_code",
    "evaluate_patterns",
    "ppa",
    "exhaustive_search",
    "expand_regular",
    "sum_capacity_check",
    "reference_base32_sequence",
    "EnumerationBudgetError",
]


class EnumerationBudgetError(RuntimeError):
    """Raised when a full pattern enumeration would exceed the allowed budget."""


@dataclass(frozen=True)
class GaussianDesign:
    """Design channel for the union-bound metric: biAWGN at a mean LLR."""

    mean_llr: float

    @classmethod
    def from_snr_db(cls, snr_db: float) -> "GaussianDesign":
        return cls(mean_llr=design_mean_llr(snr_db))


@dataclass(frozen=True)
class ErasureDesign:
    """Design channel for the union-bound metric: BEC(epsilon)."""

    epsilon: float


def base_code(p: int, k: int, design) -> PolarCodeSpec:
    """The base code PPA runs on: the k most reliable inputs on the unpunctured channel."""
    probe = PolarCodeSpec(n=p, k=1, info_set=(1,), split=(p, 0))
    if isinstance(design, GaussianDesign):
        profile = ga_evolve(probe, np.full(probe.N, design.mean_llr))
    elif isinstance(design, ErasureDesign):
        profile = bhattacharyya_bec(probe, np.full(probe.N, design.epsilon))
    else:
        raise TypeError(f"unsupported design channel {design!r}")
    return PolarCodeSpec(n=p, k=k, info_set=select_information_set(profile, k), split=(p, 0))


_BLOCK = 8   # coded positions per block of the GA block table


def _block_table(design: GaussianDesign, base_len: int,
                 memo: dict) -> tuple[np.ndarray, np.ndarray]:
    """GA value table and codes after the first min(3, n) butterfly stages,
    for every alive mask of one block of L = min(8, N) consecutive coded
    positions: row M of the (2^L, L) codes is indexed by u position within
    the block, and bit o of M is set where block position o is not punctured."""
    L = min(_BLOCK, base_len)
    alive = (np.arange(1 << L)[:, None] >> _bit_reversal_of(L)) & 1
    return _ga_leaf_codes(np.array([0.0, design.mean_llr]), alive.astype(np.int32), memo)


def _pattern_error_probs(design, base_len: int, alive: np.ndarray, cols,
                         memo: dict | None = None, table=None) -> np.ndarray:
    """Error probabilities of the inputs ``cols`` (any index of the N input
    positions) for (B, N) bool alive masks, False where punctured: (B, N) ->
    (B, len(cols)).  ``memo`` is the GA check-node memo of :func:`ga_leaf_means`;
    ``table`` is :func:`_block_table` of this design and length, built here
    when omitted.  A GA batch enters the first min(3, n) stages at the table
    rows of its mask bytes (``np.packbits``), one per block of L = min(8, N)
    positions, taken whole through an int64 view into one C-ordered
    (N/L, B, L) int32 array ``codes``, blocks bit-reversed; the other stages
    run on it in place, and ``codes[c, b, t]`` then codes input ``t*N/L + c``."""
    if isinstance(design, GaussianDesign):
        memo = {} if memo is None else memo
        vals, rows = _block_table(design, base_len, memo) if table is None else table
        blocks = base_len // rows.shape[1]
        masks = np.packbits(alive, axis=1, bitorder="little")   # (B, N/L)
        codes = rows.view(np.int64).take(masks[:, _bit_reversal_of(blocks)].T, 0).view(np.int32)
        vals, _ = _ga_leaf_codes(vals, codes.transpose(1, 2, 0), memo)
        ep, u = bit_error_prob(vals), np.arange(base_len)[cols]
        out = np.empty((len(u), len(alive)))   # cols may be empty
        for row, c in zip(out, u):
            ep.take(codes[c % blocks, :, c // blocks], out=row, mode="wrap")
        return out.T
    if isinstance(design, ErasureDesign):
        z = np.where(alive, design.epsilon, 1.0)
        return bec_leaf_erasures(z)[:, cols]
    raise TypeError(f"unsupported design channel {design!r}")


def _alive_masks(patterns: np.ndarray, N: int) -> np.ndarray:
    """A (B, m) batch of patterns as (B, N) bool alive masks, False where punctured."""
    alive = np.ones((len(patterns), N), dtype=bool)
    alive[np.arange(len(patterns))[:, None], patterns] = False
    return alive


def _drawn_alive(r: np.ndarray, m: int) -> np.ndarray:
    """Alive masks of ``np.argsort(r, axis=1)[:, :m]`` by a sort and a threshold;
    a row whose m-th and (m+1)-th smallest draws tie takes its argsort prefix."""
    s = np.sort(r, axis=1)
    alive = r > (s[:, m - 1:m] if m else -np.inf)
    tie = np.flatnonzero(s[:, m] == s[:, m - 1]) if 0 < m < r.shape[1] else []
    alive[tie] = _alive_masks(np.argsort(r[tie], axis=1)[:, :m], r.shape[1])
    return alive


def _checked_alive(patterns, N: int) -> np.ndarray:
    """Alive masks of one pattern (1-D) or a (B, m) batch of distinct positions in [0, N)."""
    patterns = np.atleast_2d(np.asarray(patterns))
    if patterns.ndim != 2:
        raise ValueError(f"patterns must be 1-D or (B, m), got shape {patterns.shape}")
    if patterns.dtype.kind in "iuf" and np.isin(patterns, np.arange(N)).all():
        alive = _alive_masks(patterns.astype(np.int64), N)
        if np.all(alive.sum(axis=1) == N - patterns.shape[1]):   # no position repeats
            return alive
    raise ValueError(f"patterns must hold distinct integer positions in [0, {N})")


def evaluate_patterns(base_spec: PolarCodeSpec, design, patterns) -> np.ndarray:
    """Union-bound metric of each puncturing pattern.

    ``patterns`` is one pattern (1-D, possibly empty) or a (B, m) batch of
    distinct positions in [0, N); the result holds one metric per pattern.
    """
    alive = _checked_alive(patterns, base_spec.N)
    return _union_bound(_pattern_error_probs(design, base_spec.N, alive, base_spec.info_zero_based))


def _union_bound(ep: np.ndarray) -> np.ndarray:
    """Row sums of ep, columns added left to right for every batch size: a
    reduction over ep sums pairwise when B = 1 and in sequence when B >= 2,
    so a metric's last bit would depend on its batch."""
    metric = np.zeros(len(ep))
    for col in ep.T:
        metric += col
    return metric


@dataclass
class PpaStats:
    """Search diagnostics: one row of candidate metrics per step."""

    metric_evals: int
    step_candidates: list[np.ndarray]  # candidate coded positions per step
    step_metrics: list[np.ndarray]     # metric per candidate, same order
    ties: list[tuple[int, tuple[int, ...]]]  # (step, positions tied with the pick)

    def top_two_gap(self, step: int) -> float:
        """Relative gap between the two best candidates at a step (0 if tied)."""
        m = np.sort(self.step_metrics[step])
        if len(m) < 2:
            return float("inf")
        denom = max(m[0], np.finfo(float).tiny)
        return float((m[1] - m[0]) / denom)


@dataclass(frozen=True)
class PuncturingSequence:
    """Total puncturing order on a base code; prefix m is the m-bit pattern."""

    base_len: int
    order: tuple[int, ...]
    stats: PpaStats | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        order = tuple(int(c) for c in self.order)
        if sorted(order) != list(range(self.base_len)):
            raise ValueError("order must be a permutation of [0, base_len)")
        object.__setattr__(self, "order", order)

    def pattern(self, m: int) -> tuple[int, ...]:
        if not 0 <= m <= self.base_len:
            raise ValueError(f"m = {m} out of range [0, {self.base_len}]")
        return self.order[:m]

    def split(self, n: int) -> tuple[int, int]:
        """The split (p, n - p) of the length-2^n code this order punctures:
        its base length 2^p is the column count of the rate-matching matrix."""
        p = self.base_len.bit_length() - 1
        if self.base_len != 1 << p or not 1 <= p <= n:
            raise ValueError(f"base length {self.base_len} is not a power of two "
                             f"from 2 to 2^n = {1 << n}")
        return p, n - p

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.order) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PuncturingSequence":
        entries = [int(t) for t in text.strip().split(",")]
        return cls(base_len=len(entries), order=tuple(entries))


def reference_base32_sequence() -> PuncturingSequence:
    """The bundled length-32 puncturing order (3.5 dB design, rate 11/32)."""
    text = importlib.resources.files("rcpolar.data").joinpath("base32_sequence.txt").read_text()
    seq = PuncturingSequence.from_text(text)
    if seq.base_len != 32:
        raise RuntimeError("bundled sequence asset is corrupt")
    return seq


_TIE_REL = 1e-12   # relative metric gap below which PPA candidates tie


def ppa(base_spec: PolarCodeSpec, design) -> PuncturingSequence:
    """Greedy nested puncturing order minimizing the union bound at each step.

    Evaluates the metric exactly N(N+1)/2 times.  Ties (within ``_TIE_REL``
    relative) resolve to the smallest coded index and are recorded in
    ``stats.ties``.  Successive steps share most check-node input pairs, so
    one GA memo and one block table serve the whole run.
    """
    N = base_spec.N
    memo: dict = {}
    table = _block_table(design, N, memo) if isinstance(design, GaussianDesign) else None
    alive = np.ones(N, dtype=bool)
    punct: list[int] = []
    stats = PpaStats(metric_evals=0, step_candidates=[], step_metrics=[], ties=[])
    for m in range(N):
        cands = np.flatnonzero(alive)
        masks = alive & (cands[:, None] != np.arange(N))   # one more position each
        met = _union_bound(_pattern_error_probs(design, N, masks, base_spec.info_zero_based,
                                                memo, table))
        stats.metric_evals += len(cands)
        best_i = int(np.lexsort((cands, met))[0])
        best_met = met[best_i]
        tied = cands[np.abs(met - best_met) <= _TIE_REL * max(best_met, np.finfo(float).tiny)]
        if len(tied) > 1:
            stats.ties.append((m, tuple(int(c) for c in tied)))
        stats.step_candidates.append(cands)
        stats.step_metrics.append(met)
        alive[cands[best_i]] = False
        punct.append(int(cands[best_i]))
    return PuncturingSequence(base_len=N, order=tuple(punct), stats=stats)


def exhaustive_search(
    base_spec: PolarCodeSpec,
    design,
    m: int,
    budget: int = 2_000_000,
    n_samples: int | None = None,
    seed: int = 0,
    batch: int = 65_536,
) -> tuple[int, ...]:
    """Pattern of size m minimizing the union bound.

    Enumerates all patterns when their count fits the ``budget``; otherwise
    returns the best of ``n_samples`` sampled patterns (requested explicitly),
    each the positions of the m smallest of N uniform draws, ties included.
    """
    N = base_spec.N
    if not 0 <= m <= N:
        raise ValueError(f"m = {m} out of range [0, {N}]")
    if n_samples is not None and n_samples < 1:
        raise ValueError(f"n_samples = {n_samples} must be >= 1")
    if batch < 1:
        raise ValueError(f"batch = {batch} must be >= 1")
    total = comb(N, m)
    if total <= budget:
        it = combinations(range(N), m)
        stream = (_alive_masks(np.fromiter(chain.from_iterable(c), np.int64, len(c) * m)
                               .reshape(len(c), m), N)
                  for c in iter(lambda: list(islice(it, batch)), []))
    elif n_samples is None:
        raise EnumerationBudgetError(
            f"C({N},{m}) = {total} patterns exceed the enumeration budget "
            f"{budget}; pass n_samples to run a sampled search")
    else:
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), N, m)))
        stream = (_drawn_alive(rng.random((min(batch, n_samples - s), N)), m)
                  for s in range(0, n_samples, batch))
    best_met, best_alive = np.inf, None
    for alive in stream:
        met = _union_bound(_pattern_error_probs(design, N, alive, base_spec.info_zero_based))
        i = int(np.argmin(met))
        if met[i] < best_met:
            best_met, best_alive = met[i], alive[i]
    return tuple(int(c) for c in np.flatnonzero(~best_alive))


def expand_regular(seq: PuncturingSequence, spec: PolarCodeSpec, m: int) -> tuple[int, ...]:
    """First m base positions punctured at the output of every length-2^p row.

    Returns the sorted 0-based flat codeword indices under the row-major
    2^q x 2^p arrangement; they always form whole columns.
    """
    p, q = spec.split
    if seq.base_len != (1 << p):
        raise ValueError(
            f"sequence base length {seq.base_len} does not match 2^p = {1 << p}")
    cols = seq.pattern(m)
    rows = np.arange(1 << q, dtype=np.int64)
    flat = (rows[:, None] * (1 << p) + np.array(cols, dtype=np.int64)[None, :]).ravel()
    return tuple(sorted(int(i) for i in flat))


def sum_capacity_check(base_len: int, pattern, channel: ChannelSpec) -> tuple[float, float]:
    """Conservation of total synthesized capacity under erasure puncturing.

    Returns (sum of synthesized channel capacities, (N - m) * C(W)) for one
    pattern, with the leaf erasures PPA scores on the BEC; the two agree to
    float precision, for every pattern.  Only erasure channels are supported
    because the computation must be exact.
    """
    if channel.kind != "bec":
        raise ValueError("sum-capacity check requires an erasure channel")
    alive = _checked_alive([pattern], base_len)
    leaf = _pattern_error_probs(ErasureDesign(channel.epsilon), base_len, alive, slice(None))[0]
    return float(np.sum(1.0 - leaf)), int(alive.sum()) * (1.0 - channel.epsilon)
