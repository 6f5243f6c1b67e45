"""Link-level HARQ simulation: Chase combining, incremental redundancy, sweeps.

A block is encoded once and sent up to t times.  Chase retransmissions repeat
transmission 1 bit for bit, except that with ``shift_cc_bicm`` they send the
same coded bits but rotate their class assignment; IR retransmissions start at
a rotated column and rotate the symbol-mapping classes with it.  The receiver
accumulates LLRs per codeword position across transmissions and attempts SC
decoding after each.
Acknowledgement is genie: decoded bits are compared to the truth (no CRC is
attached, so code rates are exactly k/L).  So an attempt before the last
transmission stops at its first wrong decision (``sc_decode``'s ``x_true``),
and only the last attempt, whose bit errors are counted, decodes in full.  A
CRC-based acknowledgement would have to revisit this.

Every random draw is tied to (seed, SNR point, fixed-size batch index), so
results are byte-identical for any worker count or scheduling order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .channel import ChannelSpec
from .decoder import sc_decode
from .polar import PolarCodeSpec, encode
from .rate_matching import RateMatcher, TxPlan, transmit_codeword_llrs

__all__ = [
    "SimResult",
    "SweepConfig",
    "throughput",
    "run_blocks_batch",
    "sweep",
    "results_csv",
    "RESULT_COLUMNS",
]

RESULT_COLUMNS = ("snr_db", "blocks", "bit_errors", "block_errors",
                  "ber", "bler", "t_bar", "throughput")
STOP_CHECK_BLOCKS = 2048   # a sweep checks its stop rule on these block boundaries


def throughput(rate: float, order: int, bler: float, t_bar: float) -> float:
    """Normalized throughput: rate * log2(order) * (1 - BLER) / t_bar."""
    if not 0.0 <= bler <= 1.0:
        raise ValueError(f"bler must lie in [0, 1], got {bler}")
    if t_bar < 1.0:
        raise ValueError(f"t_bar must be >= 1, got {t_bar}")
    return rate * math.log2(order) * (1.0 - bler) / t_bar


def run_blocks_batch(
    spec: PolarCodeSpec,
    rm: RateMatcher,
    chan: ChannelSpec,
    L: int,
    t: int,
    mode: str,
    messages: np.ndarray,
    rng,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized HARQ loop over a batch of blocks.

    Returns (success, transmissions_used, info_bit_errors) per block; bit
    errors count over the information bits of the final decoding attempt.
    Blocks that succeed stop transmitting; later channel draws cover only the
    still-active blocks.  Attempts before transmission ``t`` stop at their
    first wrong decision; the results equal those of full decoding.
    """
    if t < 1:
        raise ValueError(f"t = {t}: at least one transmission is needed")
    messages = np.asarray(messages)
    if not ((messages == 0) | (messages == 1)).all():
        raise ValueError("messages entries must be 0 or 1")
    messages = messages.astype(np.uint8)
    if messages.ndim != 2 or messages.shape[1] != spec.k:
        raise ValueError(f"messages have shape {messages.shape}, need (B, k) with k = {spec.k}")
    B = messages.shape[0]
    u = np.zeros((B, spec.N), dtype=np.uint8)
    u[:, spec.info_zero_based] = messages
    x = encode(u, spec)
    acc = np.zeros((B, spec.N))
    active = np.arange(B)
    success = np.zeros(B, dtype=bool)
    tx_used = np.zeros(B, dtype=np.int64)
    bit_errs = np.zeros(B, dtype=np.int64)
    for r in range(1, t + 1):
        plan = TxPlan(L=L, t=t, r=r, mode=mode)
        rows = slice(None) if active.size == B else active   # a view while every row is live
        xa = x[rows]
        acc[rows] += transmit_codeword_llrs(xa, rm, plan, chan, rng)
        tx_used[rows] = r
        dec = sc_decode(acc[rows], spec, x_true=None if r == t else xa)
        ok = (dec == u[rows]).all(axis=1)
        success[active[ok]] = True
        if r == t:
            bit_errs[rows] = (dec[:, spec.info_zero_based] != messages[rows]).sum(axis=1)
        active = active[~ok]
        if active.size == 0:
            break
    return success, tx_used, bit_errs


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimResult:
    """Counters and derived statistics for one SNR point."""

    snr_db: float
    blocks: int
    bit_errors: int
    block_errors: int
    tx_total: int
    rate: float
    order: int
    k: int

    @property
    def ber(self) -> float:
        return self.bit_errors / (self.blocks * self.k)

    @property
    def bler(self) -> float:
        return self.block_errors / self.blocks

    @property
    def t_bar(self) -> float:
        return self.tx_total / self.blocks

    @property
    def throughput(self) -> float:
        return throughput(self.rate, self.order, self.bler, self.t_bar)

    def row(self) -> tuple:
        return (self.snr_db, self.blocks, self.bit_errors, self.block_errors,
                self.ber, self.bler, self.t_bar, self.throughput)


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; all randomness flows from ``seed``."""

    rate_matcher: RateMatcher    # its spec is the simulated code
    channel_kind: str            # "awgn" | "fading"
    snr_grid: tuple[float, ...]
    L: int
    t: int
    mode: str
    seed: int
    max_blocks: int = 100_000
    target_block_errors: int = 100
    batch_size: int = 512
    workers: int = 1

    def __post_init__(self):
        if self.mode not in ("cc", "ir"):
            raise ValueError(f"unknown HARQ mode {self.mode!r}")
        if self.channel_kind not in ("awgn", "fading"):
            raise ValueError(f"unsupported channel kind {self.channel_kind!r} for sweeps")
        if min(self.L, self.t, self.max_blocks, self.target_block_errors, self.batch_size,
               self.workers) < 1:
            raise ValueError(
                "L, t, max_blocks, target_block_errors, batch_size, workers must be positive")

    @property
    def rate(self) -> float:
        return self.rate_matcher.spec.k / self.L


def _point_batch(cfg: SweepConfig, point_idx: int, batch_idx: int, n_blocks: int) -> np.ndarray:
    """Simulate one fixed batch; independent of scheduling by construction.

    Returns its counters: blocks, bit errors, block errors, transmissions.
    """
    chan = ChannelSpec(kind=cfg.channel_kind, snr_db=cfg.snr_grid[point_idx])
    rng = np.random.default_rng(
        np.random.SeedSequence((int(cfg.seed), int(point_idx), int(batch_idx))))
    messages = rng.integers(0, 2, size=(n_blocks, cfg.rate_matcher.spec.k), dtype=np.uint8)
    success, tx_used, bit_errs = run_blocks_batch(
        cfg.rate_matcher.spec, cfg.rate_matcher, chan, cfg.L, cfg.t, cfg.mode, messages, rng)
    return np.array([n_blocks, bit_errs.sum(), (~success).sum(), tx_used.sum()], dtype=np.int64)


def sweep(cfg: SweepConfig) -> list[SimResult]:
    """Simulate every SNR point until the stop rule fires; deterministic.

    Each point runs whole batches of ``batch_size`` blocks and checks the stop
    rule (``target_block_errors`` reached or ``max_blocks`` simulated) only on
    ``STOP_CHECK_BLOCKS`` boundaries, so the set of simulated batches does not
    depend on the worker count.  At most one round of batches runs at once,
    so the pool holds no more workers than a round has batches.
    """
    results = []
    bs = cfg.batch_size
    per_round = max(1, STOP_CHECK_BLOCKS // bs)
    workers = min(cfg.workers, per_round)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for pi, snr_db in enumerate(cfg.snr_grid):
            counts = np.zeros(4, dtype=np.int64)
            while counts[0] < cfg.max_blocks and counts[2] < cfg.target_block_errors:
                # every batch before the last is full, so a batch's index is its start // bs
                starts = range(counts[0], min(cfg.max_blocks, counts[0] + per_round * bs), bs)
                counts += sum(run(_point_batch, repeat(cfg), repeat(pi), [s // bs for s in starts],
                                  [min(bs, cfg.max_blocks - s) for s in starts]))
            blocks, bit_errors, block_errors, tx_total = (int(c) for c in counts)
            results.append(SimResult(
                snr_db=float(snr_db), blocks=blocks, bit_errors=bit_errors,
                block_errors=block_errors, tx_total=tx_total, rate=cfg.rate,
                order=cfg.rate_matcher.modulation.order, k=cfg.rate_matcher.spec.k,
            ))
    return results


def results_csv(results, header_comments: tuple[str, ...] = ()) -> str:
    """The sweep as CSV text: one ``# `` line per header comment, then one row
    per SNR point in the stable column order."""
    rows = [",".join(RESULT_COLUMNS)] + [
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in r.row()) for r in results]
    return "".join(f"# {c}\n" for c in header_comments) + "".join(f"{row}\n" for row in rows)
