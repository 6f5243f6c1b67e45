"""Link-level HARQ simulation: Chase combining, incremental redundancy, sweeps.

A block is encoded once and sent up to t times.  Chase retransmissions repeat
transmission 1 bit for bit; IR retransmissions start at a rotated column and
rotate the symbol-mapping classes with it.  The receiver accumulates LLRs per
codeword position across transmissions and attempts SC decoding after each.
Acknowledgement is genie: decoded information bits are compared to the truth
(no CRC is attached, so code rates are exactly k/L).

Every random draw is tied to (seed, SNR point, fixed-size batch index), so
results are byte-identical for any worker count or scheduling order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._textio import open_text
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
    "write_results_csv",
    "RESULT_COLUMNS",
]

RESULT_COLUMNS = ("snr_db", "blocks", "bit_errors", "block_errors",
                  "ber", "bler", "t_bar", "throughput")


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
    still-active blocks.
    """
    messages = np.asarray(messages, dtype=np.uint8)
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
        delta = transmit_codeword_llrs(x[active], rm, plan, chan, rng)
        acc[active] += delta
        tx_used[active] = r
        res = sc_decode(acc[active], spec)
        errs = (res.info_bits != messages[active]).sum(axis=1)
        ok = errs == 0
        success[active[ok]] = True
        bit_errs[active] = errs
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
    mode: str
    rate: float
    order: int
    t: int
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
    stop_check_blocks: int = 2048  # stopping rule evaluated on these boundaries
    workers: int = 1

    def __post_init__(self):
        if self.mode not in ("cc", "ir"):
            raise ValueError(f"unknown HARQ mode {self.mode!r}")
        if self.channel_kind not in ("awgn", "fading"):
            raise ValueError(f"unsupported channel kind {self.channel_kind!r} for sweeps")
        if min(self.L, self.t, self.max_blocks, self.target_block_errors, self.batch_size) < 1:
            raise ValueError("L, t, max_blocks, target_block_errors, batch_size must be positive")

    @property
    def rate(self) -> float:
        return self.rate_matcher.spec.k / self.L


def _point_batch(cfg: SweepConfig, point_idx: int, batch_idx: int, n_blocks: int):
    """Simulate one fixed batch; independent of scheduling by construction."""
    chan = ChannelSpec(kind=cfg.channel_kind, snr_db=cfg.snr_grid[point_idx])
    rng = np.random.default_rng(
        np.random.SeedSequence((int(cfg.seed), int(point_idx), int(batch_idx))))
    messages = rng.integers(0, 2, size=(n_blocks, cfg.rate_matcher.spec.k), dtype=np.uint8)
    success, tx_used, bit_errs = run_blocks_batch(
        cfg.rate_matcher.spec, cfg.rate_matcher, chan, cfg.L, cfg.t, cfg.mode, messages, rng)
    return (int(n_blocks), int(bit_errs.sum()), int((~success).sum()), int(tx_used.sum()))


def _point_batch_star(args):
    return _point_batch(*args)


def sweep(cfg: SweepConfig) -> list[SimResult]:
    """Simulate every SNR point until the stop rule fires; deterministic.

    Each point runs whole batches of ``batch_size`` blocks and checks the stop
    rule (``target_block_errors`` reached or ``max_blocks`` simulated) only on
    ``stop_check_blocks`` boundaries, so the set of simulated batches does not
    depend on the worker count.
    """
    results = []
    batches_per_round = max(1, cfg.stop_check_blocks // cfg.batch_size)
    pool = ProcessPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1 else None
    try:
        for pi in range(len(cfg.snr_grid)):
            blocks = bit_errors = block_errors = tx_total = 0
            next_batch = 0
            while blocks < cfg.max_blocks and block_errors < cfg.target_block_errors:
                todo = []
                planned = blocks
                for _ in range(batches_per_round):
                    if planned >= cfg.max_blocks:
                        break
                    nb = min(cfg.batch_size, cfg.max_blocks - planned)
                    todo.append((cfg, pi, next_batch, nb))
                    next_batch += 1
                    planned += nb
                if pool is not None:
                    outs = list(pool.map(_point_batch_star, todo))
                else:
                    outs = [_point_batch_star(a) for a in todo]
                for nb, be, ble, txs in outs:
                    blocks += nb
                    bit_errors += be
                    block_errors += ble
                    tx_total += txs
            results.append(SimResult(
                snr_db=cfg.snr_grid[pi], blocks=blocks, bit_errors=bit_errors,
                block_errors=block_errors, tx_total=tx_total, mode=cfg.mode,
                rate=cfg.rate, order=cfg.rate_matcher.modulation.order,
                t=cfg.t, k=cfg.rate_matcher.spec.k,
            ))
    finally:
        if pool is not None:
            pool.shutdown()
    return results


def write_results_csv(results, path_or_file, header_comments: tuple[str, ...] = ()) -> None:
    """Write one row per SNR point in the stable column order."""
    with open_text(path_or_file, "w", newline="") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for r in results:
            row = r.row()
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
