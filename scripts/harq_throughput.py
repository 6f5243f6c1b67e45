#!/usr/bin/env python3
"""Normalized throughput of Chase combining vs incremental redundancy.

Defaults mirror the N=1024, 352-information-bit 16-QAM family sending L=384
bits per transmission with up to four attempts on a fast-fading channel.
Writes one CSV per HARQ mode and prints the half-plateau crossing of each.
"""

import argparse

import numpy as np

from rcpolar.channel import ModulationSpec
from rcpolar.construction import design_code
from rcpolar.harq import SweepConfig, results_csv, sweep
from rcpolar.puncturing import reference_base32_sequence


def half_plateau_snr(grid, thr):
    thr = np.asarray(thr)
    target = thr.max() / 2.0
    i = int(np.argmax(thr >= target))
    if i == 0:
        return float(grid[0])
    x0, x1, y0, y1 = grid[i - 1], grid[i], thr[i - 1], thr[i]
    return float(x0 + (target - y0) * (x1 - x0) / (y1 - y0))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--k", type=int, default=352)
    ap.add_argument("--L", type=int, default=384)
    ap.add_argument("--t", type=int, default=4)
    ap.add_argument("--modulation", type=int, default=16)
    ap.add_argument("--channel", choices=("awgn", "fading"), default="fading")
    ap.add_argument("--select-snr-db", type=float, default=9.0)
    ap.add_argument("--snr-start", type=float, default=4.0)
    ap.add_argument("--snr-stop", type=float, default=40.0)
    ap.add_argument("--snr-step", type=float, default=0.5)
    ap.add_argument("--blocks", type=int, default=2500)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--prefix", default="harq_throughput")
    args = ap.parse_args()

    rm = design_code(args.n, args.k, reference_base32_sequence(),
                     ModulationSpec(args.modulation), args.L, args.select_snr_db)

    grid = tuple(float(np.round(g, 3)) for g in
                 np.arange(args.snr_start, args.snr_stop + 1e-9, args.snr_step))
    halves = {}
    for mode in ("cc", "ir"):
        cfg = SweepConfig(rate_matcher=rm, channel_kind=args.channel,
                          snr_grid=grid, L=args.L, t=args.t, mode=mode,
                          seed=args.seed, max_blocks=args.blocks,
                          target_block_errors=10**9, batch_size=1250,
                          workers=args.workers)
        res = sweep(cfg)
        out = f"{args.prefix}_{mode}_{args.channel}.csv"
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(results_csv(res, header_comments=(
                f"seed={args.seed}",
                f"n={args.n} k={args.k} L={args.L} t={args.t} mode={mode} "
                f"modulation={args.modulation} channel={args.channel}",
            )))
        halves[mode] = half_plateau_snr(grid, [r.throughput for r in res])
        print(f"{mode}: half-plateau at {halves[mode]:.2f} dB -> {out}")
    print(f"gap (cc - ir): {halves['cc'] - halves['ir']:.2f} dB")


if __name__ == "__main__":
    main()
