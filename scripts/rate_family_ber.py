#!/usr/bin/env python3
"""BER/BLER of one rate-compatible family (fixed information set) vs SNR.

Defaults reproduce the N=256, 88-information-bit BPSK family at rates
0.9 / 0.8 / 0.7 / 0.6 / 0.5 / 0.4 / 11/32 on AWGN; pass --channel fading for
the fast-fading variant.  One CSV per transmitted length L is written.
"""

import argparse

import numpy as np

from rcpolar.channel import BPSK
from rcpolar.construction import design_code
from rcpolar.harq import SweepConfig, results_csv, sweep
from rcpolar.puncturing import reference_base32_sequence


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--k", type=int, default=88)
    ap.add_argument("--select-length", type=int, default=98)
    ap.add_argument("--design-snr-db", type=float, default=3.5)
    ap.add_argument("--rates", type=float, nargs="+",
                    default=[0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 11 / 32])
    ap.add_argument("--channel", choices=("awgn", "fading"), default="awgn")
    ap.add_argument("--snr-start", type=float, default=1.0)
    ap.add_argument("--snr-stop", type=float, default=8.0)
    ap.add_argument("--snr-step", type=float, default=0.5)
    ap.add_argument("--max-blocks", type=int, default=20_000)
    ap.add_argument("--target-block-errors", type=int, default=200)
    ap.add_argument("--seed", type=int, default=77)
    ap.add_argument("--prefix", default="rate_family")
    args = ap.parse_args()

    rm = design_code(args.n, args.k, reference_base32_sequence(), BPSK,
                     args.select_length, args.design_snr_db)

    grid = tuple(np.round(np.arange(args.snr_start, args.snr_stop + 1e-9,
                                    args.snr_step), 3))
    for rate in args.rates:
        L = round(args.k / rate)
        cfg = SweepConfig(rate_matcher=rm, channel_kind=args.channel,
                          snr_grid=grid, L=L, t=1, mode="cc", seed=args.seed,
                          max_blocks=args.max_blocks,
                          target_block_errors=args.target_block_errors,
                          batch_size=1000)
        res = sweep(cfg)
        out = f"{args.prefix}_L{L}_{args.channel}.csv"
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(results_csv(res, header_comments=(
                f"seed={args.seed}",
                f"n={args.n} k={args.k} L={L} rate={args.k/L:.4f} channel={args.channel}",
            )))
        print(f"L={L} (rate {args.k/L:.3f}) -> {out}")


if __name__ == "__main__":
    main()
