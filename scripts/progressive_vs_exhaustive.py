#!/usr/bin/env python3
"""Union-bound BLER of progressive puncturing prefixes vs exhaustive search.

Writes one CSV row per punctured-bit count m: the progressive prefix metric,
the best pattern found by enumeration (or sampling above the budget), and the
ratio.  Defaults mirror the (32,16) study at 3 dB; full enumeration is used
up to the budget and a seeded million-pattern sample beyond it.
"""

import argparse
import csv

import numpy as np

from rcpolar.construction import ga_evolve, select_information_set
from rcpolar.polar import PolarCodeSpec
from rcpolar.puncturing import (
    GaussianDesign,
    evaluate_patterns,
    exhaustive_search,
    ppa,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base-len", type=int, default=32)
    ap.add_argument("--k", type=int, default=16)
    ap.add_argument("--design-snr-db", type=float, default=3.0)
    ap.add_argument("--m", type=int, nargs="+", default=[4, 6, 10])
    ap.add_argument("--budget", type=int, default=2_000_000)
    ap.add_argument("--samples", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="progressive_vs_exhaustive.csv")
    args = ap.parse_args()

    p = args.base_len.bit_length() - 1
    design = GaussianDesign.from_snr_db(args.design_snr_db)
    probe = PolarCodeSpec(n=p, k=1, info_set=(1,), split=(p, 0))
    prof = ga_evolve(probe, np.full(args.base_len, design.mean_llr))
    info = select_information_set(prof, args.k)
    spec = PolarCodeSpec(n=p, k=args.k, info_set=info, split=(p, 0))
    seq = ppa(spec, design)

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "progressive_union_bound", "best_union_bound", "ratio"])
        for m in args.m:
            best = exhaustive_search(spec, design, m, budget=args.budget,
                                     n_samples=args.samples, seed=args.seed)
            mp = float(evaluate_patterns(spec, design, seq.pattern(m))[0])
            mb = float(evaluate_patterns(spec, design, best)[0])
            w.writerow([m, repr(mp), repr(mb), repr(mp / mb)])
            print(f"m={m}: progressive {mp:.6e}  best {mb:.6e}  ratio {mp/mb:.4f}")
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
