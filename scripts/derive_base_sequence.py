#!/usr/bin/env python3
"""Derive the base-32 puncturing order and compare it to the bundled asset.

Writes the derived order next to the per-step tie log.  Runs in seconds.
"""

import argparse

from rcpolar.puncturing import GaussianDesign, base_code, ppa, reference_base32_sequence


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base-len", type=int, default=32)
    ap.add_argument("--k", type=int, default=11)
    ap.add_argument("--design-snr-db", type=float, default=3.5)
    ap.add_argument("--out", default="base_sequence.txt")
    args = ap.parse_args()

    design = GaussianDesign.from_snr_db(args.design_snr_db)
    seq = ppa(base_code(args.base_len.bit_length() - 1, args.k, design), design)
    seq.save(args.out)
    print(f"derived order -> {args.out}")
    print(",".join(map(str, seq.order)))
    for step, tied in seq.stats.ties:
        print(f"  tie at step {step}: {tied}")
    if args.base_len == 32:
        ref = reference_base32_sequence()
        print("matches bundled reference:", seq.order == ref.order)


if __name__ == "__main__":
    main()
