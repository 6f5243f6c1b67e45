"""Write expected.json: the outputs every workload checks at RECORDED_SEED.

Run once, from the root of the checkout whose outputs are the reference:

    PYTHONPATH=src python3 rcbench/record.py

Recorded outputs reach past what one run uses, so a faster program is still
compared with them on every operation it gets through.
"""

from __future__ import annotations

import json
import sys

import workloads as w
from rcpolar import puncturing as punc

HARQ_CYCLES = {"harq-ir-qam16-fading-1024": 96, "harq-cc-bpsk-awgn-256": 512}
SEARCH_BATCHES = 12


def record_harq(case) -> dict:
    wl = w.HarqWorkload(case, w.RECORDED_SEED, {})
    wl.setup()
    batches = [[] for _ in case.points]
    for cycle in range(HARQ_CYCLES[case.name]):
        for kind, key in wl.cycle(cycle):
            batches[key[1]].append(wl.summary(wl.run(kind, key, wl.inputs(kind, key))))
    return {"info_set": list(wl.spec.info_set), "batches": batches}


def record_design() -> dict:
    wl = w.DesignWorkload(w.RECORDED_SEED, {})
    wl.setup()
    search_best = [list(wl.run("search", (c, w.search_seed(w.RECORDED_SEED, c)), None))
                   for c in range(SEARCH_BATCHES)]
    profiles = []
    for i, (L, snr) in enumerate(w.PROFILE_PAIRS):
        info, error_prob = wl.run("profile", i, None)
        profiles.append({"L": L, "design_snr_db": snr, "info_set": list(info),
                         "error_prob": [float(x) for x in error_prob]})
    return {
        "ppa64_order": list(wl.run("ppa64", None, None).order),
        "search_ppa_order": list(punc.ppa(wl.spec_search, wl.design_search).order),
        "search_best": search_best,
        "profiles": profiles,
    }


def main() -> int:
    out = {"recorded_seed": w.RECORDED_SEED}
    for case in w.HARQ_CASES:
        out[case.name] = record_harq(case)
    out[w.DESIGN_NAME] = record_design()
    with open(w.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
