#!/usr/bin/env python3
"""Write the benchmark record ``BENCH_<pr>.json`` of one checkout.

The record holds, for every workload in ``BENCHMARK.json``:

* the median over seeds 1-3 of each end-to-end metric of the untraced 30 s
  rcbench runs (``.rcbench/result-<workload>-seed<s>-trace0.json``), with the
  per-seed values and the median time of every operation kind;
* every per-layer figure of the traced 30 s seed-1 run
  (``.rcbench/result-<workload>-seed1-trace1.json``).

It adds the wall time of the tier-1 suite and of its criterion-7 test (one
pytest run with ``--durations=0``), the commit, nproc, and the Python, numpy
and scipy versions.  Run from the root of a checkout, after the rcbench runs:

    python3 rcbench/run.py --workload <name> --seed <s> --seconds 30 --trace 0
    python3 rcbench/run.py --workload <name> --seed 1 --seconds 30 --trace 1
    python3 scripts/bench.py --pr <number>

A result file of another length or tracing setting is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0",
         "-p", "no:cacheprovider"]
CRITERION7 = "test_criterion_7"
SEEDS = (1, 2, 3)   # seeds of the untraced runs; the traced run uses seed 1
SECONDS = 30.0      # length of every run


def load(root: Path, workload: str, seed: int, trace: int) -> dict:
    path = root / ".rcbench" / f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    env = result["env"]
    if (env["seconds"], env["trace"]) != (SECONDS, trace):
        sys.exit(f"{path}: a {env['seconds']} s run with trace {env['trace']}, "
                 f"expected {SECONDS} s with trace {trace}")
    return result


def untraced(results: list[dict]) -> dict:
    """Medians over seeds of the end-to-end metrics and of each kind's op time."""
    names = sorted({name for r in results for name in r["metrics"]})
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        metrics[name] = {"median": statistics.median(values), "values": values,
                         "unit": results[0]["metrics"][name]["unit"]}
    kinds = sorted({k for r in results for k in r["op_times"]})
    op_kind_s = {k: statistics.median(statistics.median(r["op_times"][k])
                                      for r in results if r["op_times"].get(k))
                 for k in kinds}
    return {"metrics": metrics, "op_kind_s_raw": op_kind_s,
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results]}


def tier1(root: Path) -> dict:
    """Wall time of the tier-1 suite and of its criterion-7 test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    crit7 = [float(m.group(1)) for ln in lines if CRITERION7 in ln
             for m in [re.match(r"\s*([\d.]+)s call\s", ln)] if m]
    return {"wall_s": round(wall, 1), "summary": lines[-1] if lines else "",
            "exit_code": proc.returncode,
            "criterion7_wall_s": crit7[0] if crit7 else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pr", type=int, required=True, help="number in the output file name")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "BENCHMARK.json").is_file():
        ap.error("run from the root of an rcpolar checkout (BENCHMARK.json not found)")
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]

    record = {"pr": args.pr, "seeds": list(SEEDS), "workloads": {}}
    env = {}
    for workload in workloads:
        results = [load(root, workload, s, 0) for s in SEEDS]
        traced = load(root, workload, 1, 1)
        env = results[0]["env"]
        entry = untraced(results)
        entry["commits"] = sorted({r["env"]["commit"] for r in results + [traced]})
        entry["traced_seed1"] = {"failed": traced["failed"],
                                 "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        record["workloads"][workload] = entry
    record["machine"] = {"nproc": env.get("nproc", os.cpu_count()),
                         "platform": env.get("platform", platform.platform()),
                         "python": env.get("python"), "numpy": env.get("numpy"),
                         "scipy": env.get("scipy")}
    record["commit"] = env.get("commit")
    record["tier1"] = tier1(root)
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
