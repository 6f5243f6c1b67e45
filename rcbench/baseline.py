"""Run the benchmark over several seeds and summarise each end-to-end metric.

Run from the root of the checkout:

    python3 rcbench/baseline.py --seeds 11-20 --out rcbench/baseline.json

For every workload in BENCHMARK.json it runs ``run.py`` once per seed, one run
at a time, with the file's ``run_seconds``.  For each metric it records the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
which is the interquartile distance as a share of the median.  For the
calibrated operation figures it also fits the workload's sensitivity to the
host's speed (``beta_fit``, see calibrate.py) from the raw figures and
slowdowns that ``run.py`` leaves in ``.rcbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def fitted_beta(workload: str, seeds: list[int]) -> dict[str, float]:
    """Slope of log raw time (or log 1/rate) on log slowdown, per figure."""
    raws = [json.loads(Path(f".rcbench/result-{workload}-seed{s}-trace0.json").read_text())["raw"]
            for s in seeds]
    x = [math.log(r["slowdown"]) for r in raws]
    if len(set(x)) < 2:
        return {}
    out = {}
    for name, sign in (("items_per_s", -1.0), ("op_s.p50", 1.0), ("op_s.p90", 1.0)):
        y = [sign * math.log(r[name]) for r in raws]
        out[name] = statistics.linear_regression(x, y).slope
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="11-20", help="'a-b' or a comma-separated list")
    ap.add_argument("--out", help="JSON file to write")
    args = ap.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seeds = seed_list(args.seeds)
    out = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for wl in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        env = None
        for seed in seeds:
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = next((json.loads(ln[6:]) for ln in lines if ln.startswith("# env ")), env)
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                raise SystemExit(f"{wl} seed {seed}: incorrect result")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed} ({time.time() - t0:.0f} s): " +
                  " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / statistics.median(vals), "values": vals}
            print(f"{wl} {name}: median {summary[name]['median']:.5g} "
                  f"spread {summary[name]['spread']:.3f}", flush=True)
        for name, beta in fitted_beta(wl, seeds).items():
            summary[name]["beta_fit"] = beta
            print(f"{wl} {name}: fitted beta {beta:.3f}", flush=True)
        out["workloads"][wl] = summary
        out["env"] = {k: env[k] for k in ("commit", "nproc", "python", "numpy", "scipy",
                                          "platform")} if env else {}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
