"""rcpolar benchmark: one workload, fresh processes, checked outputs, one JSON line.

Run from the root of a source checkout:

    python3 rcbench/run.py --workload harq-ir-qam16-fading-1024 --seed 3 --seconds 20 --trace 0

``--trace 0`` starts three fresh interpreters one after another.  Two only set
up; the third sets up and then runs the workload untraced for ``--seconds``.
Set-up time is the CPU time of a child from process start to its "ready"
line, reported as the median of the three; operation times are CPU time too.
Every end-to-end figure is divided by the host's slowdown, measured in each
process with the kernel of ``calibrate.py``.  ``--trace 1`` starts two fresh
interpreters that each run a fixed set of operations untraced and then
traced.  It reports per-layer figures and checks that every exact count
repeats across the two.

Children import ``rcpolar`` from ``src/`` with BLAS/OpenMP pinned to one
thread.  The last line of standard output is the result object; the lines
before it are a readable summary.  Files go to ``.rcbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
TRACE_RUNS = 2
SETUP_TIMEOUT_S = 60.0
EXACT_COUNTS = (
    "decoder.sc_decode.rows", "construction.ga_check_mean.elements",
    "puncturing.ppa.metric_evals", "puncturing.evaluate_patterns.patterns",
    "channel.demodulate.symbols", "harq.tx_per_block")
UNITS = {"setup_s": "s", "profile_s.p50": "s", "items_per_s": "1/s", "op_s.p50": "s",
         "op_s.p90": "s"}
# Bounded metrics.  profile_s.p50 is printed but not bounded: with three set-up
# samples (HARQ) or one small-batch kind (design) its spread across runs on a
# shared 2-core machine exceeds the largest allowed bound.
END_TO_END = ("setup_s", "items_per_s", "op_s.p50", "op_s.p90")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # every run compiles rcpolar the same way
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict, timeout: float):
    """Start one worker; return (exit code, seconds to its ready line, ready, result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    ready_s, ready, result = None, None, None
    try:
        for line in proc.stdout:
            if not line.startswith("{"):
                continue
            msg = json.loads(line)
            if msg["event"] == "ready":
                ready_s, ready = time.perf_counter() - t0, msg
            elif msg["event"] == "result":
                result = msg
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return proc.returncode, ready_s, ready, result


def commit_of(root: Path) -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' if absent."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = root / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method; the single value when there is one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "rcpolar" / "__init__.py").is_file():
        print("error: run from the root of an rcpolar checkout (src/rcpolar not found)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    out_dir = root / ".rcbench"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.trace:
        modes = [["--mode", "trace", "--seconds", str(args.seconds),
                  "--spans", str(out_dir / f"spans-{args.workload}-seed{args.seed}-{i}.json")]
                 for i in range(TRACE_RUNS)]
        timeout = 150.0 / TRACE_RUNS
    else:
        modes = [["--mode", "setup"]] * (SETUP_RUNS - 1) + [
            ["--mode", "run", "--seconds", str(args.seconds)]]
        timeout = SETUP_TIMEOUT_S
    children = []
    for i, mode in enumerate(modes):
        limit = timeout if mode[1] != "run" else args.seconds + 90.0
        code, ready_s, ready, result = run_child(base + mode, env, limit)
        if code == 2 and ready is None:
            return 2        # the worker rejected its arguments
        children.append((code, ready_s, ready, result))

    failures, attempted, failed = [], 0, 0
    for code, _, _, result in children:
        if code != 0 or result is None:
            failures.append(f"a benchmark process exited with code {code} and no result")
            attempted += 1
            failed += 1
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        failures += result["failures"]
    results = [c[3] for c in children if c[0] == 0 and c[3] is not None]
    env_info = {"nproc": os.cpu_count(), "platform": platform.platform(),
                "commit": commit_of(root), "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace}
    ready = next((c[2] for c in children if c[2] is not None), None)
    if ready is not None:
        env_info.update(ready["env"])

    summary = [f"# rcbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
               f"trace={args.trace}",
               "# env " + json.dumps(env_info, sort_keys=True)]
    metrics: dict[str, dict] = {}
    raw: dict[str, float] = {}     # uncalibrated figures and the slowdown, for baseline.py
    if args.trace:
        if len(results) == TRACE_RUNS:
            first = results[0]["metrics"]
            attempted += 1      # the exact counts must repeat across the traced runs
            differ = [f"{name} differs across same-seed traced runs: "
                      f"{[r['metrics'][name] for r in results]}"
                      for name in EXACT_COUNTS
                      if any(r["metrics"][name] != first[name] for r in results)]
            if differ:
                failures += differ
                failed += 1
            for name in first:
                value = statistics.median(r["metrics"][name] for r in results)
                metrics[name] = {"value": value, "unit": layer_unit(name)}
                summary.append(f"  {name:<48} {value:.6g} {layer_unit(name)}")
        summary.append(f"# spans written to {out_dir.name}/spans-{args.workload}-seed{args.seed}-*.json")
    elif results and results[-1].get("op_s") and results[-1]["item_s"] > 0:
        run = results[-1]
        aliases = run["aliases"]
        # CPU times divided by each process's slowdown to the power of the
        # workload's sensitivity, rates multiplied by it (see calibrate.py)
        set_up = [c for c in children if c[2] is not None and c[3] is not None]
        setup = [c[2]["cpu_s"] / c[3]["slowdown"] for c in set_up]
        setup_raw = [c[2]["cpu_s"] for c in set_up]
        setup_wall = [c[1] for c in set_up]
        profile = [v for r in results for v in r["profile_s"]]
        slow = run["slowdown"]
        op_slow, rate_slow = slow ** run["op_beta"], slow ** run["rate_beta"]
        op_s = run["op_s"]
        raw = {"slowdown": slow, "setup_s": statistics.median(setup_raw),
               "items_per_s": run["items"] / run["item_s"],
               "op_s.p50": quantile(op_s, 50), "op_s.p90": quantile(op_s, 90)}
        values = {
            "setup_s": (statistics.median(setup),
                        f"median of {len(setup)} fresh interpreters; raw CPU median "
                        f"{statistics.median(setup_raw):.3f} s, wall "
                        f"{statistics.median(setup_wall):.3f} s"),
            "profile_s.p50": (statistics.median(profile), f"n={len(profile)}, raw"),
            "items_per_s": (raw["items_per_s"] * rate_slow,
                            f"raw {run['items']} in {run['item_s']:.2f} s of operation CPU time"),
            "op_s.p50": (raw["op_s.p50"] / op_slow, f"n={len(op_s)}, raw {raw['op_s.p50']:.5g}"),
            "op_s.p90": (raw["op_s.p90"] / op_slow, f"n={len(op_s)}, raw {raw['op_s.p90']:.5g}"),
        }
        summary.append(f"  slowdown of the run process {slow:.4f} (op beta {run['op_beta']}, "
                       f"rate beta {run['rate_beta']}) over "
                       f"{run['kernel_runs']} kernel timings; set-up processes "
                       + " ".join(f"{c[3]['slowdown']:.4f}" for c in children[:-1]
                                  if c[3] is not None))
        for name, (value, note) in values.items():
            unit = UNITS[name]
            if name in END_TO_END:
                metrics[name] = {"value": value, "unit": unit}
            else:
                note += ", printed only"
            stem = name.split(".")[0]
            shown = aliases.get(stem, stem) + name[len(stem):]
            summary.append(f"  {shown:<16} {value:<14.6g} {unit:<4} [{name}] {note}")
        for kind, times in sorted(run["times"].items()):
            summary.append(f"  {kind}: n={len(times)} median {statistics.median(times):.4g} s")
        summary += [f"  {note}" for note in run["notes"]]
    else:
        failures.append("no timed operation completed")
        failed += 1
    summary.append(f"  failed_frac      {failed / max(attempted, 1):<14.6g} ratio "
                   f"{failed} of {attempted} operations")
    summary += [f"  FAILED: {msg}" for msg in failures[:20]]
    out = {"correct": not failures and failed == 0 and bool(metrics),
           "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env_info, "summary": summary, **out, "raw": raw,
                   "op_times": results[-1].get("times", {}) if results else {}}, fh)
    print("\n".join(summary))
    print(json.dumps(out))
    return 0


def layer_unit(name: str) -> str:
    """Unit of a per-layer figure, from its name."""
    if "per_s" in name:
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "overhead", "_per_block", "_per_attempt")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
