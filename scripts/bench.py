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
and scipy versions.  Under ``layers`` it times layers that rcbench does
not time at a fixed size, on the code of each HARQ workload
(N=256 and N=1024) at its first point, in this order:

* one ``encode`` call and one tx chain (``transmit_codeword_llrs``: rate
  matching, modulation, channel, demapping and the fold onto N positions) of
  the first transmission, on the workload's batch size of fixed-seed blocks;
* one ``sc_decode`` call at B=1 and B=512 rows, on fixed-seed LLRs of one
  transmission, and for incremental redundancy also at B=512 on the sum of
  all t transmissions, where every position is sent and no LLR is 0;
* one HARQ batch: ``run_blocks_batch`` on the workload's batch of fixed-seed
  messages (B=64 for IR, B=256 for CC), every transmission included;
* one HARQ cycle: the rcbench workload's first cycle at ``LAYER_SEED``, a
  batch at each of its points (their inputs made in the call), as rcbench
  times it.  Its points differ in SNR or L, so unlike the repeated batch it
  shows the page faults of calls that change size.

The tx chain runs before the decodes: timed after the B=512 decodes, its
figure moved 1.6-2x with the heap they left behind.

It times five layers of the design workload the same way:

* one sampled-search batch on the workload's ``SEARCH`` constants (base 32,
  k=16, 3 dB, 65,536 patterns of m=10 positions) at the seed of its first
  cycle, with the workload's rate sensitivity (beta 0.6);
* one ``ppa`` run on base 32 at k=11 and 3.5 dB (the workload's ``PPA32``)
  and one on base 64 at k=22 and 3.5 dB (its ``PPA64``), with its operation
  sensitivity (beta 1.2);
* one ``bit_error_prob`` call on n=48 and on n=1,832 means, the sizes of a
  base-32 PPA step's leaf table and of a search batch's, evenly spaced over
  the distinct GA leaf means of 65,536 fixed-seed ``SEARCH`` patterns, with
  the operation sensitivity.

The layers of each workload run in a child interpreter of their own
(``--layer-group <workload>``), so no workload's layers inherit the heap
that another workload's layers leave behind.  One more layer,
``import rcpolar``, is the CPU time of a fresh ``python -c "import rcpolar"``
on the checkout's ``src/``, read from ``RUSAGE_CHILDREN``, over
``IMPORT_RUNS`` runs; it is divided by the slowdown as rcbench divides
set-up time (beta 1), and its page faults are the child's.

Each layer records the median process CPU time of a call, raw
(``cpu_s_median_raw``) and divided as rcbench divides its times
(``cpu_s_median``): by the host's slowdown, measured with the kernel of
``rcbench/calibrate.py`` timed after every call, to the power of the
workload's sensitivity ``beta``.  Each layer also records the median count
of minor page faults (``ru_minflt``) of a call, which shows how often the
allocator hands back pages that must be faulted in again.  Run from the root
of a checkout, after the rcbench runs:

    python3 rcbench/run.py --workload <name> --seed <s> --seconds 30 --trace 0
    python3 rcbench/run.py --workload <name> --seed 1 --seconds 30 --trace 1
    python3 scripts/bench.py --pr <number>

A result file of another length or tracing setting is an error.
``--layers-only`` prints the ``layers`` entry and writes nothing; run from
the root of another checkout, it times that checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
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
LAYER_SEED = 1
LAYER_CALLS = {1: 101, 512: 21}   # timed sc_decode calls per batch size B
TX_CALLS = 51                      # timed encode and tx-chain calls per workload
HARQ_BATCH_CALLS = 21              # timed run_blocks_batch calls per workload
HARQ_CYCLE_CALLS = 21              # timed rcbench cycles per HARQ workload
SEARCH_CALLS = 21                  # timed sampled-search batches
PPA_CALLS = {32: 51, 64: 21}       # timed ppa runs per base length
ERROR_PROB_CALLS = {48: 201, 1832: 51}   # timed bit_error_prob calls per table size
IMPORT_RUNS = 7                    # fresh interpreters timed for ``import rcpolar``


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


def layers(root: Path) -> dict:
    """Every workload's ``layer_group``, each timed in a child interpreter."""
    out = {}
    for workload in workload_names(root):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--layer-group", workload],
                              cwd=root, capture_output=True, text=True)
        if proc.returncode:
            sys.exit(f"layers of {workload} failed:\n{proc.stderr}")
        out.update(json.loads(proc.stdout))
    out["import rcpolar"] = import_layer(root)
    return out


def import_layer(root: Path) -> dict:
    """Median CPU time and minor page faults of ``import rcpolar`` in a fresh
    interpreter, raw and divided by the slowdown (beta 1)."""
    sys.path.insert(0, str(root / "rcbench"))
    from calibrate import kernel_s, slowdown
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times, faults, kernel = [], [], []
    for _ in range(IMPORT_RUNS):
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", "import rcpolar"], cwd=root, env=env, check=True)
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(r1.ru_utime + r1.ru_stime - r0.ru_utime - r0.ru_stime)
        faults.append(r1.ru_minflt - r0.ru_minflt)
        kernel.append(kernel_s())
    raw, slow = statistics.median(times), slowdown(kernel)
    return {"runs": IMPORT_RUNS, "cpu_s_median_raw": raw, "slowdown": slow, "beta": 1.0,
            "cpu_s_median": raw / slow, "minflt_median": statistics.median(faults)}


def layer_group(root: Path, workload: str) -> dict:
    """Calibrated CPU time of the layers of one workload: ``sc_decode``,
    ``encode``, the tx chain, one HARQ batch and one rcbench cycle of a HARQ
    workload, or one search batch, one base-32 and one base-64 PPA run and
    ``bit_error_prob`` on two table sizes of the design workload."""
    sys.path[:0] = [str(root / "src"), str(root / "rcbench")]
    import numpy as np
    from calibrate import kernel_s, slowdown
    from rcpolar.channel import ChannelSpec, ModulationSpec
    from rcpolar.construction import bit_error_prob, design_code, ga_leaf_means
    from rcpolar.decoder import sc_decode
    from rcpolar.harq import run_blocks_batch
    from rcpolar.polar import encode
    from rcpolar.puncturing import (GaussianDesign, base_code, exhaustive_search, ppa,
                                    reference_base32_sequence)
    from rcpolar.rate_matching import TxPlan, transmit_codeword_llrs
    from workloads import (DESIGN_NAME, HARQ_CASES, PPA32, PPA64, SEARCH, DesignWorkload,
                           harq_messages, make, search_seed)

    def timed(call, calls: int, beta: float) -> dict:
        """Median CPU time of ``call``, raw and divided by slowdown ** beta,
        and the median number of minor page faults of a call."""
        call()   # first-call costs, such as building the node plan, stay out
        times, faults, kernel = [], [], []
        for _ in range(calls):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.process_time()
            call()
            times.append(time.process_time() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            kernel.append(kernel_s())
        raw, slow = statistics.median(times), slowdown(kernel)
        return {"calls": calls, "cpu_s_median_raw": raw, "slowdown": slow, "beta": beta,
                "cpu_s_median": raw / slow ** beta, "minflt_median": statistics.median(faults)}

    out = {}
    if workload == DESIGN_NAME:
        p, k, snr_db, m, b = SEARCH
        search_design = GaussianDesign.from_snr_db(snr_db)
        search_spec = base_code(p, k, search_design)
        seed = search_seed(LAYER_SEED, 0)
        out[f"search batch N={search_spec.N} B={b}"] = {
            "workload": DESIGN_NAME, "k": k, "snr_db": snr_db, "m": m,
            **timed(lambda: exhaustive_search(search_spec, search_design, m, n_samples=b,
                                              seed=seed, batch=b),
                    SEARCH_CALLS, DesignWorkload.rate_beta)}
        for p, k, snr_db in (PPA32, PPA64):
            ppa_design = GaussianDesign.from_snr_db(snr_db)
            ppa_spec = base_code(p, k, ppa_design)
            out[f"ppa N={ppa_spec.N}"] = {
                "workload": DESIGN_NAME, "k": k, "snr_db": snr_db,
                **timed(lambda: ppa(ppa_spec, ppa_design), PPA_CALLS[ppa_spec.N],
                        DesignWorkload.op_beta)}
        r = np.random.default_rng(LAYER_SEED).random((b, search_spec.N))
        alive = r > np.sort(r, axis=1)[:, m - 1:m]
        leaf = np.unique(ga_leaf_means(np.where(alive, search_design.mean_llr, 0.0)))
        for n, calls in ERROR_PROB_CALLS.items():
            means = leaf[np.linspace(0, len(leaf) - 1, n).round().astype(int)]
            out[f"bit_error_prob n={n}"] = {
                "workload": DESIGN_NAME, "snr_db": SEARCH[2], "distinct_means": len(leaf),
                **timed(lambda: bit_error_prob(means), calls, DesignWorkload.op_beta)}
        return out
    cases = {c.name: c for c in HARQ_CASES}
    if workload not in cases:
        sys.exit(f"no layers for workload {workload!r}")
    case = cases[workload]
    rm = design_code(case.n, case.k, reference_base32_sequence(),
                     ModulationSpec(case.order), case.select_L, case.select_snr_db)
    spec = rm.spec
    snr_db, L = case.points[0]
    chan = ChannelSpec(kind=case.channel, snr_db=snr_db)
    rng = np.random.default_rng(LAYER_SEED)
    u = np.zeros((max(LAYER_CALLS), spec.N), dtype=np.uint8)
    u[:, spec.info_zero_based] = rng.integers(0, 2, size=(len(u), spec.k))
    plan = TxPlan(L=L, t=case.t, r=1, mode=case.mode)
    x = encode(u, spec)
    llrs = transmit_codeword_llrs(x, rm, plan, chan, rng)
    full = max(LAYER_CALLS)
    if case.mode == "ir":   # every position sent: the check node meets no 0
        every = llrs[:full] + sum(
            transmit_codeword_llrs(x[:full], rm, TxPlan(L=L, t=case.t, r=r, mode=case.mode),
                                   chan, rng) for r in range(2, case.t + 1))
    b = case.batch
    out[f"encode N={spec.N} B={b}"] = {
        "workload": case.name, "k": spec.k,
        **timed(lambda: encode(u[:b], spec), TX_CALLS, case.beta)}
    out[f"tx chain N={spec.N} B={b}"] = {
        "workload": case.name, "k": spec.k, "snr_db": snr_db, "L": L,
        **timed(lambda: transmit_codeword_llrs(x[:b], rm, plan, chan, rng),
                TX_CALLS, case.beta)}
    for rows, calls in LAYER_CALLS.items():
        out[f"sc_decode N={spec.N} B={rows}"] = {
            "workload": case.name, "k": spec.k,
            **timed(lambda: sc_decode(llrs[:rows], spec), calls, case.beta)}
    if case.mode == "ir":
        out[f"sc_decode N={spec.N} B={full} all {case.t} rounds"] = {
            "workload": case.name, "k": spec.k, "zero_llrs": int((every == 0).sum()),
            **timed(lambda: sc_decode(every, spec), LAYER_CALLS[full], case.beta)}

    def batch():   # the same messages and channel draws on every call
        messages, rng = harq_messages(case, LAYER_SEED, 0, 0)
        run_blocks_batch(spec, rm, chan, L, case.t, case.mode, messages, rng)

    out[f"harq batch N={spec.N} B={case.batch}"] = {
        "workload": case.name, "k": spec.k, "snr_db": snr_db, "L": L,
        **timed(batch, HARQ_BATCH_CALLS, case.beta)}

    wl = make(case.name, LAYER_SEED)
    wl.setup()

    def cycle():   # the same cycle, inputs and channel draws on every call
        for kind, key in wl.cycle(0):
            wl.run(kind, key, wl.inputs(kind, key))

    out[f"harq cycle N={spec.N} B={case.batch}"] = {
        "workload": case.name, "k": spec.k, "points": [list(p) for p in case.points],
        **timed(cycle, HARQ_CYCLE_CALLS, case.beta)}
    return out


def workload_names(root: Path) -> list[str]:
    return [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]


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
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pr", type=int, help="number in the output file name")
    mode.add_argument("--layers-only", action="store_true",
                      help="print the layers entry of this checkout and write nothing")
    mode.add_argument("--layer-group", metavar="WORKLOAD",
                      help="print the layers of one workload, timed in this process")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "BENCHMARK.json").is_file():
        ap.error("run from the root of an rcpolar checkout (BENCHMARK.json not found)")
    if args.layer_group:
        print(json.dumps(layer_group(root, args.layer_group)))
        return 0
    if args.layers_only:
        print(json.dumps(layers(root), indent=1, sort_keys=True))
        return 0

    record = {"pr": args.pr, "seeds": list(SEEDS), "workloads": {}}
    env = {}
    for workload in workload_names(root):
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
    record["layers"] = layers(root)
    record["tier1"] = tier1(root)
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
