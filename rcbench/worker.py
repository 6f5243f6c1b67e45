"""One fresh benchmark process: set up, run one workload, report on stdout.

Started by ``run.py``; not meant to be run by hand.  It writes one JSON line
when set-up is done (``{"event": "ready", ...}``), so the parent can time
set-up from process start, and one when it finishes (``{"event": "result",
...}``).

Operation times are CPU time of this process (``time.process_time``): the
library runs single-threaded here, so on an idle core CPU time is the wall
time a caller waits, and unlike wall time it leaves out the time the process
spends descheduled on a shared host.  Between operations the process times
the calibration kernel of ``calibrate.py`` and reports the samples, so that
``run.py`` can take out the drift of the host's speed.

Modes:
  setup  set up and check the set-up only;
  run    run the workload untraced for ``--seconds`` and check every result;
  trace  run a fixed set of operations untraced, then again with spans, check
         both, write the spans to a file and report per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict

import calibrate

SETUP_KERNEL_RUNS = 40    # kernel timings after set-up in a set-up-only process
KERNEL_EVERY_S = 0.1      # one more kernel timing per this much operation CPU time


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def run_ops(wl, ops, timed: dict, results: list, errors: list, tracer=None,
            kernel: list | None = None) -> None:
    """Run operations, timing each library call in CPU time; exceptions count as failures.

    With ``kernel``, the calibration kernel is timed after every operation,
    once more per ``KERNEL_EVERY_S`` of its CPU time, and appended there: the
    samples then cover the run's operation time evenly.
    """
    for kind, key in ops:
        inputs = wl.inputs(kind, key)
        rec = tracer.open(f"op.{kind}") if tracer is not None else None
        t0 = time.process_time()
        try:
            res = wl.run(kind, key, inputs)
        except Exception as e:  # a raising operation is a failed one; keep going
            errors.append(f"{kind} {key}: raised {type(e).__name__}: {e}")
            continue
        finally:
            dt = time.process_time() - t0
            if rec is not None:
                tracer.close(rec)
        timed[kind].append(dt)
        results.append((kind, key, res, dt))
        if kernel is not None:
            kernel += [calibrate.kernel_s() for _ in range(1 + int(dt / KERNEL_EVERY_S))]


def check_all(wl, results: list) -> list[str]:
    """Failure messages, at most one per operation, plus the run-level check."""
    failures = []
    for kind, key, res, _ in results:
        bad = wl.check(kind, key, res)
        if bad:
            failures.append("; ".join(bad))
    bad = wl.check_run([(k, key, r) for k, key, r, _ in results])
    if bad:
        failures.append("; ".join(bad))
    return failures


def item_rate(wl, results: list) -> tuple[int, float]:
    """Items (blocks or patterns) and the time of the operations that made them."""
    items = secs = 0
    for kind, _, res, dt in results:
        n = wl.items_of(kind, res)
        if n:
            items += n
            secs += dt
    return items, secs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spans", help="file the traced spans are written to")
    args = ap.parse_args(argv)

    import numpy
    import scipy

    import workloads
    from rcpolar import construction
    from tracing import Tracer, layer_metrics

    t0 = time.perf_counter()
    construction.phi(1.0)          # the first phi call builds the table
    phi_s = time.perf_counter() - t0
    try:
        wl = workloads.make(args.workload, args.seed)
    except KeyError:
        print(f"unknown workload {args.workload!r}; choose one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
        rec = tracer.open("setup")
    info = wl.setup()
    if tracer is not None:
        tracer.close(rec)
        tracer.remove()
    emit("ready", cpu_s=time.process_time(),
         env={"python": sys.version.split()[0], "numpy": numpy.__version__,
              "scipy": scipy.__version__})

    failures = wl.check_setup()
    attempted = 1
    profile_s = [info["profile_s"]] if "profile_s" in info else []
    if args.mode == "setup":
        kernel = [calibrate.kernel_s() for _ in range(SETUP_KERNEL_RUNS)]
        emit("result", attempted=attempted, failed=len(failures), failures=failures,
             phi_s=phi_s, profile_s=profile_s, slowdown=calibrate.slowdown(kernel))
        return 0

    timed, results, errors = defaultdict(list), [], []
    if args.mode == "run":
        deadline = time.perf_counter() + args.seconds
        cycle = 0
        cycle_s = []        # operation time of each whole cycle
        kernel = []
        while time.perf_counter() < deadline:
            first = len(results)
            for op in wl.cycle(cycle):
                if not wl.whole_cycles and time.perf_counter() >= deadline:
                    break
                run_ops(wl, [op], timed, results, errors, kernel=kernel)
            if wl.whole_cycles:
                cycle_s.append(sum(r[3] for r in results[first:]))
            cycle += 1
        failures += errors + check_all(wl, results)
        attempted += len(results) + len(errors) + 1
        items, item_s = item_rate(wl, results)
        emit("result", attempted=attempted, failed=len(failures), failures=failures[:20],
             phi_s=phi_s, profile_s=profile_s or timed.get("profile", []),
             op_s=cycle_s if wl.timed_kind == "cycle" else timed.get(wl.timed_kind, []),
             items=items, item_s=item_s, slowdown=calibrate.slowdown(kernel) if kernel else None,
             kernel_runs=len(kernel), op_beta=wl.op_beta, rate_beta=wl.rate_beta,
             times=dict(timed), aliases=wl.aliases,
             notes=wl.notes([(k, key, r) for k, key, r, _ in results]))
        return 0

    # trace: the same operations untraced, then traced
    quantum = wl.trace_quantum()
    plain, traced = [], []
    run_ops(wl, quantum, defaultdict(list), plain, errors)
    tracer.install()
    try:
        run_ops(wl, quantum, defaultdict(list), traced, errors, tracer)
    finally:
        tracer.remove()
    failures += errors + check_all(wl, plain) + check_all(wl, traced)
    attempted += len(plain) + len(traced) + len(errors) + 2
    if [wl.fingerprint(k, r) for k, _, r, _ in plain] != \
            [wl.fingerprint(k, r) for k, _, r, _ in traced]:
        failures.append("traced and untraced passes gave different results")
    attempted += 1

    metrics = layer_metrics(tracer)
    metrics["construction.phi_table_build_s"] = phi_s
    blocks, acked, tx = wl.totals([(k, key, r) for k, key, r, _ in traced])
    rows = tracer.op_counts["decoder.sc_decode.rows"]
    metrics["harq.decode_attempts_per_block"] = rows / blocks if blocks else 0.0
    metrics["harq.ack_per_attempt"] = acked / rows if rows else 0.0
    metrics["harq.tx_per_block"] = tx / blocks if blocks else 0.0
    rates = []
    for res in (plain, traced):
        items, secs = item_rate(wl, res)
        rates.append(items / secs if secs else 0.0)
    metrics["trace.items_per_s.untraced"], metrics["trace.items_per_s.traced"] = rates
    metrics["trace.overhead"] = rates[0] / rates[1] - 1.0 if rates[1] else 0.0
    if args.spans:
        tracer.write(args.spans, {"workload": args.workload, "seed": args.seed})
    emit("result", attempted=attempted, failed=len(failures), failures=failures[:20],
         metrics=metrics, aliases=wl.aliases)
    return 0


if __name__ == "__main__":
    sys.exit(main())
