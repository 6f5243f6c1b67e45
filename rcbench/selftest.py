"""Self-test of the benchmark: deterministic inputs, and checks that catch corruption.

Run from the root of the checkout (about ten seconds):

    PYTHONPATH=src python3 rcbench/selftest.py

Exits 0 when every expectation holds, 1 otherwise, listing each one.
"""

from __future__ import annotations

import copy
import sys

import numpy as np

import workloads as w
from tracing import Tracer, layer_metrics

FAILED: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILED.append(what)


def test_inputs_deterministic() -> None:
    case = w.HARQ_CASES[0]
    a, _ = w.harq_messages(case, 5, 3, 1)
    b, _ = w.harq_messages(case, 5, 3, 1)
    c, _ = w.harq_messages(case, 6, 3, 1)
    expect(np.array_equal(a, b), "same seed, same HARQ messages")
    expect(not np.array_equal(a, c), "another seed, other HARQ messages")
    ra = w.harq_messages(case, 5, 3, 1)[1].standard_normal(4)
    rb = w.harq_messages(case, 5, 3, 1)[1].standard_normal(4)
    expect(np.array_equal(ra, rb), "same seed, same channel stream")
    expect(w.design_ops(5, 2) == w.design_ops(5, 2), "same seed, same design operations")
    expect(w.design_ops(5, 2) != w.design_ops(6, 2), "another seed, other design operations")


def test_harq_checks() -> None:
    case = w.HARQ_CASES[1]                  # N=256: cheap to run
    wl = w.make(case.name, w.RECORDED_SEED)
    wl.setup()
    expect(not wl.check_setup(), "HARQ set-up passes its check")
    key = (0, 0)                            # the point with block errors
    res = wl.run("batch", key, wl.inputs("batch", key))
    expect(not wl.check("batch", key, res), "recorded HARQ batch passes")
    success, tx, errs = (np.array(a) for a in res)
    acked, lost = int(np.flatnonzero(success)[0]), int(np.flatnonzero(~success)[0])

    flipped = success.copy()
    flipped[lost] = True                    # one decision flipped to "acknowledged"
    expect(bool(wl.check("batch", key, (flipped, tx, errs))), "flipped decision is rejected")
    errs2 = errs.copy()
    errs2[acked] = 1
    expect(bool(wl.check("batch", key, (success, tx, errs2))),
           "bit error on an acknowledged block is rejected")
    tx2 = tx.copy()
    tx2[acked] = case.t + 1
    expect(bool(wl.check("batch", key, (success, tx2, errs))), "too many transmissions rejected")
    tx3 = tx.copy()
    tx3[acked] = 2 if tx[acked] == 1 else 1  # invariants hold; only the recorded counters catch it
    expect(bool(wl.check("batch", key, (success, tx3, errs))),
           "changed transmission count is rejected at the recorded seed")
    other = w.make(case.name, w.RECORDED_SEED + 1, wl.expected)
    expect(not other.check("batch", key, (success, tx3, errs)),
           "the same count passes the invariants at another seed")

    good = [("batch", (0, p), (np.ones(case.batch, bool), np.ones(case.batch, int),
                               np.zeros(case.batch, int))) for p in range(len(case.points))]
    expect(not wl.check_run(good), "flat BLER passes the trend check")
    worse = copy.deepcopy(good)
    s, t_, e = worse[-1][2]
    s[:50] = False
    t_[:50] = case.t
    e[:50] = 3
    expect(bool(wl.check_run(worse)), "BLER rising with the point index is rejected")

    wl.spec = type(wl.spec)(n=wl.spec.n, k=wl.spec.k, split=wl.spec.split,
                            info_set=tuple(sorted(set(wl.spec.info_set[1:]) | {1})))
    expect(bool(wl.check_setup()), "changed information set is rejected")


def test_design_checks() -> None:
    wl = w.make(w.DESIGN_NAME, w.RECORDED_SEED)
    wl.setup()
    exp = wl.expected
    for kind in ("ppa32", "ppa64"):
        seq = wl.run(kind, None, None)
        expect(not wl.check(kind, None, seq), f"{kind} order passes")
        steps = [s for s in range(len(seq.order) - 1) if seq.stats.top_two_gap(s) > w.TIE_GAP]
        order = list(seq.order)
        i = steps[0]
        order[i], order[i + 1] = order[i + 1], order[i]
        swapped = type(seq)(base_len=seq.base_len, order=tuple(order), stats=seq.stats)
        expect(bool(wl.check(kind, None, swapped)), f"{kind} with two entries swapped is rejected")
        stats = copy.copy(seq.stats)
        stats.metric_evals -= 1
        fewer = type(seq)(base_len=seq.base_len, order=seq.order, stats=stats)
        expect(bool(wl.check(kind, None, fewer)), f"{kind} with a wrong metric count is rejected")

    key = (0, w.search_seed(w.RECORDED_SEED, 0))
    best = tuple(exp["search_best"][0])
    expect(not wl.check("search", key, best), "recorded sampled optimum passes")
    other = tuple(sorted(exp["search_ppa_order"][:10]))
    expect(bool(wl.check("search", key, other)), "another sampled optimum is rejected at the recorded seed")
    expect(bool(wl.check("search", key, best[:-1] + (best[0],))), "malformed pattern is rejected")

    rec = exp["profiles"][0]
    info, ep = tuple(rec["info_set"]), np.array(rec["error_prob"])
    expect(not wl.check("profile", 0, (info, ep)), "recorded profile passes")
    frozen = min(set(range(1, len(ep) + 1)) - set(info))
    expect(bool(wl.check("profile", 0, (tuple(sorted(info[1:] + (frozen,))), ep))),
           "changed information set is rejected")
    ep2 = ep.copy()
    ep2[int(np.argmax(ep))] *= 1 + 1e-8
    expect(bool(wl.check("profile", 0, (info, ep2))), "error_prob off by 1e-8 relative is rejected")


def test_span_arithmetic() -> None:
    tr = Tracer()
    tr.spans = [["op.x", 0.0, 10.0, -1, 0], ["a", 1.0, 5.0, 0, 0], ["b", 2.0, 3.0, 1, 0],
                ["setup", 20.0, 21.0, -1, 3], ["b", 20.0, 21.0, 3, 3]]
    m = layer_metrics(tr)
    expect(abs(m["trace.op_s"] - 10.0) < 1e-12, "operation time sums op.* roots only")
    expect(abs(m["trace.uncovered_share"] - 0.9) < 1e-12,
           "uncovered share is operation time outside innermost spans")


def main() -> int:
    test_inputs_deterministic()
    test_span_arithmetic()
    test_harq_checks()
    test_design_checks()
    print(f"{len(FAILED)} failed" if FAILED else "all expectations hold")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
