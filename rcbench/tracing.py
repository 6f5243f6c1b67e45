"""Spans around calls into each rcpolar module, recorded from outside the library.

``Tracer.install`` replaces the module attribute that each caller looks up
with a wrapper that records a span (name, start, end, parent, root) and the
work counts of the call; ``Tracer.remove`` restores the originals.  Per-node
functions (``check_llr`` and the like) are never wrapped.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

import numpy as np

# (module that looks the attribute up, attribute, span name = defining module.function)
WRAPS = (
    ("harq", "run_blocks_batch", "harq.run_blocks_batch"),
    ("harq", "encode", "polar.encode"),
    ("harq", "transmit_codeword_llrs", "rate_matching.transmit_codeword_llrs"),
    ("harq", "sc_decode", "decoder.sc_decode"),
    ("rate_matching", "modulate", "channel.modulate"),
    ("rate_matching", "transmit", "channel.transmit"),
    ("rate_matching", "demodulate", "channel.demodulate"),
    ("rate_matching", "de_rate_match", "rate_matching.de_rate_match"),
    ("puncturing", "ppa", "puncturing.ppa"),
    ("puncturing", "exhaustive_search", "puncturing.exhaustive_search"),
    ("puncturing", "evaluate_patterns", "puncturing.evaluate_patterns"),
    ("puncturing", "ga_leaf_means", "construction.ga_leaf_means"),
    ("construction", "ga_leaf_means", "construction.ga_leaf_means"),
    ("construction", "ga_check_mean", "construction.ga_check_mean"),
    ("construction", "ga_evolve", "construction.ga_evolve"),
    ("construction", "build_bicm_ga_means", "construction.build_bicm_ga_means"),
    ("construction", "select_information_set", "construction.select_information_set"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAPS))


def _rows(arr, width: int) -> int:
    return int(np.size(arr)) // width


# Work counts of one call: span name -> f(args, result) -> {count name: value}
COUNTERS = {
    "decoder.sc_decode": lambda a, r: {"decoder.sc_decode.rows": _rows(a[0], a[1].N)},
    "channel.demodulate": lambda a, r: {"channel.demodulate.symbols": int(np.size(a[0]))},
    "polar.encode": lambda a, r: {"polar.encode.bits": int(np.size(a[0]))},
    "construction.ga_leaf_means": lambda a, r: {
        "construction.ga_leaf_means.rows": _rows(a[0], np.shape(a[0])[-1])},
    "construction.ga_check_mean": lambda a, r: {
        "construction.ga_check_mean.elements": int(np.broadcast(a[0], a[1]).size)},
    "puncturing.evaluate_patterns": lambda a, r: {
        "puncturing.evaluate_patterns.patterns": int(np.size(r))},
    "puncturing.ppa": lambda a, r: {"puncturing.ppa.metric_evals": int(r.stats.metric_evals)},
}
COUNT_NAMES = (
    "decoder.sc_decode.rows", "channel.demodulate.symbols", "polar.encode.bits",
    "construction.ga_leaf_means.rows", "construction.ga_check_mean.elements",
    "puncturing.evaluate_patterns.patterns", "puncturing.ppa.metric_evals")


class Tracer:
    """In-memory spans and counts; written out once, when the run ends."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, root index]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_counts: Counter = Counter()   # counts inside op.* root spans only
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for mod_name, attr, name in WRAPS:
            mod = importlib.import_module(f"rcpolar.{mod_name}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, parent, self.spans[parent][4] if parent >= 0 else idx]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            self.calls[name] += 1
            if count is not None:
                n = count(args, result)
                self.counts.update(n)
                if self._stack and self.spans[self._stack[0]][0].startswith("op."):
                    self.op_counts.update(n)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path, meta: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start_s", "end_s", "parent", "root"],
                       "spans": [[n, s - t0, e - t0, p, r] for n, s, e, p, r in self.spans]}, fh)


def layer_metrics(tracer: Tracer) -> dict:
    """busy_s, self_s and calls per span name, the counts, and op-time shares.

    Operations are root spans whose name starts with ``op.``.  The uncovered
    share is the part of operation time outside the innermost traced calls:
    the self time of every span that has children, the operation itself
    included.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for name, s, e, parent, root in spans:
        if parent >= 0:
            child[parent] += e - s
            has_child[parent] = True
    busy, self_t, in_ops = Counter(), Counter(), Counter()
    op_total = leaf_in_ops = 0.0
    for i, (name, s, e, parent, root) in enumerate(spans):
        dur = e - s
        busy[name] += dur
        self_t[name] += dur - child[i]
        if spans[root][0].startswith("op."):
            in_ops[name] += dur
            if i == root:
                op_total += dur
            elif not has_child[i]:
                leaf_in_ops += dur
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.self_s"] = self_t[name]
        out[f"{name}.calls"] = tracer.calls[name]
    for name in COUNT_NAMES:
        out[name] = tracer.counts[name]
    share = (lambda x: x / op_total) if op_total > 0 else (lambda x: 0.0)
    out["trace.op_s"] = op_total
    out["trace.uncovered_share"] = share(op_total - leaf_in_ops)
    out["decoder.sc_decode.share"] = share(in_ops["decoder.sc_decode"])
    out["channel.demodulate.share"] = share(in_ops["channel.demodulate"])
    out["construction.ga_check_mean.share"] = share(in_ops["construction.ga_check_mean"])
    rows, dec_busy = out["decoder.sc_decode.rows"], busy["decoder.sc_decode"]
    out["decoder.rows_per_s"] = rows / dec_busy if dec_busy > 0 else 0.0
    return out
