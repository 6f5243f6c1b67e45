"""Benchmark workloads: inputs made from a seed, the timed operations, output checks.

Each workload is a fixed cycle of operations.  Inputs depend only on the seed
and the (cycle, position) of an operation, so a run of any length sees the
same inputs in the same order.  The library receives only the generated
messages, random streams and configs.

Checks return a list of failure messages (empty when the result is correct).
At ``RECORDED_SEED`` results are compared with ``expected.json``, which
``record.py`` wrote from the seed commit; at every other seed the checks test
invariants that hold for any correct result.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rcpolar import construction as cons
from rcpolar import harq
from rcpolar import puncturing as punc
from rcpolar.channel import ChannelSpec, ModulationSpec
from rcpolar.polar import PolarCodeSpec
from rcpolar.rate_matching import RateMatcher

RECORDED_SEED = 1
EXPECTED_PATH = Path(__file__).with_name("expected.json")
TIE_GAP = 1e-9           # PPA steps whose top two candidates are this close may differ
OPTIMALITY_RATIO = 1.05  # PPA prefix union bound vs the sampled optimum
PROFILE_RTOL = 1e-9


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    """Random stream of one operation: a function of the seed and its keys only."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in keys)))


def _probe_spec(n: int, split) -> PolarCodeSpec:
    return PolarCodeSpec(n=n, k=1, info_set=(1,), split=split)


def _base_spec(p: int, k: int, design) -> PolarCodeSpec:
    prof = cons.ga_evolve(_probe_spec(p, (p, 0)), np.full(1 << p, design.mean_llr))
    info = cons.select_information_set(prof, k)
    return PolarCodeSpec(n=p, k=k, info_set=info, split=(p, 0))


def _stat_bound(b1: float, n1: int, b2: float, n2: int) -> float:
    """Three standard deviations of the difference of two BLER estimates."""
    var = b1 * (1 - b1) / n1 + b2 * (1 - b2) / n2
    return 3.0 * math.sqrt(max(var, 1.0 / (n1 * n2)))


def smoke_check() -> list[str]:
    """One tiny call into every traced layer; returns failure messages.

    Every process runs it in set-up, so each layer is checked to work before
    it is measured, and every traced span is present in every workload's
    set-up, with a small but measured time.
    """
    bad = []
    design = punc.GaussianDesign.from_snr_db(3.0)
    spec8 = _base_spec(3, 4, design)
    seq = punc.ppa(spec8, design)
    if sorted(seq.order) != list(range(8)) or seq.stats.metric_evals != 36:
        bad.append("smoke: ppa on base 8 is not a permutation with 36 evaluations")
    if len(punc.exhaustive_search(spec8, design, 2)) != 2:
        bad.append("smoke: exhaustive search on base 8 did not return 2 positions")
    spec32 = _base_spec(5, 8, design)
    rm = RateMatcher(spec=spec32, sequence=punc.reference_base32_sequence(),
                     modulation=ModulationSpec(2))
    rng = rng_for(0, 0)
    messages = rng.integers(0, 2, size=(4, 8), dtype=np.uint8)
    success, _, errs = harq.run_blocks_batch(spec32, rm, ChannelSpec(kind="awgn", snr_db=10.0),
                                             32, 1, "cc", messages, rng)
    if not np.all(success) or np.any(errs):
        bad.append("smoke: rate-1/4 blocks at 10 dB were not all decoded")
    return bad


# ---------------------------------------------------------------------------
# HARQ link simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarqCase:
    """One HARQ workload: the code, its selection point and the simulated points."""

    name: str
    n: int
    split: tuple[int, int]
    k: int
    select_L: int
    select_snr_db: float
    order: int
    channel: str
    mode: str
    t: int
    points: tuple[tuple[float, int], ...]   # (SNR dB, transmitted length L)
    batch: int                               # blocks per call, one call per point
    trace_cycles: int                        # cycles in one traced pass
    beta: float                              # sensitivity to the host's speed (calibrate.py)


HARQ_CASES = (
    HarqCase(
        name="harq-ir-qam16-fading-1024", n=10, split=(5, 5), k=352,
        select_L=384, select_snr_db=9.0, order=16, channel="fading", mode="ir", t=4,
        points=((8.0, 384), (12.0, 384), (16.0, 384), (20.0, 384)),
        batch=64, trace_cycles=4, beta=0.6),
    HarqCase(
        name="harq-cc-bpsk-awgn-256", n=8, split=(5, 3), k=88,
        select_L=98, select_snr_db=3.5, order=2, channel="awgn", mode="cc", t=2,
        points=((4.0, 98), (4.0, 176), (4.0, 256), (4.0, 320)),
        batch=256, trace_cycles=16, beta=0.7),
)


def harq_messages(case: HarqCase, seed: int, cycle: int, point: int):
    """Messages and channel stream of one batch (same keys as ``harq.sweep``)."""
    rng = rng_for(seed, point, cycle)
    messages = rng.integers(0, 2, size=(case.batch, case.k), dtype=np.uint8)
    return messages, rng


class HarqWorkload:
    """A fixed-size batch per point, points visited round-robin in whole cycles.

    The timed operation is one whole cycle: a batch at every point, so its
    time has one mode, not one per point.
    """

    whole_cycles = True
    timed_kind = "cycle"
    aliases = {"items_per_s": "blocks_per_s", "op_s": "batch_s"}

    def __init__(self, case: HarqCase, seed: int, expected: dict):
        self.case = case
        self.seed = seed
        self.expected = expected
        self.op_beta = self.rate_beta = case.beta

    def setup(self) -> dict:
        """Select the information set and build the rate matcher; returns timings."""
        c = self.case
        seq = punc.reference_base32_sequence()
        mod = ModulationSpec(c.order)
        probe = _probe_spec(c.n, c.split)
        t0 = time.perf_counter()
        means = cons.build_bicm_ga_means(probe, RateMatcher(spec=probe, sequence=seq, modulation=mod),
                                         c.select_L, c.select_snr_db)
        info = cons.select_information_set(cons.ga_evolve(probe, means), c.k)
        profile_s = time.perf_counter() - t0
        self.spec = PolarCodeSpec(n=c.n, k=c.k, info_set=info, split=c.split)
        self.rm = RateMatcher(spec=self.spec, sequence=seq, modulation=mod)
        self.channels = tuple(ChannelSpec(kind=c.channel, snr_db=snr) for snr, _ in c.points)
        self.smoke = smoke_check()
        return {"profile_s": profile_s}

    def check_setup(self) -> list[str]:
        bad = list(self.smoke)
        if list(self.spec.info_set) != self.expected["info_set"]:
            bad.append("information set differs from the recorded one")
        return bad

    def cycle(self, cycle: int):
        """(kind, key) of every operation in one cycle; the key is (cycle, point)."""
        return [("batch", (cycle, p)) for p in range(len(self.case.points))]

    def inputs(self, kind: str, key):
        cycle, p = key
        return harq_messages(self.case, self.seed, cycle, p)

    def run(self, kind: str, key, inputs):
        c = self.case
        messages, rng = inputs
        _, p = key
        return harq.run_blocks_batch(self.spec, self.rm, self.channels[p], c.points[p][1],
                                     c.t, c.mode, messages, rng)

    @staticmethod
    def summary(result) -> list[int]:
        """(blocks, bit errors, block errors, transmissions) of one batch."""
        success, tx, errs = result
        return [int(success.size), int(errs.sum()), int((~success).sum()), int(tx.sum())]

    def items_of(self, kind: str, result) -> int:
        return int(result[0].size)

    def check(self, kind: str, key, result) -> list[str]:
        c = self.case
        cycle, p = key
        success, tx, errs = (np.asarray(a) for a in result)
        where = f"batch {cycle} at point {p}"
        if not (success.shape == tx.shape == errs.shape == (c.batch,)):
            return [f"{where}: result arrays do not have one entry per block"]
        bad = []
        if np.any(tx < 1) or np.any(tx > c.t):
            bad.append(f"{where}: transmissions outside [1, {c.t}]")
        if np.any(errs[success] != 0):
            bad.append(f"{where}: an acknowledged block has bit errors")
        if np.any(errs[~success] < 1) or np.any(tx[~success] != c.t):
            bad.append(f"{where}: an unacknowledged block has no bit errors or stopped early")
        if np.any(errs > c.k):
            bad.append(f"{where}: more bit errors than information bits")
        if self.seed == RECORDED_SEED:
            rec = self.expected["batches"][p]
            if cycle < len(rec) and self.summary(result) != rec[cycle]:
                bad.append(f"{where}: counters {self.summary(result)} differ from recorded {rec[cycle]}")
        return bad

    def _pooled(self, results):
        """Blocks and block errors per point over a list of (kind, key, result)."""
        n = [0] * len(self.case.points)
        e = [0] * len(self.case.points)
        for _, (_, p), result in results:
            blocks, _, block_errors, _ = self.summary(result)
            n[p] += blocks
            e[p] += block_errors
        return n, e

    def check_run(self, results) -> list[str]:
        """BLER must not rise from one point to the next (higher SNR or lower rate) beyond 3 sigma."""
        n, e = self._pooled(results)
        bad = []
        for i in range(len(n) - 1):
            if n[i] and n[i + 1]:
                b1, b2 = e[i] / n[i], e[i + 1] / n[i + 1]
                if b2 - b1 > _stat_bound(b1, n[i], b2, n[i + 1]):
                    bad.append(f"BLER rises from point {i} ({b1:.4f}) to {i + 1} ({b2:.4f})")
        return bad

    def notes(self, results) -> list[str]:
        """BLER per point: a simulated result, never counted as a failure."""
        n, e = self._pooled(results)
        return [f"BLER at {snr:g} dB, L={L}: {e[i] / n[i]:.5f} over {n[i]} blocks"
                for i, (snr, L) in enumerate(self.case.points) if n[i]]

    def fingerprint(self, kind: str, result):
        return self.summary(result)

    def totals(self, results) -> tuple[int, int, int]:
        """(blocks, acknowledged blocks, transmissions) over a list of (kind, key, result)."""
        s = np.sum([self.summary(r) for _, _, r in results], axis=0)
        return int(s[0]), int(s[0] - s[2]), int(s[3])

    def trace_quantum(self):
        return [op for cyc in range(self.case.trace_cycles) for op in self.cycle(cyc)]


# ---------------------------------------------------------------------------
# puncturing design
# ---------------------------------------------------------------------------

DESIGN_NAME = "design-ppa-search-32-64"
PPA32 = (5, 11, 3.5)     # (p, k, design SNR dB): the shipped reference order
PPA64 = (6, 22, 3.5)
SEARCH = (5, 16, 3.0, 10, 65_536)   # (p, k, design SNR dB, m, patterns per batch)
PROFILE_N = (10, (5, 5), 16, 352)   # (n, split, modulation order, k)
PROFILE_PAIRS = ((384, 9.0), (512, 7.0), (768, 5.0), (1024, 3.0))   # (L, design SNR dB)
# One cycle: a sampled-search batch, then small-batch work interleaved so that a
# run cut at any operation keeps every kind represented.
DESIGN_CYCLE = ("search", "ppa32", "profile", "ppa32", "ppa64", "ppa32",
                "profile", "ppa32", "ppa32", "profile", "ppa32", "profile")
DESIGN_TRACE = ("search", "ppa32", "ppa64", "profile", "profile")


def search_seed(seed: int, cycle: int) -> int:
    """Seed handed to the sampled search of one cycle."""
    return int(np.random.SeedSequence((int(seed), 3, int(cycle))).generate_state(1)[0])


def design_ops(seed: int, cycle: int, kinds=DESIGN_CYCLE):
    """(kind, key) of every operation in one cycle.

    A search key is (cycle, search seed); a profile key indexes
    ``PROFILE_PAIRS``, rotating with the seed and the cycle.
    """
    ops = []
    n_profile = kinds.count("profile")
    for kind in kinds:
        if kind == "search":
            key = (cycle, search_seed(seed, cycle))
        elif kind == "profile":
            key = (seed + cycle * n_profile + sum(o[0] == "profile" for o in ops)) % len(PROFILE_PAIRS)
        else:
            key = None
        ops.append((kind, key))
    return ops


class DesignWorkload:
    """Puncturing design: PPA on bases 32 and 64, N=1024 profiles, sampled search."""

    whole_cycles = False
    timed_kind = "ppa32"
    aliases = {"items_per_s": "patterns_per_s", "op_s": "ppa_s"}
    # Sensitivity to the host's speed (calibrate.py): PPA is interpreter-bound;
    # the sampled search works on large arrays and moves about half as much.
    op_beta = 1.2
    rate_beta = 0.6

    def __init__(self, seed: int, expected: dict):
        self.seed = seed
        self.expected = expected

    def setup(self) -> dict:
        self.design32 = punc.GaussianDesign.from_snr_db(PPA32[2])
        self.spec32 = _base_spec(PPA32[0], PPA32[1], self.design32)
        self.design64 = punc.GaussianDesign.from_snr_db(PPA64[2])
        self.spec64 = _base_spec(PPA64[0], PPA64[1], self.design64)
        self.design_search = punc.GaussianDesign.from_snr_db(SEARCH[2])
        self.spec_search = _base_spec(SEARCH[0], SEARCH[1], self.design_search)
        n, split, order, _ = PROFILE_N
        self.probe = _probe_spec(n, split)
        self.rm_probe = RateMatcher(spec=self.probe, sequence=punc.reference_base32_sequence(),
                                    modulation=ModulationSpec(order))
        self.reference32 = punc.reference_base32_sequence().order
        self.smoke = smoke_check()
        return {}

    def check_setup(self) -> list[str]:
        return list(self.smoke)

    def cycle(self, cycle: int):
        return design_ops(self.seed, cycle)

    def inputs(self, kind: str, key):
        return None

    def run(self, kind: str, key, inputs):
        if kind == "search":
            _, _, _, m, batch = SEARCH
            return punc.exhaustive_search(self.spec_search, self.design_search, m,
                                          n_samples=batch, seed=key[1], batch=batch)
        if kind == "ppa32":
            return punc.ppa(self.spec32, self.design32)
        if kind == "ppa64":
            return punc.ppa(self.spec64, self.design64)
        L, snr = PROFILE_PAIRS[key]
        means = cons.build_bicm_ga_means(self.probe, self.rm_probe, L, snr)
        profile = cons.ga_evolve(self.probe, means)
        return cons.select_information_set(profile, PROFILE_N[3]), profile.error_prob

    def items_of(self, kind: str, result) -> int:
        return SEARCH[4] if kind == "search" else 0

    def check(self, kind: str, key, result) -> list[str]:
        if kind == "search":
            return self._check_search(key, result)
        if kind == "ppa32":
            return _check_order(result, 32, self.reference32, "base-32 PPA")
        if kind == "ppa64":
            return _check_order(result, 64, self.expected["ppa64_order"], "base-64 PPA")
        return self._check_profile(key, result)

    def _check_search(self, key, pattern) -> list[str]:
        _, _, _, m, _ = SEARCH
        pat = list(pattern)
        if len(pat) != m or sorted(set(pat)) != pat or pat[0] < 0 or pat[-1] >= 32:
            return [f"sampled search returned a malformed pattern {pat}"]
        ppa_prefix = self.expected["search_ppa_order"][:m]
        met = punc.evaluate_patterns(self.spec_search, self.design_search,
                                     np.array([sorted(ppa_prefix), pat], dtype=np.int64))
        bad = []
        if met[0] > OPTIMALITY_RATIO * met[1]:
            bad.append(f"PPA prefix union bound {met[0]:.6g} exceeds {OPTIMALITY_RATIO} x "
                       f"sampled optimum {met[1]:.6g}")
        rec = self.expected["search_best"]
        if self.seed == RECORDED_SEED and key[0] < len(rec) and pat != rec[key[0]]:
            bad.append(f"sampled optimum {pat} differs from recorded {rec[key[0]]}")
        return bad

    def _check_profile(self, key, result) -> list[str]:
        info, error_prob = result
        rec = self.expected["profiles"][key]
        bad = []
        if list(info) != rec["info_set"]:
            bad.append(f"profile pair {key}: information set differs from the recorded one")
        got = np.asarray(error_prob, dtype=float)
        want = np.asarray(rec["error_prob"], dtype=float)
        if got.shape != want.shape or not np.all(
                np.abs(got - want) <= PROFILE_RTOL * np.maximum(np.abs(got), np.abs(want))):
            bad.append(f"profile pair {key}: error_prob differs from the recorded one beyond "
                       f"{PROFILE_RTOL} relative")
        return bad

    def check_run(self, results) -> list[str]:
        return []

    def notes(self, results) -> list[str]:
        return []

    def fingerprint(self, kind: str, result):
        if kind in ("ppa32", "ppa64"):
            return list(result.order)
        if kind == "search":
            return list(result)
        return [list(result[0]), float(np.sum(result[1]))]

    def totals(self, results) -> tuple[int, int, int]:
        return 0, 0, 0

    def trace_quantum(self):
        return design_ops(self.seed, 0, DESIGN_TRACE)


def _check_order(seq, N: int, reference, what: str) -> list[str]:
    """Nested order: a permutation with exact metric count, equal to ``reference``
    except at steps whose top two candidates tie within ``TIE_GAP``."""
    order = list(seq.order)
    if sorted(order) != list(range(N)):
        return [f"{what}: order is not a permutation of range({N})"]
    bad = []
    if seq.stats.metric_evals != N * (N + 1) // 2:
        bad.append(f"{what}: {seq.stats.metric_evals} metric evaluations, expected {N * (N + 1) // 2}")
    for step, (got, want) in enumerate(zip(order, reference)):
        if got != want and not seq.stats.top_two_gap(step) <= TIE_GAP:
            bad.append(f"{what}: step {step} picked {got}, recorded {want}, and the step is no tie")
            break
    return bad


def make(name: str, seed: int, expected: dict | None = None):
    """Workload by name, with inputs from ``seed``, checked against ``expected``
    (default: its entry in expected.json)."""
    if name not in WORKLOADS:
        raise KeyError(name)
    if expected is None:
        expected = load_expected()[name]
    for case in HARQ_CASES:
        if case.name == name:
            return HarqWorkload(case, seed, expected)
    return DesignWorkload(seed, expected)


WORKLOADS = tuple(c.name for c in HARQ_CASES) + (DESIGN_NAME,)
