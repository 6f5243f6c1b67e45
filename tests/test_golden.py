"""Golden fixtures: exact bytes that refactors and speed-ups must keep.

Each fixture in ``tests/golden/`` was written by a commit whose outputs were
trusted and is compared byte for byte: three HARQ sweeps, two N=1024
reliability profiles, three PPA orders, the candidate metrics of every GA PPA
step, the base-32 search metrics of large GA batches, the constellation
points, the files written by seven command-line runs, two genie-aided
Monte-Carlo profiles written by the CLI and two computed without a rate
matcher.  A mismatch means results changed: revert the change,
or record the cause in CHANGES.md.  Never rewrite a fixture to make it pass;
``python tests/test_golden.py`` writes only the fixtures that do not exist
yet.
"""

import contextlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rcpolar.channel import BPSK, ChannelSpec, ModulationSpec, pam_demap_table
from rcpolar.cli import main
from rcpolar.construction import (bhattacharyya_bec, build_bicm_ga_means, design_code,
                                  ga_evolve, genie_monte_carlo)
from rcpolar.harq import SweepConfig, results_csv, sweep
from rcpolar.polar import PolarCodeSpec
from rcpolar.puncturing import (ErasureDesign, GaussianDesign, base_code, evaluate_patterns,
                                exhaustive_search, ppa, reference_base32_sequence)
from rcpolar.rate_matching import RateMatcher, TxPlan, build_tx_map
from test_acceptance import _family_1024, _family_256
from test_rate_matching import natural_order_matcher

GOLDEN = Path(__file__).with_name("golden")


def criterion8_sweep_csv() -> bytes:
    """The criterion-8 sweep: N=256 BPSK AWGN, IR t=2, L=176, seed 31."""
    rm = _family_256()
    cfg = SweepConfig(rate_matcher=rm, channel_kind="awgn",
                      snr_grid=(3.0, 4.0), L=176, t=2, mode="ir", seed=31,
                      max_blocks=2000, target_block_errors=10**9, batch_size=500)
    return _csv(sweep(cfg), "seed=31")


def qam16_fading_ir_csv() -> bytes:
    """The criterion-7 code (N=1024, k=352, L=384, 16-QAM) under IR t=4 on
    fast fading: 300 blocks at each of three SNR points, seed 5."""
    rm = _family_1024()
    cfg = SweepConfig(rate_matcher=rm, channel_kind="fading",
                      snr_grid=(6.0, 9.0, 12.0), L=384, t=4, mode="ir", seed=5,
                      max_blocks=300, target_block_errors=10**9, batch_size=100)
    return _csv(sweep(cfg), "seed=5")


def qam64_awgn_cc_csv() -> bytes:
    """N=256 under 64-QAM on AWGN, CC t=2, L=192, k=96 selected by GA at
    10 dB: 300 blocks at each of three SNR points, seed 7."""
    rm = design_code(8, 96, reference_base32_sequence(), ModulationSpec(64), 192, 10.0)
    cfg = SweepConfig(rate_matcher=rm, channel_kind="awgn", snr_grid=(8.0, 10.0, 12.0), L=192, t=2, mode="cc",
                      seed=7, max_blocks=300, target_block_errors=10**9, batch_size=100)
    return _csv(sweep(cfg), "seed=7")


def _probe_1024(modulation) -> tuple[PolarCodeSpec, RateMatcher]:
    probe = PolarCodeSpec(n=10, k=1, info_set=(1,), split=(5, 5))
    return probe, RateMatcher(spec=probe, sequence=reference_base32_sequence(),
                              modulation=modulation)


def ga_profile_1024_csv() -> bytes:
    """GA profile of the criterion-7 selection: N=1024, 16-QAM, L=384, 9 dB."""
    probe, rm = _probe_1024(ModulationSpec(16))
    return _profile_csv(ga_evolve(probe, build_bicm_ga_means(probe, rm, 384, 9.0)))


def bec_profile_1024_csv() -> bytes:
    """BEC profile of the same family at L=384, epsilon 0.5, BPSK; positions
    never read are erased, as ``rcpolar construct --method bec`` builds it."""
    probe, rm = _probe_1024(BPSK)
    z = np.ones(probe.N)
    z[np.unique(build_tx_map(rm, TxPlan(L=384, t=1, r=1, mode="cc")).emit_idx)] = 0.5
    return _profile_csv(bhattacharyya_bec(probe, z))


def ppa_orders_txt() -> bytes:
    """GA PPA orders on base 32 (k=11) and base 64 (k=22) at 3.5 dB, and the
    BEC PPA order on base 32 (k=11) at epsilon 0.5."""
    lines = []
    for name, p, k, design in (("ga", 5, 11, GaussianDesign.from_snr_db(3.5)),
                               ("ga", 6, 22, GaussianDesign.from_snr_db(3.5)),
                               ("bec", 5, 11, ErasureDesign(epsilon=0.5))):
        order = ppa(base_code(p, k, design), design).order
        lines.append(f"{name} base={1 << p} k={k}: {','.join(map(str, order))}\n")
    return "".join(lines).encode()


def ppa_step_metrics_txt() -> bytes:
    """Every candidate metric (``stats.step_metrics``) of GA PPA on base 32
    (k=11) and base 64 (k=22) at 3.5 dB, step by step in candidate order;
    one ``repr`` per line."""
    design = GaussianDesign.from_snr_db(3.5)
    values = [float(v)
              for p, k in ((5, 11), (6, 22))
              for step in ppa(base_code(p, k, design), design).stats.step_metrics
              for v in step]
    return "".join(f"{v!r}\n" for v in values).encode()


def search_metrics_32_txt() -> bytes:
    """The criterion-2 search code (base 32, k=16, 3 dB) in large GA batches:
    the union bound of all C(32,3) patterns in ``combinations`` order, of the
    first 8192 patterns of the seed-7 m=10 sampler, then the searched optima
    for m=4 and for m=10 (65536 samples, seed 7); one ``repr`` per line."""
    design = GaussianDesign.from_snr_db(3.0)
    spec = base_code(5, 16, design)
    all3 = np.array(list(itertools.combinations(range(32), 3)), dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence((7, 32, 10)))
    sampled = np.argsort(rng.random((8192, 32)), axis=1)[:, :10]
    values = [*map(float, evaluate_patterns(spec, design, all3)),
              *map(float, evaluate_patterns(spec, design, sampled)),
              exhaustive_search(spec, design, 4),
              exhaustive_search(spec, design, 10, n_samples=65536, seed=7)]
    return "".join(f"{v!r}\n" for v in values).encode()


def constellations_txt() -> bytes:
    """Every ``constellation()`` point of BPSK, 16-QAM and 64-QAM in label
    order, then the ``pam_demap_table(m)`` levels and members for m = 1..3;
    one ``repr`` per line."""
    values = [complex(p) for order in (2, 16, 64) for p in ModulationSpec(order).constellation()]
    for m in (1, 2, 3):
        levels, members = pam_demap_table(m)
        values += [*map(float, levels), members]
    return "".join(f"{v!r}\n" for v in values).encode()


# {dir} is a scratch directory; the BEC profile written by the third run is
# the --profile input of the fourth
CLI_RUNS = (
    "simulate --n 8 --k 96 --L 192 --t 2 --mode ir --modulation 64 --channel fading"
    " --snr-start 8 --snr-stop 12 --snr-step 2 --design-snr-db 10 --max-blocks 200"
    " --batch-size 100 --seed 3 --out {dir}/ir64.csv",
    "simulate --n 8 --k 88 --L 176 --t 2 --mode cc --shift-cc-bicm 1 --modulation 16"
    " --select-length 98 --design-snr-db 3.5 --snr-start 4 --snr-stop 6 --snr-step 2"
    " --max-blocks 200 --batch-size 100 --seed 5 --out {dir}/cc16.csv",
    "construct --method bec --sequence reference32 --select-length 98 --n 8 --epsilon 0.5"
    " --out {dir}/bec.csv",
    "simulate --profile {dir}/bec.csv --n 8 --k 88 --L 98 --t 2 --mode ir --snr-start 3"
    " --snr-stop 5 --snr-step 2 --max-blocks 200 --batch-size 100 --seed 9"
    " --out {dir}/profiled.csv",
    "puncture --base-len 32 --k 11 --design-snr-db 3.5 --out {dir}/ga.txt",
    "puncture --base-len 32 --k 11 --epsilon 0.5 --out {dir}/bec.txt",
    "construct --n 10 --method ga --sequence reference32 --select-length 384"
    " --modulation 16 --design-snr-db 9 --out {dir}/ga.csv",
)


# genie-aided Monte-Carlo profiles, without and with a puncturing sequence
GENIE_MC_RUNS = (
    "construct --n 8 --method mc --snr-db 2.0 --trials 4000 --seed 3 --out {dir}/mc.csv",
    "construct --n 8 --method mc --snr-db 8 --trials 2000 --seed 5 --sequence reference32"
    " --select-length 98 --modulation 16 --channel fading --out {dir}/mc_rm.csv",
)


def genie_mc_plain_txt() -> bytes:
    """Genie-aided Monte-Carlo error rates of the N=64 full-rate code sent
    through the natural-order matcher, that is without rate matching: 4000
    trials on the erasure channel at epsilon 0.4 (seed 2), then 4000 BPSK
    trials on fast fading at 3 dB (seed 4); one ``repr`` per line."""
    rm = natural_order_matcher(6)
    values = []
    for chan, seed in ((ChannelSpec("bec", epsilon=0.4), 2),
                       (ChannelSpec("fading", snr_db=3.0), 4)):
        values += map(float, genie_monte_carlo(rm, chan, 64, trials=4000, seed=seed).error_prob)
    return "".join(f"{v!r}\n" for v in values).encode()


def cli_outputs_txt(runs=CLI_RUNS) -> bytes:
    """Each of ``runs`` in turn: the command line, its exit code, what it
    wrote to stderr and the bytes of its ``--out`` file."""
    chunks = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in runs:
            args = run.format(dir=tmp).split()
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(args)
            out = Path(args[args.index("--out") + 1])
            chunks.append(f"$ rcpolar {run}\nexit {code}\n[stderr]\n{err.getvalue()}"
                          f"[out]\n{out.read_text(encoding='utf-8')}")
    return "".join(chunks).encode()


def _profile_csv(profile) -> bytes:
    return profile.to_csv().encode()


def _csv(results, *comments) -> bytes:
    return results_csv(results, header_comments=comments).encode()


FIXTURES = {
    "criterion8_sweep.csv": criterion8_sweep_csv,
    "qam16_fading_ir_sweep.csv": qam16_fading_ir_csv,
    "qam64_awgn_cc_sweep.csv": qam64_awgn_cc_csv,
}
DESIGN_FIXTURES = {
    "ga_profile_1024.csv": ga_profile_1024_csv,
    "bec_profile_1024.csv": bec_profile_1024_csv,
    "ppa_orders.txt": ppa_orders_txt,
    "ppa_step_metrics.txt": ppa_step_metrics_txt,
    "search_metrics_32.txt": search_metrics_32_txt,
    "constellations.txt": constellations_txt,
    "cli_outputs.txt": cli_outputs_txt,
    "genie_mc_outputs.txt": lambda: cli_outputs_txt(GENIE_MC_RUNS),
    "genie_mc_plain.txt": genie_mc_plain_txt,
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_sweep_matches_golden(name):
    assert FIXTURES[name]() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(DESIGN_FIXTURES))
def test_design_matches_golden(name):
    assert DESIGN_FIXTURES[name]() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in {**FIXTURES, **DESIGN_FIXTURES}.items():
        path = GOLDEN / name
        if path.exists():
            print(f"kept {path}", file=sys.stderr)
        else:
            path.write_bytes(make())
            print(f"wrote {path}", file=sys.stderr)
