"""Golden fixtures: exact bytes that refactors and speed-ups must keep.

Each fixture in ``tests/golden/`` was written by a commit whose outputs were
trusted and is compared byte for byte: three HARQ sweeps, two N=1024
reliability profiles and three PPA orders.  A mismatch means results changed:
revert the change, or record the cause in CHANGES.md.  Never rewrite a
fixture to make it pass; ``python tests/test_golden.py`` writes only the
fixtures that do not exist yet.
"""

import io
import sys
from pathlib import Path

import numpy as np
import pytest

from rcpolar.channel import BPSK, ModulationSpec
from rcpolar.construction import (bhattacharyya_bec, build_bicm_ga_means, ga_evolve,
                                  select_information_set)
from rcpolar.harq import SweepConfig, sweep, write_results_csv
from rcpolar.polar import PolarCodeSpec
from rcpolar.puncturing import ErasureDesign, GaussianDesign, ppa, reference_base32_sequence
from rcpolar.rate_matching import RateMatcher, TxPlan, build_tx_map
from test_acceptance import _family_spec_1024, _family_spec_256, base_code

GOLDEN = Path(__file__).with_name("golden")


def criterion8_sweep_csv() -> bytes:
    """The criterion-8 sweep: N=256 BPSK AWGN, IR t=2, L=176, seed 31."""
    spec, rm = _family_spec_256()
    cfg = SweepConfig(spec=spec, rate_matcher=rm, channel_kind="awgn",
                      snr_grid=(3.0, 4.0), L=176, t=2, mode="ir", seed=31,
                      max_blocks=2000, target_block_errors=10**9, batch_size=500)
    return _csv(sweep(cfg), "seed=31")


def qam16_fading_ir_csv() -> bytes:
    """The criterion-7 code (N=1024, k=352, L=384, 16-QAM) under IR t=4 on
    fast fading: 300 blocks at each of three SNR points, seed 5."""
    spec, rm = _family_spec_1024()
    cfg = SweepConfig(spec=spec, rate_matcher=rm, channel_kind="fading",
                      snr_grid=(6.0, 9.0, 12.0), L=384, t=4, mode="ir", seed=5,
                      max_blocks=300, target_block_errors=10**9, batch_size=100)
    return _csv(sweep(cfg), "seed=5")


def qam64_awgn_cc_csv() -> bytes:
    """N=256 under 64-QAM on AWGN, CC t=2, L=192, k=96 selected by GA at
    10 dB: 300 blocks at each of three SNR points, seed 7."""
    seq = reference_base32_sequence()
    mod = ModulationSpec(64)
    probe = PolarCodeSpec(n=8, k=1, info_set=(1,), split=(5, 3))
    means = build_bicm_ga_means(probe, RateMatcher(spec=probe, sequence=seq, modulation=mod),
                                192, 10.0)
    spec = PolarCodeSpec(n=8, k=96, info_set=select_information_set(ga_evolve(probe, means), 96),
                         split=(5, 3))
    cfg = SweepConfig(spec=spec, rate_matcher=RateMatcher(spec=spec, sequence=seq, modulation=mod),
                      channel_kind="awgn", snr_grid=(8.0, 10.0, 12.0), L=192, t=2, mode="cc",
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


def _profile_csv(profile) -> bytes:
    buf = io.StringIO()
    profile.to_csv(buf)
    return buf.getvalue().encode()


def _csv(results, *comments) -> bytes:
    buf = io.StringIO()
    write_results_csv(results, buf, header_comments=comments)
    return buf.getvalue().encode()


FIXTURES = {
    "criterion8_sweep.csv": criterion8_sweep_csv,
    "qam16_fading_ir_sweep.csv": qam16_fading_ir_csv,
    "qam64_awgn_cc_sweep.csv": qam64_awgn_cc_csv,
}
DESIGN_FIXTURES = {
    "ga_profile_1024.csv": ga_profile_1024_csv,
    "bec_profile_1024.csv": bec_profile_1024_csv,
    "ppa_orders.txt": ppa_orders_txt,
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
