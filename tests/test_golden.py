"""Golden sweep fixtures: exact CSV bytes that refactors and speed-ups must keep.

Each fixture in ``tests/golden/`` was written by a commit whose outputs were
trusted and is compared byte for byte.  A mismatch means results changed:
revert the change, or record the cause in CHANGES.md.  Never rewrite a
fixture to make it pass; ``python tests/test_golden.py`` writes every fixture
and exists only to add new ones.
"""

import io
import sys
from pathlib import Path

import pytest

from rcpolar.harq import SweepConfig, sweep, write_results_csv
from test_acceptance import _family_spec_1024, _family_spec_256

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


def _csv(results, *comments) -> bytes:
    buf = io.StringIO()
    write_results_csv(results, buf, header_comments=comments)
    return buf.getvalue().encode()


FIXTURES = {
    "criterion8_sweep.csv": criterion8_sweep_csv,
    "qam16_fading_ir_sweep.csv": qam16_fading_ir_csv,
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_sweep_matches_golden(name):
    assert FIXTURES[name]() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in FIXTURES.items():
        (GOLDEN / name).write_bytes(make())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
