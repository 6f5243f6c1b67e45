"""The design scripts in ``scripts/`` run end to end on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUNS = {
    "harq_throughput.py": ["--n", "5", "--k", "11", "--L", "32", "--t", "2",
                           "--modulation", "2", "--channel", "awgn", "--snr-start", "2",
                           "--snr-stop", "3", "--snr-step", "1", "--blocks", "50"],
    "rate_family_ber.py": ["--n", "5", "--k", "11", "--select-length", "16", "--rates", "0.5",
                           "--snr-start", "2", "--snr-stop", "2", "--max-blocks", "100"],
    "progressive_vs_exhaustive.py": ["--base-len", "8", "--k", "4", "--m", "2",
                                     "--samples", "10"],
    "derive_base_sequence.py": ["--base-len", "8", "--k", "4"],
}


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *RUNS[script]],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    written = list(tmp_path.iterdir())
    assert written and all(f.stat().st_size > 0 for f in written)
