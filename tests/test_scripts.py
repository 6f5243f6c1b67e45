"""The design scripts in ``scripts/`` run end to end on tiny arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rcpolar.harq import RESULT_COLUMNS

ROOT = Path(__file__).resolve().parents[1]

RUNS = {
    "harq_throughput.py": ["--n", "5", "--k", "11", "--L", "32", "--t", "2",
                           "--modulation", "2", "--channel", "awgn", "--snr-start", "2",
                           "--snr-stop", "3", "--snr-step", "1", "--blocks", "50"],
    "rate_family_ber.py": ["--n", "5", "--k", "11", "--select-length", "16", "--rates", "0.5",
                           "--snr-start", "2", "--snr-stop", "2", "--max-blocks", "100"],
    "progressive_vs_exhaustive.py": ["--base-len", "8", "--k", "4", "--m", "2",
                                     "--samples", "10"],
}
# the column line of the CSV each script writes
CSV_COLUMNS = {
    "harq_throughput.py": RESULT_COLUMNS,
    "rate_family_ber.py": RESULT_COLUMNS,
    "progressive_vs_exhaustive.py": ("m", "progressive_union_bound", "best_union_bound",
                                     "ratio"),
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
    csvs = [f for f in written if f.suffix == ".csv"]
    assert csvs
    for f in csvs:
        # comment lines, the column line, then rows with a number in every field
        lines = [l for l in f.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
        assert tuple(lines[0].split(",")) == CSV_COLUMNS[script]
        assert len(lines) > 1
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(CSV_COLUMNS[script]), line
            for v in fields:
                float(v)   # raises on anything but a number


def test_bench_layers_only():
    # times this checkout's sc_decode, encode, tx chain, HARQ batch, HARQ
    # cycle, search batch, base-32 and base-64 PPA and bit_error_prob on two
    # table sizes, each workload's layers in a child interpreter, and
    # `import rcpolar` in fresh ones, and prints the entries, with their page
    # faults; writes nothing
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), "--layers-only"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    entries = json.loads(proc.stdout)
    assert sorted(entries) == sorted(
        [f"{layer} N=1024 B=64" for layer in ("encode", "harq batch", "harq cycle", "tx chain")]
        + [f"{layer} N=256 B=256" for layer in ("encode", "harq batch", "harq cycle", "tx chain")]
        + [f"sc_decode N={N} B={B}" for N in (1024, 256) for B in (1, 512)]
        + ["sc_decode N=1024 B=512 all 4 rounds", "search batch N=32 B=65536", "ppa N=32",
           "ppa N=64", "bit_error_prob n=48", "bit_error_prob n=1832", "import rcpolar"])
    for e in entries.values():
        assert e["cpu_s_median_raw"] > 0 and e["slowdown"] > 0
        assert e["cpu_s_median"] == e["cpu_s_median_raw"] / e["slowdown"] ** e["beta"]
        assert e["minflt_median"] >= 0
    assert entries["sc_decode N=1024 B=512 all 4 rounds"]["zero_llrs"] == 0
