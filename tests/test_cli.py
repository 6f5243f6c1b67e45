"""Command-line interface: subcommands, config handling, exit codes."""

import json
import os

import numpy as np
import pytest

from rcpolar.cli import dump_config, load_config, main
from rcpolar.construction import ReliabilityProfile
from rcpolar.puncturing import (
    ErasureDesign,
    PuncturingSequence,
    exhaustive_search,
    reference_base32_sequence,
)
from rcpolar.polar import PolarCodeSpec


class TestConfigHandling:
    def test_round_trip_identity(self, tmp_path):
        cfg = {"n": 6, "method": "ga", "design_snr_db": 3.5, "out": "x.csv",
               "snrs": [1.0, 2.0], "seed": 7}
        text = dump_config(cfg)
        path = tmp_path / "c.json"
        path.write_text(text)
        back = load_config(str(path), {})
        assert back == cfg
        assert dump_config(back) == text

    def test_flags_override_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 4, "seed": 1}))
        cfg = load_config(str(path), {"seed": 2, "method": "ga"})
        assert cfg == {"n": 4, "seed": 2, "method": "ga"}

    def test_missing_config_file(self):
        assert main(["construct", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("command, cfg, field", [
        ("construct", {"n": 3.7, "method": "ga", "design_snr_db": 3.5}, "n"),
        ("construct", {"n": True, "method": "ga", "design_snr_db": 3.5}, "n"),
        ("construct", {"n": 3, "method": "ga", "design_snr_db": True}, "design_snr_db"),
        ("puncture", {"base_len": 8, "k": 4.9, "design_snr_db": 3.5}, "k"),
        ("puncture", {"base_len": 8, "k": 4, "epsilon": False}, "epsilon"),
        ("simulate", {"n": 5, "k": 11, "L": 32, "snrs": [1.0, True], "design_snr_db": 3.5,
                      "seed": 1}, "snrs"),
    ])
    def test_fractional_or_boolean_numbers_name_field(self, tmp_path, capsys, command, cfg, field):
        out = tmp_path / "out.txt"
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**cfg, "out": str(out)}))
        assert main([command, "--config", str(path)]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_whole_float_is_an_integer(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 3.0, "method": "ga", "design_snr_db": 3.5,
                                    "out": str(a)}))
        assert main(["construct", "--config", str(path)]) == 0
        assert main(["construct", "--n", "3", "--method", "ga", "--design-snr-db", "3.5",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestConstruct:
    def test_ga_profile_rows(self, tmp_path):
        out = tmp_path / "prof.csv"
        rc = main(["construct", "--n", "8", "--method", "ga",
                   "--design-snr-db", "3.5", "--out", str(out)])
        assert rc == 0
        prof = ReliabilityProfile.from_csv(out)
        assert len(prof) == 256
        lines = out.read_text().strip().split("\n")
        # GA draws no random numbers, so no seed line heads the profile
        assert not any(l.startswith("# seed=") for l in lines)
        assert lines[1] == "index,mean_llr,error_prob"
        idx = [int(l.split(",")[0]) for l in lines[2:]]
        assert idx == list(range(1, 257))

    def test_deterministic_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["construct", "--n", "8", "--method", "ga",
                         "--design-snr-db", "3.5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bec_matches_recursion_example(self, tmp_path):
        out = tmp_path / "prof.csv"
        rc = main(["construct", "--n", "2", "--method", "bec",
                   "--epsilon", "0.5", "--out", str(out)])
        assert rc == 0
        prof = ReliabilityProfile.from_csv(out)
        assert np.allclose(prof.error_prob, [0.9375, 0.5625, 0.4375, 0.0625])

    def test_bec_select_length_counts_repetitions(self, tmp_path):
        # L = 2N sends every bit twice, so each is erased with probability eps^2
        rep, plain = tmp_path / "rep.csv", tmp_path / "plain.csv"
        assert main(["construct", "--n", "5", "--method", "bec", "--epsilon", "0.5",
                     "--sequence", "reference32", "--select-length", "64",
                     "--out", str(rep)]) == 0
        assert main(["construct", "--n", "5", "--method", "bec", "--epsilon", "0.25",
                     "--out", str(plain)]) == 0
        assert rep.read_bytes() == plain.read_bytes()

    def test_invalid_n_names_field(self, tmp_path, capsys):
        rc = main(["construct", "--n", "0", "--method", "ga",
                   "--design-snr-db", "3.5", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "'n'" in capsys.readouterr().err

    def test_missing_out(self, capsys):
        rc = main(["construct", "--n", "4", "--method", "ga",
                   "--design-snr-db", "3.5"])
        assert rc == 2
        assert "'out'" in capsys.readouterr().err

    def test_missing_out_directory_names_out(self, tmp_path, capsys):
        # a file in a missing directory, and a directory in place of a file
        for out in (tmp_path / "missing" / "prof.csv", tmp_path):
            rc = main(["construct", "--n", "4", "--method", "ga", "--design-snr-db", "3.5",
                       "--out", str(out)])
            assert rc == 2
            assert "'out'" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_names_out(self, capsys):
        rc = main(["construct", "--n", "4", "--method", "ga", "--design-snr-db", "3.5",
                   "--out", "/dev/full"])
        assert rc == 2
        assert "'out'" in capsys.readouterr().err

    @pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
    def test_non_finite_design_snr_names_field(self, tmp_path, capsys, snr):
        rc = main(["construct", "--n", "4", "--method", "ga", f"--design-snr-db={snr}",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "'design_snr_db'" in capsys.readouterr().err

    def test_mc_profile(self, tmp_path):
        out = tmp_path / "mc.csv"
        rc = main(["construct", "--n", "4", "--method", "mc", "--snr-db", "3.0",
                   "--trials", "2000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        prof = ReliabilityProfile.from_csv(out)
        assert len(prof) == 16
        assert prof.method == "monte_carlo"

    def test_mc_on_bec_needs_no_snr(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["construct", "--n", "3", "--method", "mc", "--channel", "bec",
                     "--epsilon", "0.3", "--trials", "100", "--seed", "1",
                     "--out", str(out)]) == 0
        assert len(ReliabilityProfile.from_csv(out)) == 8

    def test_mc_select_length_without_sequence_names_sequence(self, tmp_path, capsys):
        rc = main(["construct", "--n", "4", "--method", "mc", "--snr-db", "3.0",
                   "--trials", "10", "--seed", "3", "--select-length", "12",
                   "--out", str(tmp_path / "mc.csv")])
        assert rc == 2
        assert "'sequence'" in capsys.readouterr().err

    def test_mc_negative_seed_names_seed(self, tmp_path, capsys):
        rc = main(["construct", "--n", "4", "--method", "mc", "--snr-db", "3.0",
                   "--trials", "10", "--seed", "-1", "--out", str(tmp_path / "mc.csv")])
        assert rc == 2
        assert "'seed'" in capsys.readouterr().err


class TestPuncture:
    def test_reference_reproduction(self, tmp_path):
        out = tmp_path / "seq.txt"
        rc = main(["puncture", "--base-len", "32", "--k", "11",
                   "--design-snr-db", "3.5", "--out", str(out)])
        assert rc == 0
        got = PuncturingSequence.load(out)
        assert got.order == reference_base32_sequence().order

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert main(["puncture", "--base-len", "32", "--k", "11",
                         "--design-snr-db", "3.5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bec_matches_exhaustive(self, tmp_path):
        out = tmp_path / "seq4.txt"
        rc = main(["puncture", "--base-len", "4", "--k", "2",
                   "--epsilon", "0.5", "--out", str(out)])
        assert rc == 0
        seq = PuncturingSequence.load(out)
        design = ErasureDesign(epsilon=0.5)
        spec1 = PolarCodeSpec(n=2, k=4, info_set=(1, 2, 3, 4), split=(2, 0))
        from rcpolar.construction import bhattacharyya_bec, select_information_set
        from rcpolar.puncturing import evaluate_patterns
        prof = bhattacharyya_bec(spec1, np.full(4, 0.5))
        info = select_information_set(prof, 2)
        spec = PolarCodeSpec(n=2, k=2, info_set=info, split=(2, 0))
        for m in (1, 2, 3):
            opt = exhaustive_search(spec, design, m)
            assert evaluate_patterns(spec, design, seq.pattern(m))[0] <= \
                evaluate_patterns(spec, design, opt)[0] * (1 + 1e-12)

    def test_bad_base_len(self, capsys):
        rc = main(["puncture", "--base-len", "33", "--k", "11",
                   "--design-snr-db", "3.5", "--out", "/tmp/x.txt"])
        assert rc == 2
        assert "'base_len'" in capsys.readouterr().err

    @pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
    def test_non_finite_design_snr_names_field(self, tmp_path, capsys, snr):
        rc = main(["puncture", "--base-len", "32", "--k", "11", f"--design-snr-db={snr}",
                   "--out", str(tmp_path / "seq.txt")])
        assert rc == 2
        assert "'design_snr_db'" in capsys.readouterr().err

    def test_missing_out_directory_names_out(self, tmp_path, capsys):
        rc = main(["puncture", "--base-len", "32", "--k", "11", "--design-snr-db", "3.5",
                   "--out", str(tmp_path / "missing" / "seq.txt")])
        assert rc == 2
        assert "'out'" in capsys.readouterr().err


class TestSimulate:
    def test_smoke_csv(self, tmp_path):
        out = tmp_path / "res.csv"
        rc = main(["simulate", "--n", "6", "--k", "32", "--L", "64",
                   "--snr-start", "2.0", "--snr-stop", "4.0", "--snr-step", "1.0",
                   "--design-snr-db", "3.5", "--seed", "11",
                   "--max-blocks", "200", "--target-block-errors", "1000000",
                   "--batch-size", "100", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# seed=11")
        header = "snr_db,blocks,bit_errors,block_errors,ber,bler,t_bar,throughput"
        assert header in lines
        data = [l for l in lines if not l.startswith("#") and l != header]
        assert len(data) == 3

    def test_cc_ir_same_schema(self, tmp_path):
        heads = {}
        for mode in ("cc", "ir"):
            out = tmp_path / f"{mode}.csv"
            rc = main(["simulate", "--n", "5", "--k", "11", "--L", "32",
                       "--mode", mode, "--t", "2",
                       "--snr-start", "3.0", "--snr-stop", "3.0", "--snr-step", "1.0",
                       "--design-snr-db", "3.5", "--seed", "1",
                       "--max-blocks", "100", "--batch-size", "50",
                       "--out", str(out)])
            assert rc == 0
            heads[mode] = [l for l in out.read_text().split("\n") if "," in l][0]
        assert heads["cc"] == heads["ir"]

    def test_missing_out(self, capsys):
        rc = main(["simulate", "--n", "5", "--k", "11", "--L", "32",
                   "--snr-start", "1.0", "--snr-stop", "1.0", "--snr-step", "1.0",
                   "--design-snr-db", "3.5"])
        assert rc == 2
        assert "'out'" in capsys.readouterr().err

    def test_missing_out_directory_names_out(self, tmp_path, capsys):
        rc = main(["simulate", "--n", "5", "--k", "11", "--L", "32",
                   "--snr-start", "1.0", "--snr-stop", "1.0", "--snr-step", "1.0",
                   "--design-snr-db", "3.5", "--seed", "1", "--max-blocks", "100",
                   "--out", str(tmp_path / "missing" / "res.csv")])
        assert rc == 2
        assert "'out'" in capsys.readouterr().err

    def test_reversed_snr_range_names_snr_stop(self, tmp_path, capsys):
        rc = main(["simulate", "--n", "5", "--k", "11", "--L", "32",
                   "--snr-start", "3.0", "--snr-stop", "1.0", "--snr-step", "1.0",
                   "--design-snr-db", "3.5", "--out", str(tmp_path / "res.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'snr_stop'" in err and "snr_start" in err

    def test_profile_input(self, tmp_path):
        prof_path = tmp_path / "prof.csv"
        assert main(["construct", "--n", "5", "--method", "ga",
                     "--design-snr-db", "3.5", "--out", str(prof_path)]) == 0
        out = tmp_path / "res.csv"
        rc = main(["simulate", "--n", "5", "--k", "11", "--L", "32",
                   "--profile", str(prof_path),
                   "--snr-start", "3.0", "--snr-stop", "3.0", "--snr-step", "1.0",
                   "--seed", "2", "--max-blocks", "100", "--batch-size", "50",
                   "--out", str(out)])
        assert rc == 0

    def test_seed_echoed_and_deterministic(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["simulate", "--n", "5", "--k", "11", "--L", "32",
                         "--snr-start", "2.0", "--snr-stop", "2.0", "--snr-step", "1.0",
                         "--design-snr-db", "3.5", "--seed", "123",
                         "--max-blocks", "100", "--batch-size", "50",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_malformed_profile_names_file(self, tmp_path, capsys):
        prof_path = tmp_path / "bad.csv"
        prof_path.write_text("index,mean_llr,error_prob\n1,0.5\n")
        rc = main(["simulate", "--n", "5", "--k", "11", "--L", "32",
                   "--profile", str(prof_path),
                   "--snr-start", "3.0", "--snr-stop", "3.0", "--snr-step", "1.0",
                   "--seed", "2", "--out", str(tmp_path / "res.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'profile'" in err and str(prof_path) in err

    def test_nan_profile_row_names_profile(self, tmp_path, capsys):
        # a NaN error_prob would otherwise rank its position least reliable
        prof_path = tmp_path / "nan.csv"
        assert main(["construct", "--n", "5", "--method", "ga",
                     "--design-snr-db", "3.5", "--out", str(prof_path)]) == 0
        lines = prof_path.read_text().splitlines(keepends=True)
        row = lines[-1].split(",")
        lines[-1] = ",".join(row[:2] + ["nan\n"])
        prof_path.write_text("".join(lines))
        rc = main(["simulate", "--n", "5", "--k", "11", "--L", "32",
                   "--profile", str(prof_path),
                   "--snr-start", "3.0", "--snr-stop", "3.0", "--snr-step", "1.0",
                   "--seed", "2", "--out", str(tmp_path / "res.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'profile'" in err and str(prof_path) in err

    def test_non_numeric_snrs_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 5, "k": 11, "L": 32, "snrs": [1.0, "high"],
                                   "design_snr_db": 3.5, "seed": 1,
                                   "out": str(tmp_path / "res.csv")}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "'snrs'" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("snr-start", "nan"), ("snr-start", "inf"),
                                             ("snr-stop", "inf"), ("snr-step", "inf")])
    def test_non_finite_snr_range_names_field(self, tmp_path, capsys, field, value):
        args = {"snr-start": "1.0", "snr-stop": "2.0", "snr-step": "1.0", field: value}
        rc = main(["simulate", "--n", "5", "--k", "11", "--L", "32",
                   *[f"--{k}={v}" for k, v in args.items()],
                   "--design-snr-db", "3.5", "--out", str(tmp_path / "res.csv")])
        assert rc == 2
        assert f"'{field.replace('-', '_')}'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_snrs_names_field(self, tmp_path, capsys, bad):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 5, "k": 11, "L": 32, "snrs": [1.0, bad],
                                   "design_snr_db": 3.5, "seed": 1,
                                   "out": str(tmp_path / "res.csv")}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "'snrs'" in capsys.readouterr().err

    def test_short_code_with_reference32_names_sequence(self, tmp_path, capsys):
        rc = main(["simulate", "--n", "4", "--k", "8", "--L", "16",
                   "--snr-start", "1.0", "--snr-stop", "1.0", "--snr-step", "1.0",
                   "--design-snr-db", "3.5", "--out", str(tmp_path / "res.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'sequence'" in err and "2^p = 16" in err

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--shift-cc-bicm", "7")])
    def test_bad_seed_or_shift_names_field(self, tmp_path, capsys, flag, value):
        rc = main(["simulate", "--n", "5", "--k", "11", "--L", "32",
                   "--snr-start", "1.0", "--snr-stop", "1.0", "--snr-step", "1.0",
                   "--design-snr-db", "3.5", "--seed", "1", flag, value,
                   "--out", str(tmp_path / "res.csv")])
        assert rc == 2
        assert f"'{flag[2:].replace('-', '_')}'" in capsys.readouterr().err
