"""Command-line interface: subcommands, config handling, exit codes."""

import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcpolar.cli import (BASE_LEN_MAX, BATCH_CELLS_MAX, DB_MAX, L_MAX, MC_LEN_MAX, N_MAX,
                         SNR_POINTS_MAX, WORKERS_MAX, _COMMANDS, _FIELDS, ConfigError, _get,
                         _snr_grid, load_config, main)
from rcpolar.construction import ReliabilityProfile
from rcpolar.puncturing import (
    ErasureDesign,
    PuncturingSequence,
    exhaustive_search,
    reference_base32_sequence,
)
from rcpolar.polar import PolarCodeSpec


class TestConfigHandling:
    def test_flags_override_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 4, "seed": 1}))
        cfg = load_config(str(path), {"seed": 2, "method": "ga"})
        assert cfg == {"n": 4, "seed": 2, "method": "ga"}

    def test_missing_config_file(self):
        assert main(["construct", "--config", "/nonexistent.json"]) == 2

    def test_config_directory_names_config(self, tmp_path, capsys):
        assert main(["construct", "--config", str(tmp_path)]) == 2
        assert "'config'" in capsys.readouterr().err

    def test_config_not_utf8_names_config(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["construct", "--config", str(path)]) == 2
        assert "'config'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, cfg, field", [
        ("simulate", {"n": 5, "k": 11, "L": 32, "snrs": [1], "seed": 1, "design_snr_db": 3,
                      "bogus": 1}, "bogus"),
        ("simulate", {"n": 5, "k": 11, "L": 32, "snrs": [1], "seed": 1, "design_snr_db": 3,
                      "max_block": 10}, "max_block"),
        ("construct", {"n": 3, "method": "ga", "design_snr_db": 3.5, "snrs": [1.0]}, "snrs"),
        ("puncture", {"base_len": 8, "k": 4, "design_snr_db": 3.5, "L": 8}, "L"),
        # the puncturing sequence fixes the split, which is no longer a field
        ("simulate", {"n": 8, "k": 88, "L": 98, "snrs": [1], "seed": 1, "design_snr_db": 3,
                      "p": 5, "q": 3}, "p"),
        ("construct", {"n": 8, "method": "ga", "design_snr_db": 3.5, "q": 3}, "q"),
    ])
    def test_unknown_key_names_field(self, tmp_path, capsys, command, cfg, field):
        out = tmp_path / "out.txt"
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**cfg, "out": str(out)}))
        assert main([command, "--config", str(path)]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["construct", "simulate"])
    def test_split_flags_are_gone(self, tmp_path, command, capsys):
        # --p once set the split; it must not now abbreviate --profile
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "8", "--p", "5", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "--p" in capsys.readouterr().err

    @pytest.mark.parametrize("field, top, past", [
        pytest.param(f, t, p, id=f"{f}-{t}") for f, t, p in [
            ("n", N_MAX, N_MAX + 1), ("workers", WORKERS_MAX, WORKERS_MAX + 1),
            ("L", L_MAX, L_MAX + 1), ("select_length", L_MAX, L_MAX + 1),
            ("base_len", BASE_LEN_MAX, 2 * BASE_LEN_MAX),
        ]
    ])
    def test_size_bound_names_field(self, field, top, past):
        # the check alone: no command runs past a bound, so nothing of size
        # 2^17 is allocated and no 65th process is forked
        assert (N_MAX, WORKERS_MAX, L_MAX, BASE_LEN_MAX) == (16, 64, 1 << 20, 1 << 10)
        assert _get({field: top}, field) == top
        with pytest.raises(ConfigError) as err:
            _get({field: past}, field)
        assert err.value.fieldname == field and str(top) in str(err.value)

    @pytest.mark.parametrize("field", ["design_snr_db", "snr_db", "snr_start", "snr_stop",
                                       "snrs"])
    def test_db_bound_names_field(self, field):
        assert DB_MAX == 300
        for v in (-DB_MAX, DB_MAX):
            assert _get({field: v}, field) == v
        for v in (-DB_MAX - 0.5, DB_MAX + 0.5, 3090, -1e308):
            with pytest.raises(ConfigError) as err:
                _get({field: v}, field)
            assert err.value.fieldname == field and str(DB_MAX) in str(err.value)

    # each overflowed 10^(x/10) in a Python float and exited 3
    _SIM = {"n": 5, "k": 11, "L": 32, "design_snr_db": 3, "seed": 1, "max_blocks": 10}

    @pytest.mark.parametrize("command, cfg, field", [
        ("construct", {"n": 3, "method": "ga", "design_snr_db": 3090}, "design_snr_db"),
        ("construct", {"n": 3, "method": "mc", "snr_db": -3090, "trials": 5, "seed": 1},
         "snr_db"),
        ("puncture", {"base_len": 8, "k": 4, "design_snr_db": 3090}, "design_snr_db"),
        ("simulate", {**_SIM, "snr_start": -3090, "snr_stop": -3090, "snr_step": 1},
         "snr_start"),
        ("simulate", {**_SIM, "snr_start": 1, "snr_stop": 3090, "snr_step": 1000}, "snr_stop"),
        ("simulate", {**_SIM, "snrs": [1.0, -3090]}, "snrs"),
    ])
    def test_huge_db_value_names_field(self, tmp_path, capsys, command, cfg, field):
        out = tmp_path / "out.txt"
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**cfg, "out": str(out)}))
        assert main([command, "--config", str(path)]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    # cross-field size bounds, each checked before anything of that size is
    # allocated: the GA design of a length-2^16 code never starts
    _SWEEP = "--snr-start 1 --snr-stop 1 --snr-step 1 --design-snr-db 3 --seed 1"

    @pytest.mark.parametrize("command, args, field", [
        ("simulate", f"--n 16 --k 8 --L 16 --batch-size {(BATCH_CELLS_MAX >> 16) + 1} {_SWEEP}",
         "batch_size"),
        ("simulate", f"--n 5 --k 8 --L {L_MAX} --batch-size {BATCH_CELLS_MAX // L_MAX + 1}"
                     f" {_SWEEP}", "batch_size"),
        ("construct", "--n 13 --method mc --snr-db 3 --trials 5 --seed 1", "n"),
        ("construct", "--n 5 --method mc --snr-db 3 --trials 5 --seed 1 --sequence reference32"
                      f" --select-length {MC_LEN_MAX + 1}", "select_length"),
    ])
    def test_batch_and_genie_bounds_name_field(self, tmp_path, capsys, command, args, field):
        assert (BATCH_CELLS_MAX, MC_LEN_MAX) == (1 << 25, 1 << 12)
        assert main([command, *args.split(), "--out", str(tmp_path / "out.csv")]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("out", 7), ("sequence", 32), ("method", ["ga"])])
    def test_non_text_for_a_text_field_names_field(self, tmp_path, monkeypatch, capsys,
                                                   field, value):
        # str() of a JSON number must not become a path: "out": 7 would write ./7
        monkeypatch.chdir(tmp_path)
        cfg = {"n": 3, "method": "ga", "design_snr_db": 3.5, "out": "p.csv", field: value}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["construct", "--config", "c.json"]) == 2
        assert f"config field '{field}': must be str" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["c.json"]

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
        prof = ReliabilityProfile.from_csv(out.read_text(encoding="utf-8"))
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
        prof = ReliabilityProfile.from_csv(out.read_text(encoding="utf-8"))
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

    @pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
    def test_non_finite_design_snr_names_field(self, tmp_path, capsys, snr):
        rc = main(["construct", "--n", "4", "--method", "ga", f"--design-snr-db={snr}",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "'design_snr_db'" in capsys.readouterr().err

    def test_sequence_without_select_length_sends_n_bits(self, tmp_path):
        # with a sequence, the select length defaults to N: 16-QAM classes
        # shape the GA profile as they do at --select-length 256
        base = "--n 8 --method ga --sequence reference32 --modulation 16 --design-snr-db 3"
        a, b, plain = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "plain.csv"
        assert main(["construct", *base.split(), "--out", str(a)]) == 0
        assert main(["construct", *base.split(), "--select-length", "256", "--out", str(b)]) == 0
        assert main(["construct", "--n", "8", "--method", "ga", "--design-snr-db", "3",
                     "--out", str(plain)]) == 0
        assert a.read_bytes() == b.read_bytes() != plain.read_bytes()

    def test_mc_profile(self, tmp_path):
        out = tmp_path / "mc.csv"
        rc = main(["construct", "--n", "4", "--method", "mc", "--snr-db", "3.0",
                   "--trials", "2000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        prof = ReliabilityProfile.from_csv(out.read_text(encoding="utf-8"))
        assert len(prof) == 16
        assert prof.method == "monte_carlo"

    def test_mc_on_bec_needs_no_snr(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["construct", "--n", "3", "--method", "mc", "--channel", "bec",
                     "--epsilon", "0.3", "--trials", "100", "--seed", "1",
                     "--out", str(out)]) == 0
        assert len(ReliabilityProfile.from_csv(out.read_text(encoding="utf-8"))) == 8

    def test_mc_on_bec_records_erasure_rate(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["construct", "--n", "3", "--method", "mc", "--channel", "bec",
                     "--epsilon", "0.3", "--trials", "100", "--seed", "1",
                     "--out", str(out)]) == 0
        assert "# method=monte_carlo design=0.3 n_positions=8\n" in out.read_text()

    # QAM needs the rate matcher's BICM mapping, and the erasure channel
    # carries BPSK only
    @pytest.mark.parametrize("args", [
        "--n 1 --method mc --modulation 16 --snr-db 3",
        "--n 3 --method mc --channel bec --epsilon 0.3 --modulation 16",
        "--n 5 --method mc --channel bec --epsilon 0.3 --modulation 16 --sequence reference32",
        "--n 8 --method bec --epsilon 0.5 --modulation 16 --sequence reference32"
        " --select-length 98",
    ])
    def test_qam_without_sequence_or_on_bec_names_modulation(self, tmp_path, capsys, args):
        rc = main(["construct", *args.split(), "--trials", "10", "--seed", "1",
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert "'modulation'" in capsys.readouterr().err

    def test_mc_select_length_without_sequence_names_sequence(self, tmp_path, capsys):
        rc = main(["construct", "--n", "4", "--method", "mc", "--snr-db", "3.0",
                   "--trials", "10", "--seed", "3", "--select-length", "12",
                   "--out", str(tmp_path / "mc.csv")])
        assert rc == 2
        assert "'sequence'" in capsys.readouterr().err

    def test_short_code_with_reference32_names_sequence(self, tmp_path, capsys):
        # the base length 32 of the sequence exceeds the code length 16
        out = tmp_path / "p.csv"
        rc = main(["construct", "--n", "4", "--method", "ga", "--sequence", "reference32",
                   "--design-snr-db", "3.5", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'sequence'" in err and "2^n = 16" in err
        assert not out.exists()

    def test_sequence_not_a_power_of_two_names_sequence(self, tmp_path, capsys):
        seq = tmp_path / "seq.txt"
        seq.write_text("0,2,1\n")
        rc = main(["construct", "--n", "4", "--method", "ga", "--sequence", str(seq),
                   "--design-snr-db", "3.5", "--out", str(tmp_path / "p.csv")])
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
        got = PuncturingSequence.from_text(out.read_text(encoding="utf-8"))
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
        seq = PuncturingSequence.from_text(out.read_text(encoding="utf-8"))
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

    @pytest.mark.parametrize("start, stop, step, want", [
        ("0", "1", "0.6", [0.0, 0.6]),   # once rounded up to a third point, 1.2
        ("0", "0.3", "0.1", [0.0, 0.1, 0.2, 0.30000000000000004]),
    ])
    def test_snr_grid_ends_at_stop(self, tmp_path, start, stop, step, want):
        out = tmp_path / "res.csv"
        assert main(["simulate", "--n", "5", "--k", "11", "--L", "32",
                     "--snr-start", start, "--snr-stop", stop, "--snr-step", step,
                     "--design-snr-db", "3.5", "--seed", "1", "--max-blocks", "50",
                     "--batch-size", "50", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[3:]   # under the seed, run and column lines
        assert [float(r.split(",")[0]) for r in rows] == want

    def test_snr_grid_cap(self):
        # the largest grid allowed is built; one point more is refused
        assert _snr_grid(0.0, SNR_POINTS_MAX - 1.0, 1.0) == [float(i) for i in range(SNR_POINTS_MAX)]
        for args in [(0.0, float(SNR_POINTS_MAX), 1.0),
                     (0.0, 100.0, 1e-9),            # 10^11 points
                     (-1e308, 1e308, 1.0)]:         # a range beyond the largest float
            with pytest.raises(ConfigError) as err:
                _snr_grid(*args)
            assert err.value.fieldname == "snr_step"

    def test_snr_grid_over_cap_names_snr_step(self, tmp_path, capsys):
        rc = main(["simulate", "--n", "5", "--k", "11", "--L", "32",
                   "--snr-start", "0", "--snr-stop", "100", "--snr-step", "1e-9",
                   "--design-snr-db", "3.5", "--out", str(tmp_path / "res.csv")])
        assert rc == 2
        assert "'snr_step'" in capsys.readouterr().err
        assert not (tmp_path / "res.csv").exists()

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

    @pytest.mark.parametrize("edit", ["reverse", "renumber"])
    def test_profile_rows_out_of_order_name_profile(self, tmp_path, capsys, edit):
        # rows were read in file order whatever their index: reversed rows
        # reversed the information set, and index 33 of 32 was accepted
        prof_path = tmp_path / "prof.csv"
        assert main(["construct", "--n", "5", "--method", "ga",
                     "--design-snr-db", "3.5", "--out", str(prof_path)]) == 0
        lines = prof_path.read_text().splitlines(keepends=True)
        head, rows = lines[:2], lines[2:]
        rows = rows[::-1] if edit == "reverse" else rows[:-1] + ["33" + rows[-1][2:]]
        prof_path.write_text("".join(head + rows))
        rc = main(["simulate", "--n", "5", "--k", "11", "--L", "32",
                   "--profile", str(prof_path),
                   "--snr-start", "3.0", "--snr-stop", "3.0", "--snr-step", "1.0",
                   "--seed", "2", "--max-blocks", "50", "--batch-size", "50",
                   "--out", str(tmp_path / "res.csv")])
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
        assert "'sequence'" in err and "2^n = 16" in err

    def test_sequence_fixes_split(self, tmp_path):
        # a base-8 order on a length-32 code: the header reports the split
        # (3, 2) that the base length fixes, and the run is repeatable
        seq = tmp_path / "seq8.txt"
        assert main(["puncture", "--base-len", "8", "--k", "4", "--design-snr-db", "3.5",
                     "--out", str(seq)]) == 0
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["simulate", "--n", "5", "--k", "11", "--L", "20", "--sequence", str(seq),
                         "--snr-start", "3", "--snr-stop", "3", "--snr-step", "1",
                         "--design-snr-db", "3.5", "--seed", "1", "--max-blocks", "50",
                         "--batch-size", "50", "--out", str(out)]) == 0
        assert "# n=5 k=11 p=3 q=2 L=20 " in a.read_text()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--shift-cc-bicm", "7")])
    def test_bad_seed_or_shift_names_field(self, tmp_path, capsys, flag, value):
        rc = main(["simulate", "--n", "5", "--k", "11", "--L", "32",
                   "--snr-start", "1.0", "--snr-stop", "1.0", "--snr-step", "1.0",
                   "--design-snr-db", "3.5", "--seed", "1", flag, value,
                   "--out", str(tmp_path / "res.csv")])
        assert rc == 2
        assert f"'{flag[2:].replace('-', '_')}'" in capsys.readouterr().err


# one valid run of each subcommand, cheap enough to reach its write
_RUNS = {
    "construct": "--n 4 --method ga --design-snr-db 3.5",
    "puncture": "--base-len 8 --k 4 --design-snr-db 3.5",
    "simulate": "--n 5 --k 11 --L 32 --snr-start 3 --snr-stop 3 --snr-step 1"
                " --design-snr-db 3.5 --seed 1 --max-blocks 50 --batch-size 50",
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", sorted(_RUNS))
def test_failed_write_names_out(capsys, command):
    rc = main([command, *_RUNS[command].split(), "--out", "/dev/full"])
    assert rc == 2
    assert "'out'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# every config that main() is given ends in exit 0 or in an exit 2 that names
# a field: never in a runtime error
# ---------------------------------------------------------------------------

_DB_VALUES = st.floats(-5.0, 10.0)
# values no field takes: wrong types, booleans, non-finite numbers; null
# stands for an absent field
_JUNK = [None, True, False, "x", "", [], {}, 2.5, -1, 0, -0.0, float("nan"), float("inf"),
         float("-inf")]
# huge values, refused by every field that has a bound; the fields without one
# would take them and run for hours, so they draw only junk
_HUGE = [2 ** 70, 1e308, -1e308, 3090, -3090, 300.5, -300.5, 1 << 21, 1 << 26, [1.0, 3090],
         [-3090.0]]
_UNBOUNDED = {"trials", "t", "max_blocks", "target_block_errors"}


def _valid_config(draw, command):
    """A small consistent config for ``command`` that runs to its write in
    well under a second."""
    maybe = lambda: draw(st.booleans())
    if command == "puncture":
        base_len = draw(st.sampled_from([2, 4, 8, 16]))
        cfg = {"base_len": base_len, "k": draw(st.integers(1, base_len))}
        if maybe():
            cfg["epsilon"] = draw(st.floats(0.0, 1.0))
        else:
            cfg["design_snr_db"] = draw(_DB_VALUES)
        return cfg
    cfg = {"seed": draw(st.integers(0, 2 ** 64))} if maybe() else {}
    if command == "construct":
        method = draw(st.sampled_from(["ga", "bec", "mc"]))
        cfg.update(n=draw(st.integers(1, 6)), method=method, trials=draw(st.integers(1, 40)))
        kind = draw(st.sampled_from(["awgn", "fading", "bec"])) if method == "mc" else "awgn"
        cfg["channel"] = kind
        if kind == "bec" or method == "bec":
            cfg["epsilon"] = draw(st.floats(0.0, 1.0))
        cfg["design_snr_db" if method == "ga" else "snr_db"] = draw(_DB_VALUES)
        if cfg["n"] >= 5 and maybe():
            cfg.update(sequence="reference32", select_length=draw(st.integers(1, 160)))
            if "bec" not in (method, kind):
                cfg["modulation"] = draw(st.sampled_from([2, 16, 64]))
        return cfg
    n = draw(st.integers(5, 6))
    cfg.update(n=n, k=draw(st.integers(1, 1 << n)), L=draw(st.integers(1, 160)),
               design_snr_db=draw(_DB_VALUES), max_blocks=draw(st.integers(1, 24)),
               target_block_errors=draw(st.integers(1, 24)), batch_size=draw(st.integers(1, 16)),
               modulation=draw(st.sampled_from([2, 16, 64])),
               channel=draw(st.sampled_from(["awgn", "fading"])),
               mode=draw(st.sampled_from(["cc", "ir"])), t=draw(st.integers(1, 3)),
               shift_cc_bicm=draw(st.sampled_from([0, 1])), workers=1)
    if maybe():
        cfg["select_length"] = draw(st.integers(1, 160))
    if maybe():
        cfg["snrs"] = draw(st.lists(_DB_VALUES, min_size=1, max_size=3))
    else:
        start = draw(st.floats(0.0, 4.0))
        cfg.update(snr_start=start, snr_stop=start + draw(st.floats(0.0, 2.0)),
                   snr_step=draw(st.floats(0.5, 3.0)))
    return cfg


@st.composite
def cli_configs(draw):
    """A subcommand and a config for it: a valid one, then up to two fields
    set to a junk or huge value, and perhaps a key that no command takes."""
    command = draw(st.sampled_from(["construct", "puncture", "simulate"]))
    cfg = _valid_config(draw, command)
    # mostly the command's own fields; "out" is left alone, since a junk
    # string would be a path in the working directory
    own = sorted(set(_COMMANDS[command][2].split()) | {"seed"})
    others = sorted(set(_FIELDS) - set(own) - {"out"}) + ["bogus"]
    target = st.one_of(st.sampled_from(own), st.sampled_from(own), st.sampled_from(others))
    for f in draw(st.lists(target, max_size=2)):
        cfg[f] = draw(st.sampled_from(_JUNK if f in _UNBOUNDED else _JUNK + _HUGE))
    return command, cfg


def _run(command, cfg):
    """Exit code and stderr of ``main`` on ``cfg`` given as a --config file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**cfg, "out": os.path.join(tmp, "out.txt")}, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", path])
    return code, err.getvalue()


@given(cli_configs())
@settings(max_examples=300, deadline=None)
@example(("construct", {"n": 3, "method": "ga", "design_snr_db": 3090}))
@example(("construct", {"n": 3, "method": "mc", "snr_db": -3090, "trials": 5, "seed": 1}))
@example(("puncture", {"base_len": 8, "k": 4, "design_snr_db": 3090}))
@example(("simulate", {"n": 5, "k": 11, "L": 32, "snr_start": -3090, "snr_stop": -3090,
                       "snr_step": 1, "design_snr_db": 3, "seed": 1, "max_blocks": 4}))
@example(("simulate", {"n": 5, "k": 11, "L": 32, "snrs": [3090], "design_snr_db": 3,
                       "seed": 1, "max_blocks": 4}))
@example(("construct", {"n": 5, "method": "mc", "snr_db": 3, "trials": 5, "seed": 1,
                        "sequence": "reference32", "modulation": 16, "select_length": 7}))
def test_any_config_exits_0_or_names_a_field(case):
    command, cfg = case
    code, err = _run(command, cfg)
    assert code in (0, 2), err
    if code == 2:
        named = re.search(r"config field '(\w+)'", err)
        assert named and named.group(1) in set(_FIELDS) | set(cfg) | {"config"}, err
