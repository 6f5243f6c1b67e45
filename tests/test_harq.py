"""HARQ block runs, throughput, sweep determinism and stopping."""

import io

import numpy as np
import pytest

from rcpolar.channel import BPSK, QAM16, ChannelSpec
from rcpolar.construction import bhattacharyya_bec, select_information_set
from rcpolar.harq import (
    SweepConfig,
    run_blocks_batch,
    sweep,
    throughput,
    write_results_csv,
)
from rcpolar.polar import PolarCodeSpec
from rcpolar.puncturing import PuncturingSequence, reference_base32_sequence
from rcpolar.rate_matching import RateMatcher, TxPlan, transmit_codeword_llrs


def make_code(n=5, k=8, split=None, mod=BPSK):
    split = split or (min(5, n), n - min(5, n)) if n > 5 else (split or (n, 0))
    N = 1 << n
    probe = PolarCodeSpec(n=n, k=N, info_set=tuple(range(1, N + 1)), split=split)
    prof = bhattacharyya_bec(probe, np.full(N, 0.3))
    info = select_information_set(prof, k)
    spec = PolarCodeSpec(n=n, k=k, info_set=info, split=split)
    if split[0] == 5:
        seq = reference_base32_sequence()
    else:
        rng = np.random.default_rng(0)
        base = 1 << split[0]
        seq = PuncturingSequence(base_len=base, order=tuple(np.arange(base)))
    rm = RateMatcher(spec=spec, sequence=seq, modulation=mod)
    return spec, rm


class TestThroughput:
    def test_examples(self):
        assert throughput(0.5, 2, 1.0, 1.0) == 0.0
        assert throughput(11 / 32, 16, 0.0, 1.0) == pytest.approx(1.375)
        assert throughput(0.5, 2, 0.5, 2.0) == pytest.approx(0.125)

    def test_contract(self):
        with pytest.raises(ValueError):
            throughput(0.5, 2, 0.0, 0.5)
        with pytest.raises(ValueError):
            throughput(0.5, 2, 1.5, 1.0)


class TestRunBlock:
    """Single blocks, run as batches of one."""

    def test_noiseless_first_attempt(self):
        spec, rm = make_code()
        msg = np.random.default_rng(1).integers(0, 2, size=(1, spec.k), dtype=np.uint8)
        ok, used, errs = run_blocks_batch(spec, rm, ChannelSpec(kind="awgn", snr_db=40.0),
                                          32, 4, "cc", msg, np.random.default_rng(2))
        assert ok[0] and used[0] == 1 and errs[0] == 0

    def test_zero_capacity_channel_fails(self):
        spec, rm = make_code()
        chan = ChannelSpec(kind="awgn", snr_db=-60.0)
        rng = np.random.default_rng(3)
        fails = 0
        for _ in range(20):
            msg = rng.integers(0, 2, size=(1, spec.k), dtype=np.uint8)
            ok, used, _ = run_blocks_batch(spec, rm, chan, 32, 3, "cc", msg, rng)
            fails += not ok[0]
            assert ok[0] or used[0] == 3
        assert fails >= 18  # guessing floor 2^-k per attempt

    def test_cc_accumulator_scales_with_repeats(self):
        # identical channel draws per transmission: accumulator = r * single
        spec, rm = make_code()
        chan = ChannelSpec(kind="awgn", snr_db=3.0)
        msg = np.zeros(spec.k, dtype=np.uint8)
        u = np.zeros(spec.N, dtype=np.uint8)
        x = np.zeros(spec.N, dtype=np.uint8)
        plan = TxPlan(L=32, t=4, r=1, mode="cc")
        single = transmit_codeword_llrs(x, rm, plan, chan, np.random.default_rng(7))
        acc = sum(transmit_codeword_llrs(x, rm, TxPlan(L=32, t=4, r=r + 1, mode="cc"),
                                         chan, np.random.default_rng(7))
                  for r in range(3))
        assert np.allclose(acc, 3.0 * single)

    def test_wrong_message_length(self):
        spec, rm = make_code()
        chan = ChannelSpec(kind="awgn", snr_db=3.0)
        for shape in [(1, spec.k + 1), (1, spec.k - 1), (spec.k,), (1, 1, spec.k)]:
            with pytest.raises(ValueError, match=r"need \(B, k\) with k = 8"):
                run_blocks_batch(spec, rm, chan, 32, 1, "cc",
                                 np.zeros(shape, dtype=np.uint8), np.random.default_rng(0))


class TestBatchEngine:
    def test_matches_scalar_path_statistically(self):
        spec, rm = make_code()
        chan = ChannelSpec(kind="awgn", snr_db=2.0)
        rng = np.random.default_rng(11)
        msgs = rng.integers(0, 2, size=(400, spec.k), dtype=np.uint8)
        ok, used, errs = run_blocks_batch(spec, rm, chan, 32, 2, "cc", msgs, rng)
        assert ok.shape == (400,)
        assert np.all(used[ok] >= 1) and np.all(used <= 2)
        assert np.all(errs[ok] == 0)
        assert np.all(errs[~ok] > 0)

    def test_counter_consistency(self):
        spec, rm = make_code()
        chan = ChannelSpec(kind="awgn", snr_db=0.0)
        rng = np.random.default_rng(12)
        msgs = rng.integers(0, 2, size=(300, spec.k), dtype=np.uint8)
        ok, used, errs = run_blocks_batch(spec, rm, chan, 32, 3, "ir", msgs, rng)
        assert errs.sum() <= (~ok).sum() * spec.k
        assert used.min() >= 1 and used.max() <= 3


class TestSweep:
    def make_cfg(self, mode="cc", workers=1, t=2, seed=99):
        _, rm = make_code()
        return SweepConfig(rate_matcher=rm, channel_kind="awgn",
                           snr_grid=(1.0, 4.0), L=32, t=t, mode=mode, seed=seed,
                           max_blocks=600, target_block_errors=50,
                           batch_size=100, stop_check_blocks=200, workers=workers)

    def test_t1_accounting(self):
        _, rm = make_code()
        cfg = SweepConfig(rate_matcher=rm, channel_kind="awgn",
                          snr_grid=(2.0,), L=32, t=1, mode="cc", seed=5,
                          max_blocks=300, target_block_errors=10**9, batch_size=100)
        res = sweep(cfg)[0]
        assert res.t_bar == 1.0
        assert res.blocks == 300

    def test_cc_equals_ir_at_t1(self):
        _, rm = make_code()
        rows = {}
        for mode in ("cc", "ir"):
            cfg = SweepConfig(rate_matcher=rm, channel_kind="awgn",
                              snr_grid=(2.0,), L=32, t=1, mode=mode, seed=5,
                              max_blocks=200, target_block_errors=10**9,
                              batch_size=100)
            rows[mode] = sweep(cfg)[0].row()
        assert rows["cc"] == rows["ir"]

    def test_deterministic_across_worker_counts(self):
        rows = {}
        for workers in (1, 2):
            res = sweep(self.make_cfg(workers=workers))
            buf = io.StringIO()
            write_results_csv(res, buf, header_comments=("seed=99",))
            rows[workers] = buf.getvalue()
        assert rows[1] == rows[2]

    def test_repeat_run_identical(self):
        a = sweep(self.make_cfg())
        b = sweep(self.make_cfg())
        assert [r.row() for r in a] == [r.row() for r in b]

    def test_stop_rule_bounds(self):
        cfg = self.make_cfg()
        for r in sweep(cfg):
            assert r.blocks <= cfg.max_blocks
            # overshoot bounded by one stop-check round
            if r.block_errors >= cfg.target_block_errors:
                assert r.blocks <= cfg.max_blocks

    def test_csv_schema(self):
        res = sweep(self.make_cfg())
        buf = io.StringIO()
        write_results_csv(res, buf, header_comments=("seed=99",))
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "# seed=99"
        assert lines[1] == "snr_db,blocks,bit_errors,block_errors,ber,bler,t_bar,throughput"
        assert len(lines) == 2 + 2

    def test_fading_kind_accepted(self):
        _, rm = make_code(mod=QAM16)
        cfg = SweepConfig(rate_matcher=rm, channel_kind="fading",
                          snr_grid=(8.0,), L=32, t=2, mode="ir", seed=1,
                          max_blocks=100, target_block_errors=10**9, batch_size=50)
        res = sweep(cfg)[0]
        assert 0.0 <= res.bler <= 1.0
        assert 1.0 <= res.t_bar <= 2.0

    def test_zero_target_block_errors_rejected(self):
        # zero would simulate no blocks and leave the BLER undefined
        _, rm = make_code()
        with pytest.raises(ValueError, match="target_block_errors"):
            SweepConfig(rate_matcher=rm, channel_kind="awgn",
                        snr_grid=(1.0,), L=32, t=1, mode="cc", seed=0,
                        target_block_errors=0)

    def test_invalid_mode(self):
        _, rm = make_code()
        with pytest.raises(ValueError):
            SweepConfig(rate_matcher=rm, channel_kind="awgn",
                        snr_grid=(1.0,), L=32, t=1, mode="chase", seed=0)
