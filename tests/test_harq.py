"""HARQ block runs, throughput, sweep determinism and stopping."""

from dataclasses import replace

import numpy as np
import pytest

from rcpolar import harq
from rcpolar.channel import BPSK, QAM16, ChannelSpec
from rcpolar.construction import bhattacharyya_bec, design_code, select_information_set
from rcpolar.decoder import sc_decode
from rcpolar.harq import (
    SweepConfig,
    results_csv,
    run_blocks_batch,
    sweep,
    throughput,
)
from rcpolar.polar import PolarCodeSpec, encode
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

    def test_messages_must_be_bits(self):
        # 256 and -255 used to wrap to 0 and 1 and come back decoded
        spec, rm = make_code()
        msgs = np.zeros((2, spec.k), dtype=np.int64)
        msgs[0, 0], msgs[1, 1] = 256, -255
        for bad in (msgs, np.full((2, spec.k), 0.5)):
            with pytest.raises(ValueError, match="messages entries must be 0 or 1"):
                run_blocks_batch(spec, rm, ChannelSpec(kind="awgn", snr_db=40.0), 32, 1, "cc",
                                 bad, np.random.default_rng(0))

    @pytest.mark.parametrize("t", [0, -1])
    def test_needs_a_transmission(self, t):
        # t = 0 used to return every block as failed after 0 transmissions
        spec, rm = make_code()
        with pytest.raises(ValueError, match=rf"t = {t}"):
            run_blocks_batch(spec, rm, ChannelSpec(kind="awgn", snr_db=3.0), 32, t, "cc",
                             np.zeros((2, spec.k), dtype=np.uint8), np.random.default_rng(0))


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


def full_decoding_loop(spec, rm, chan, L, t, mode, messages, rng):
    """The HARQ loop that decodes every attempt in full (the reference)."""
    B = messages.shape[0]
    u = np.zeros((B, spec.N), dtype=np.uint8)
    u[:, spec.info_zero_based] = messages
    x = encode(u, spec)
    acc = np.zeros((B, spec.N))
    active = np.arange(B)
    success = np.zeros(B, dtype=bool)
    tx_used = np.zeros(B, dtype=np.int64)
    bit_errs = np.zeros(B, dtype=np.int64)
    for r in range(1, t + 1):
        delta = transmit_codeword_llrs(x[active], rm, TxPlan(L=L, t=t, r=r, mode=mode), chan, rng)
        acc[active] += delta
        tx_used[active] = r
        dec = sc_decode(acc[active], spec)
        errs = (dec[:, spec.info_zero_based] != messages[active]).sum(axis=1)
        ok = errs == 0
        success[active[ok]] = True
        bit_errs[active] = errs
        active = active[~ok]
        if active.size == 0:
            break
    return success, tx_used, bit_errs


class TestEarlyTermination:
    """Attempts before the last transmission stop at their first wrong
    decision; every counter still equals full decoding's."""

    @staticmethod
    def assert_same(rm, channel, snrs, L, t, mode):
        """(success, tx_used, bit_errs) over 64 blocks at each SNR, pooled."""
        spec = rm.spec
        pooled = []
        for i, snr in enumerate(snrs):
            chan = ChannelSpec(kind=channel, snr_db=snr)
            msgs = np.random.default_rng(i).integers(0, 2, size=(64, spec.k), dtype=np.uint8)
            got = run_blocks_batch(spec, rm, chan, L, t, mode, msgs, np.random.default_rng(40 + i))
            want = full_decoding_loop(spec, rm, chan, L, t, mode, msgs,
                                      np.random.default_rng(40 + i))
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            pooled.append(got)
        return tuple(np.concatenate(a) for a in zip(*pooled))

    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_ir_qam16_fading(self, t):
        # 0 dB: every block fails every round; 4-16 dB: blocks decode after
        # each of the four transmissions, and some fail all of them
        rm = design_code(8, 88, reference_base32_sequence(), QAM16, 96, 9.0)
        success, tx, _ = self.assert_same(rm, "fading", (0.0, 4.0, 8.0, 16.0), 96, t, "ir")
        assert set(tx[success].tolist()) == set(range(1, t + 1))
        assert (~success).sum() > 64

    def test_cc_bpsk_awgn(self):
        rm = design_code(8, 88, reference_base32_sequence(), BPSK, 98, 3.5)
        success, tx, _ = self.assert_same(rm, "awgn", (-6.0, 2.0, 4.0), 98, 2, "cc")
        assert set(tx[success].tolist()) == {1, 2} and (~success).sum() > 64

    @pytest.mark.parametrize("mode", ["cc", "ir"])
    def test_blocks_that_fail_every_round(self, mode):
        rm = design_code(8, 88, reference_base32_sequence(), QAM16, 96, 9.0)
        success, tx, errs = self.assert_same(rm, "fading", (-10.0,), 96, 3, mode)
        assert not success.any() and (tx == 3).all() and (errs > 0).all()


class TestSweep:
    def make_cfg(self, mode="cc", workers=1, t=2, seed=99):
        # 5000 blocks in batches of 512 span three stop-check rounds of
        # STOP_CHECK_BLOCKS, the last one partial
        _, rm = make_code()
        return SweepConfig(rate_matcher=rm, channel_kind="awgn",
                           snr_grid=(1.0, 4.0), L=32, t=t, mode=mode, seed=seed,
                           max_blocks=5000, target_block_errors=50,
                           batch_size=512, workers=workers)

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
            rows[workers] = results_csv(res, header_comments=("seed=99",))
        assert rows[1] == rows[2]

    @pytest.mark.parametrize("workers,batch_size,pool_size", [
        (64, 512, 4), (3, 512, 3), (64, 1024, 2), (64, 2048, None), (64, 4096, None),
    ])
    def test_pool_holds_one_round_of_batches(self, monkeypatch, workers, batch_size,
                                             pool_size):
        # a forked pool starts all its workers at the first submit, but at
        # most STOP_CHECK_BLOCKS // batch_size batches run at once; the fake
        # pool runs them in this process and records the size asked for
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            map = staticmethod(map)

        monkeypatch.setattr(harq, "ProcessPoolExecutor", FakePool)
        cfg = replace(self.make_cfg(workers=workers), batch_size=batch_size)
        got = sweep(cfg)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert [r.row() for r in got] == [r.row() for r in sweep(replace(cfg, workers=1))]

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
        lines = results_csv(res, header_comments=("seed=99",)).strip().split("\n")
        assert lines[0] == "# seed=99"
        assert lines[1] == "snr_db,blocks,bit_errors,block_errors,ber,bler,t_bar,throughput"
        assert len(lines) == 2 + 2

    def test_numpy_snr_points_written_as_numbers(self):
        # a grid of np.float64 values, as np.arange makes, once wrote
        # "np.float64(1.0)" into the snr_db column
        cfg = replace(self.make_cfg(), snr_grid=tuple(np.arange(1.0, 2.5, 0.5)),
                      max_blocks=100, batch_size=100)
        lines = results_csv(sweep(cfg)).splitlines()
        assert lines[0] == ",".join(harq.RESULT_COLUMNS)
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [row[0] for row in rows] == [1.0, 1.5, 2.0]
        assert all(len(row) == len(harq.RESULT_COLUMNS) for row in rows)

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

    @pytest.mark.parametrize("workers", [0, -1])
    def test_nonpositive_workers_rejected(self, workers):
        # a worker count below 1 ran the sweep serially without a word
        _, rm = make_code()
        with pytest.raises(ValueError, match="workers"):
            SweepConfig(rate_matcher=rm, channel_kind="awgn",
                        snr_grid=(1.0,), L=32, t=1, mode="cc", seed=0, workers=workers)

    def test_invalid_mode(self):
        _, rm = make_code()
        with pytest.raises(ValueError):
            SweepConfig(rate_matcher=rm, channel_kind="awgn",
                        snr_grid=(1.0,), L=32, t=1, mode="chase", seed=0)
