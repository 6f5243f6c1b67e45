"""Reused arrays stay inside the calls that use them.

The channel's draws, the decoder's LLRs and the fold's bins live in arrays
kept from call to call.  No returned array may share them: a result must
survive the next call, whatever its plan or batch size.  And a buffered
draw must leave the random stream where a fresh draw leaves it.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rcpolar import _workspace
from rcpolar.channel import BPSK, QAM16, QAM64, ChannelSpec, modulate, transmit
from rcpolar.construction import design_code
from rcpolar.decoder import sc_decode
from rcpolar.polar import encode
from rcpolar.puncturing import reference_base32_sequence
from rcpolar.rate_matching import TxPlan, de_rate_match, transmit_codeword_llrs


def reference_transmit(symbols, chan, mod, rng):
    """``transmit`` with every draw a fresh array, as written before the
    draws were buffered."""
    symbols = np.asarray(symbols)
    sigma = math.sqrt(chan.noise_sigma2(mod))
    if mod.order == 2:
        if chan.kind == "fading":
            g = rng.standard_normal(symbols.shape + (2,))
            amp = np.sqrt(g[..., 0] ** 2 + g[..., 1] ** 2) / math.sqrt(2.0)
            faded = amp * symbols
        else:
            amp, faded = np.ones(symbols.shape), symbols
        return faded + sigma * rng.standard_normal(symbols.shape), amp
    if chan.kind == "fading":
        g = rng.standard_normal(symbols.shape + (2,))
        coef = (g[..., 0] + 1j * g[..., 1]) / math.sqrt(2.0)
        faded = coef * symbols
    else:
        coef, faded = np.ones(symbols.shape, dtype=complex), symbols
    noise = rng.standard_normal(symbols.shape + (2,))
    return faded + sigma * (noise[..., 0] + 1j * noise[..., 1]), coef


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def harq_code(mod=QAM16, n=8, k=88, L=176):
    return design_code(n, k, reference_base32_sequence(), mod, L, 3.0)


@pytest.mark.parametrize("mod", [BPSK, QAM16, QAM64])
@pytest.mark.parametrize("kind", ["awgn", "fading"])
def test_buffered_transmit_equals_fresh_draws(mod, kind):
    chan = ChannelSpec(kind=kind, snr_db=4.0)
    bits = np.random.default_rng(7).integers(0, 2, size=(9, 12 * mod.bits_per_symbol))
    for shape in [(9, 12 * mod.bits_per_symbol), (12 * mod.bits_per_symbol,),
                  (0, 2 * mod.bits_per_symbol)]:
        syms = modulate(bits.reshape(-1)[: math.prod(shape)].reshape(shape), mod)
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = transmit(syms, chan, mod, got_rng)
        want = reference_transmit(syms, chan, mod, want_rng)
        assert all(same_bits(g, w) for g, w in zip(got, want))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("mod", [BPSK, QAM16])
@pytest.mark.parametrize("kind", ["awgn", "fading"])
def test_transmit_results_survive_the_next_call(mod, kind):
    chan = ChannelSpec(kind=kind, snr_db=4.0)
    rng = np.random.default_rng(1)
    first = transmit(modulate(rng.integers(0, 2, size=(6, 8 * mod.bits_per_symbol)), mod),
                     chan, mod, rng)
    kept = [a.copy() for a in first]
    for rows in (3, 11):
        transmit(modulate(rng.integers(0, 2, size=(rows, 8 * mod.bits_per_symbol)), mod),
                 chan, mod, rng)
        assert all(same_bits(a, b) for a, b in zip(first, kept))


@pytest.mark.parametrize("mode", ["cc", "ir"])
def test_tx_chain_results_survive_the_next_call(mode):
    rm = harq_code()
    chan = ChannelSpec(kind="fading", snr_db=6.0)
    rng = np.random.default_rng(2)
    u = rng.integers(0, 2, size=(12, rm.spec.N), dtype=np.uint8)
    x = encode(u, rm.spec)
    plans = [TxPlan(L=176, t=3, r=r, mode=mode) for r in (1, 2, 3)]
    first = transmit_codeword_llrs(x[:8], rm, plans[0], chan, rng)
    folded = de_rate_match(np.arange(8 * 176, dtype=float).reshape(8, 176), rm, plans[0])
    kept = first.copy(), folded.copy()
    for plan, rows in zip(plans[1:], (3, 12)):
        transmit_codeword_llrs(x[:rows], rm, plan, chan, rng)
        de_rate_match(rng.normal(size=(rows, 176)), rm, plan)
        assert same_bits(first, kept[0]) and same_bits(folded, kept[1])


def test_decisions_survive_the_next_call():
    small, large = harq_code(BPSK, 8, 88, 176), harq_code(BPSK, 10, 352, 384)
    rng = np.random.default_rng(4)
    first = sc_decode(rng.normal(1.0, 2.0, size=(8, small.spec.N)), small.spec)
    kept = first.copy()
    for rm, rows in ((small, 3), (small, 16), (large, 8)):
        llrs = rng.normal(1.0, 2.0, size=(rows, rm.spec.N))
        again = sc_decode(llrs, rm.spec)
        assert same_bits(first, kept) and not np.shares_memory(first, again)


def test_workspace_past_its_budget_is_fresh(monkeypatch):
    monkeypatch.setattr(_workspace, "KEEP_BYTES", 1024)
    monkeypatch.setattr(_workspace, "_local", type(_workspace._local)())
    kept = _workspace.workspace("a", (8, 8))            # 512 bytes: kept
    assert np.shares_memory(kept, _workspace.workspace("a", (4, 8)))
    big = _workspace.workspace("b", (8, 16))            # 1,024 more: not kept
    assert not np.shares_memory(big, _workspace.workspace("b", (8, 16)))
    assert _workspace.workspace("c", (2, 3), complex).dtype == complex


def test_threads_keep_their_own_arrays():
    # more threads than cores, switching often: a workspace shared without
    # care would mix their draws, fold bins or decoder LLRs
    rm = harq_code(QAM16)
    chan = ChannelSpec(kind="fading", snr_db=5.0)

    def work(seed):
        rng = np.random.default_rng(seed)
        x = encode(rng.integers(0, 2, size=(4 + seed, rm.spec.N), dtype=np.uint8), rm.spec)
        out = []
        for r in (1, 2, 3):
            llrs = transmit_codeword_llrs(x, rm, TxPlan(L=176, t=3, r=r, mode="ir"), chan, rng)
            out += [llrs, sc_decode(llrs, rm.spec)]
        return out

    want = [work(seed) for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as pool:
            futures = [(seed, pool.submit(work, seed)) for _ in range(3) for seed in range(6)]
            got = [(seed, f.result(timeout=120)) for seed, f in futures]
    finally:
        sys.setswitchinterval(interval)
    for seed, arrays in got:
        assert all(same_bits(a, b) for a, b in zip(arrays, want[seed]))
