"""Command-line entry point: construct / puncture / simulate.

Configuration comes from an optional JSON file (``--config``) overridden by
explicit flags; every run that draws random numbers echoes its master seed
into the output header so any published row can be regenerated.  Exit codes:
0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
from contextlib import contextmanager

import numpy as np

from . import construction as cons
from . import harq
from .construction import build_bicm_ga_means, design_code
from .channel import ChannelSpec, ModulationSpec
from .polar import PolarCodeSpec
from .puncturing import (
    ErasureDesign,
    GaussianDesign,
    PuncturingSequence,
    base_code,
    ppa,
    reference_base32_sequence,
)
from .rate_matching import RateMatcher, TxPlan, build_tx_map

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"config field '{fieldname}': {message}")
        self.fieldname = fieldname


def _require(cfg: dict, fieldname: str, kind, cond=None, what: str = ""):
    if fieldname not in cfg or cfg[fieldname] is None:
        raise ConfigError(fieldname, "is required")
    val = cfg[fieldname]
    try:
        if kind is int and isinstance(val, bool):
            raise TypeError
        val = kind(val)
        if kind is float and not math.isfinite(val):
            raise ValueError
    except (TypeError, ValueError):
        expected = "a finite number" if kind is float else kind.__name__
        raise ConfigError(fieldname, f"must be {expected}") from None
    if cond is not None and not cond(val):
        raise ConfigError(fieldname, what or "is out of range")
    return val


def _optional(cfg: dict, fieldname: str, kind, default=None, cond=None, what: str = ""):
    if fieldname not in cfg or cfg[fieldname] is None:
        return default
    return _require(cfg, fieldname, kind, cond, what)


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except FileNotFoundError:
            raise ConfigError("config", f"file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError("config", f"invalid JSON: {e}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config", "top level must be a JSON object")
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    return cfg


def dump_config(cfg: dict) -> str:
    """Canonical serialization; parsing it back reproduces the dict."""
    return json.dumps(cfg, sort_keys=True, indent=2) + "\n"


def _resolve_seed(cfg: dict) -> int:
    seed = _optional(cfg, "seed", int, cond=lambda v: v >= 0, what="must be >= 0")
    if seed is None:
        seed = secrets.randbits(48)
    return int(seed)


def _load_sequence(name: str, p: int) -> PuncturingSequence:
    """The named puncturing order; its base length must be 2^p."""
    if name == "reference32":
        seq = reference_base32_sequence()
    else:
        try:
            seq = PuncturingSequence.load(name)
        except (OSError, ValueError) as e:
            raise ConfigError("sequence", f"cannot read {name}: {e}") from None
    if seq.base_len != 1 << p:
        raise ConfigError("sequence", f"{name} has base length {seq.base_len}, "
                          f"which does not match 2^p = {1 << p}")
    return seq


def _output_path(cfg: dict) -> str:
    """The ``out`` path, checked before any computation: its directory must exist."""
    out = _require(cfg, "out", str)
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        raise ConfigError("out", f"directory {folder} does not exist")
    if os.path.isdir(out):
        raise ConfigError("out", f"{out} is a directory")
    return out


@contextmanager
def _writing(out: str):
    """Report a failed write of the output file as a bad ``out`` field."""
    try:
        yield
    except OSError as e:
        raise ConfigError("out", f"cannot write {out}: {e}") from None


def _split(cfg: dict, n: int) -> tuple[int, int]:
    p = _optional(cfg, "p", int)
    q = _optional(cfg, "q", int)
    if p is None and q is None:
        p = min(5, n)
        q = n - p
    elif p is None or q is None:
        raise ConfigError("p", "p and q must be given together")
    if p + q != n:
        raise ConfigError("p", f"p + q must equal n = {n}")
    if p < 1 or q < 0:
        raise ConfigError("p", "need p >= 1 and q >= 0")
    return p, q




# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_construct(cfg: dict) -> int:
    n = _require(cfg, "n", int, lambda v: v >= 1, "must be an integer >= 1")
    method = _require(cfg, "method", str, lambda v: v in ("ga", "bec", "mc"),
                      "must be one of ga, bec, mc")
    out = _output_path(cfg)
    N = 1 << n
    p, q = _split(cfg, n)
    # full rate, so profiles and genie runs cover every input position
    spec = PolarCodeSpec(n=n, k=N, info_set=tuple(range(1, N + 1)), split=(p, q))
    seq_name = _optional(cfg, "sequence", str)
    select_len = _optional(cfg, "select_length", int, cond=lambda v: v >= 1,
                           what="must be >= 1")
    mod = ModulationSpec(_optional(cfg, "modulation", int, default=2,
                                   cond=lambda v: v in (2, 16, 64),
                                   what="must be 2, 16, or 64"))
    rm = None
    if seq_name is not None:
        rm = RateMatcher(spec=spec, sequence=_load_sequence(seq_name, p), modulation=mod)
    elif select_len is not None:
        raise ConfigError("sequence", "select_length needs a puncturing sequence")
    seed = None
    if method == "ga":
        snr = _require(cfg, "design_snr_db", float)
        if select_len is not None:
            means = build_bicm_ga_means(spec, rm, select_len, snr)
        else:
            means = np.full(N, cons.design_mean_llr(snr))
        profile = cons.ga_evolve(spec, means)
    elif method == "bec":
        eps = _require(cfg, "epsilon", float, lambda v: 0.0 <= v <= 1.0,
                       "must lie in [0, 1]")
        z = np.full(N, eps)
        if select_len is not None:
            tm = build_tx_map(rm, TxPlan(L=select_len, t=1, r=1, mode="cc"))
            z = np.ones(N)
            z[np.unique(tm.emit_idx)] = eps
        profile = cons.bhattacharyya_bec(spec, z)
    else:
        seed = _resolve_seed(cfg)
        snr = _require(cfg, "snr_db", float)
        trials = _optional(cfg, "trials", int, default=100_000,
                           cond=lambda v: v >= 1, what="must be >= 1")
        kind = _optional(cfg, "channel", str, default="awgn",
                         cond=lambda v: v in ("awgn", "fading", "bec"),
                         what="must be awgn, fading, or bec")
        chan = ChannelSpec(kind=kind, snr_db=snr) if kind != "bec" else ChannelSpec(
            kind="bec", epsilon=_require(cfg, "epsilon", float,
                                         lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"))
        profile = cons.genie_monte_carlo(
            spec, chan, mod, rate_matcher=rm,
            trials=trials, seed=seed, tx_length=select_len)
    with _writing(out), open(out, "w", encoding="utf-8") as fh:
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        profile.to_csv(fh)
    return 0


def cmd_puncture(cfg: dict) -> int:
    base_len = _require(cfg, "base_len", int,
                        lambda v: v >= 2 and (v & (v - 1)) == 0,
                        "must be a power of two >= 2")
    k = _require(cfg, "k", int, lambda v: 1 <= v <= base_len,
                 "must lie in [1, base_len]")
    out = _output_path(cfg)
    p = base_len.bit_length() - 1
    eps = _optional(cfg, "epsilon", float, cond=lambda v: 0.0 <= v <= 1.0,
                    what="must lie in [0, 1]")
    design = (ErasureDesign(epsilon=eps) if eps is not None
              else GaussianDesign.from_snr_db(_require(cfg, "design_snr_db", float)))
    seq = ppa(base_code(p, k, design), design)
    for step, tied in seq.stats.ties:
        print(f"tie at step {step}: candidates {tied}", file=sys.stderr)
    with _writing(out):
        seq.save(out)
    return 0


def cmd_simulate(cfg: dict) -> int:
    n = _require(cfg, "n", int, lambda v: v >= 1, "must be an integer >= 1")
    k = _require(cfg, "k", int, lambda v: 1 <= v <= (1 << n),
                 "must lie in [1, 2^n]")
    out = _output_path(cfg)
    p, q = _split(cfg, n)
    seq = _load_sequence(_optional(cfg, "sequence", str, default="reference32"), p)
    mod = ModulationSpec(_optional(cfg, "modulation", int, default=2,
                                   cond=lambda v: v in (2, 16, 64),
                                   what="must be 2, 16, or 64"))
    kind = _optional(cfg, "channel", str, default="awgn",
                     cond=lambda v: v in ("awgn", "fading"),
                     what="must be awgn or fading")
    mode = _optional(cfg, "mode", str, default="cc",
                     cond=lambda v: v in ("cc", "ir"), what="must be cc or ir")
    t = _optional(cfg, "t", int, default=1, cond=lambda v: v >= 1, what="must be >= 1")
    L = _require(cfg, "L", int, lambda v: v >= 1, "must be >= 1")
    seed = _resolve_seed(cfg)
    snrs = cfg.get("snrs")
    if snrs is None:
        start = _require(cfg, "snr_start", float)
        stop = _require(cfg, "snr_stop", float)
        step = _require(cfg, "snr_step", float, lambda v: v > 0, "must be > 0")
        if stop < start:
            raise ConfigError("snr_stop", f"must be >= snr_start = {start}")
        count = int(round((stop - start) / step)) + 1
        snrs = [start + i * step for i in range(count)]
    if not isinstance(snrs, (list, tuple)) or not snrs:
        raise ConfigError("snrs", "must be a non-empty list of SNR values")
    try:
        snrs = tuple(float(s) for s in snrs)
        if not all(map(math.isfinite, snrs)):
            raise ValueError
    except (TypeError, ValueError):
        raise ConfigError("snrs", f"must be a list of finite numbers, got {snrs!r}") from None

    # information set: explicit file, or designed at select_length/design SNR
    profile_path = _optional(cfg, "profile", str)
    shift_cc = _optional(cfg, "shift_cc_bicm", int, default=0, cond=lambda v: v in (0, 1),
                         what="must be 0 or 1") == 1
    if profile_path is not None:
        try:
            profile = cons.ReliabilityProfile.from_csv(profile_path)
        except (OSError, ValueError) as e:
            raise ConfigError("profile", f"cannot read {profile_path}: {e}") from None
        if len(profile) != (1 << n):
            raise ConfigError("profile", f"profile has {len(profile)} rows, need {1 << n}")
        spec = PolarCodeSpec(n=n, k=k, info_set=cons.select_information_set(profile, k),
                             split=(p, q))
        rm = RateMatcher(spec=spec, sequence=seq, modulation=mod, shift_cc_bicm=shift_cc)
    else:
        design_snr = _require(cfg, "design_snr_db", float)
        select_len = _optional(cfg, "select_length", int, default=L,
                               cond=lambda v: v >= 1, what="must be >= 1")
        rm = design_code(n, k, (p, q), seq, mod, select_len, design_snr, shift_cc_bicm=shift_cc)

    sweep_cfg = harq.SweepConfig(
        rate_matcher=rm, channel_kind=kind, snr_grid=snrs,
        L=L, t=t, mode=mode, seed=seed,
        max_blocks=_optional(cfg, "max_blocks", int, default=100_000,
                             cond=lambda v: v >= 1, what="must be >= 1"),
        target_block_errors=_optional(cfg, "target_block_errors", int, default=100,
                                      cond=lambda v: v >= 1, what="must be >= 1"),
        batch_size=_optional(cfg, "batch_size", int, default=512,
                             cond=lambda v: v >= 1, what="must be >= 1"),
        workers=_optional(cfg, "workers", int, default=1,
                          cond=lambda v: v >= 1, what="must be >= 1"),
    )
    results = harq.sweep(sweep_cfg)
    with _writing(out):
        harq.write_results_csv(results, out, header_comments=(
            f"seed={seed}",
            f"n={n} k={k} p={p} q={q} L={L} t={t} mode={mode} "
            f"modulation={mod.order} channel={kind}",
        ))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file; flags override its fields")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="output file path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rcpolar",
                                 description="rate-compatible polar codes and HARQ simulation")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="write a bit-channel reliability profile CSV")
    _add_common(c)
    c.add_argument("--n", type=int)
    c.add_argument("--method", choices=("ga", "bec", "mc"))
    c.add_argument("--design-snr-db", dest="design_snr_db", type=float)
    c.add_argument("--snr-db", dest="snr_db", type=float)
    c.add_argument("--epsilon", type=float)
    c.add_argument("--trials", type=int)
    c.add_argument("--channel", choices=("awgn", "fading", "bec"))
    c.add_argument("--modulation", type=int)
    c.add_argument("--p", type=int)
    c.add_argument("--q", type=int)
    c.add_argument("--sequence")
    c.add_argument("--select-length", dest="select_length", type=int)

    d = sub.add_parser("puncture", help="derive a progressive puncturing sequence")
    _add_common(d)
    d.add_argument("--base-len", dest="base_len", type=int)
    d.add_argument("--k", type=int)
    d.add_argument("--design-snr-db", dest="design_snr_db", type=float)
    d.add_argument("--epsilon", type=float)

    s = sub.add_parser("simulate", help="run a BER/BLER/throughput sweep")
    _add_common(s)
    s.add_argument("--n", type=int)
    s.add_argument("--k", type=int)
    s.add_argument("--p", type=int)
    s.add_argument("--q", type=int)
    s.add_argument("--sequence")
    s.add_argument("--modulation", type=int)
    s.add_argument("--channel", choices=("awgn", "fading"))
    s.add_argument("--mode", choices=("cc", "ir"))
    s.add_argument("--t", type=int)
    s.add_argument("--L", type=int)
    s.add_argument("--snr-start", dest="snr_start", type=float)
    s.add_argument("--snr-stop", dest="snr_stop", type=float)
    s.add_argument("--snr-step", dest="snr_step", type=float)
    s.add_argument("--design-snr-db", dest="design_snr_db", type=float)
    s.add_argument("--select-length", dest="select_length", type=int)
    s.add_argument("--profile")
    s.add_argument("--max-blocks", dest="max_blocks", type=int)
    s.add_argument("--target-block-errors", dest="target_block_errors", type=int)
    s.add_argument("--batch-size", dest="batch_size", type=int)
    s.add_argument("--workers", type=int)
    s.add_argument("--shift-cc-bicm", dest="shift_cc_bicm", type=int)

    return ap


_COMMANDS = {"construct": cmd_construct, "puncture": cmd_puncture, "simulate": cmd_simulate}


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    overrides = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    try:
        cfg = load_config(ns.config, overrides)
        code = _COMMANDS[ns.command](cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure, not a config problem
        print(f"runtime error: {e}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
