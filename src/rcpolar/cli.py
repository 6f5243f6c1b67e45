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


# Every config field: its type, then, unless any value of the type will do, a
# condition on the value and the message that names its failure.  JSON and
# flags feed the same fields; integers must be whole, and no field takes a
# boolean.
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_FIELDS = {
    "out": (str,),
    "seed": (int, lambda v: v >= 0, "must be >= 0"),
    "n": (int, lambda v: v >= 1, "must be an integer >= 1"),
    "k": (int, *_AT_LEAST_1),
    "p": (int, *_AT_LEAST_1),
    "q": (int, lambda v: v >= 0, "must be >= 0"),
    "base_len": (int, lambda v: v >= 2 and (v & (v - 1)) == 0, "must be a power of two >= 2"),
    "method": (str, lambda v: v in ("ga", "bec", "mc"), "must be one of ga, bec, mc"),
    "design_snr_db": (float,),
    "snr_db": (float,),
    "epsilon": (float, *_UNIT),
    "trials": (int, *_AT_LEAST_1),
    "channel": (str, lambda v: v in ("awgn", "fading", "bec"), "must be awgn, fading, or bec"),
    "modulation": (int, lambda v: v in (2, 16, 64), "must be 2, 16, or 64"),
    "sequence": (str,),
    "select_length": (int, *_AT_LEAST_1),
    "profile": (str,),
    "mode": (str, lambda v: v in ("cc", "ir"), "must be cc or ir"),
    "t": (int, *_AT_LEAST_1),
    "L": (int, *_AT_LEAST_1),
    "snr_start": (float,),
    "snr_stop": (float,),
    "snr_step": (float, lambda v: v > 0, "must be > 0"),
    "max_blocks": (int, *_AT_LEAST_1),
    "target_block_errors": (int, *_AT_LEAST_1),
    "batch_size": (int, *_AT_LEAST_1),
    "workers": (int, *_AT_LEAST_1),
    "shift_cc_bicm": (int, lambda v: v in (0, 1), "must be 0 or 1"),
}
_REQUIRED = object()


def _get(cfg: dict, fieldname: str, default=_REQUIRED):
    """Field ``fieldname`` of ``cfg``, converted to its type and checked; when
    the field is absent, ``default``, or an error if no default is given."""
    val = cfg.get(fieldname)
    if val is None:
        if default is _REQUIRED:
            raise ConfigError(fieldname, "is required")
        return default
    kind, *check = _FIELDS[fieldname]
    val = _convert(fieldname, kind, val)
    if check and not check[0](val):
        raise ConfigError(fieldname, check[1])
    return val


def _convert(fieldname: str, kind, val):
    """``val`` as a ``kind``: a whole number for int, a finite one for float,
    and never a boolean."""
    try:
        if isinstance(val, bool) or (kind is int and isinstance(val, float)
                                     and not val.is_integer()):
            raise TypeError
        val = kind(val)
        if kind is float and not math.isfinite(val):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        expected = "a finite number" if kind is float else kind.__name__
        raise ConfigError(fieldname, f"must be {expected}") from None
    return val


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
    seed = _get(cfg, "seed", None)
    return secrets.randbits(48) if seed is None else seed


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
    out = _get(cfg, "out")
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
    p, q = _get(cfg, "p", None), _get(cfg, "q", None)
    if p is None and q is None:
        return min(5, n), n - min(5, n)
    if p is None or q is None:
        raise ConfigError("p", "p and q must be given together")
    if p + q != n:
        raise ConfigError("p", f"p + q must equal n = {n}")
    return p, q


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_construct(cfg: dict) -> int:
    n = _get(cfg, "n")
    method = _get(cfg, "method")
    out = _output_path(cfg)
    N = 1 << n
    p, q = _split(cfg, n)
    # full rate, so profiles and genie runs cover every input position
    spec = PolarCodeSpec(n=n, k=N, info_set=tuple(range(1, N + 1)), split=(p, q))
    seq_name = _get(cfg, "sequence", None)
    select_len = _get(cfg, "select_length", None)
    mod = ModulationSpec(_get(cfg, "modulation", 2))
    rm = None
    if seq_name is not None:
        rm = RateMatcher(spec=spec, sequence=_load_sequence(seq_name, p), modulation=mod)
    elif select_len is not None:
        raise ConfigError("sequence", "select_length needs a puncturing sequence")
    seed = None
    if method == "ga":
        snr = _get(cfg, "design_snr_db")
        if select_len is not None:
            means = build_bicm_ga_means(spec, rm, select_len, snr)
        else:
            means = np.full(N, cons.design_mean_llr(snr))
        profile = cons.ga_evolve(spec, means)
    elif method == "bec":
        eps = _get(cfg, "epsilon")
        z = np.full(N, eps)
        if select_len is not None:   # a bit sent r times is erased with eps^r
            tm = build_tx_map(rm, TxPlan(L=select_len, t=1, r=1, mode="cc"))
            z = eps ** np.bincount(tm.emit_idx, minlength=N)
        profile = cons.bhattacharyya_bec(spec, z)
    else:
        seed = _resolve_seed(cfg)
        kind = _get(cfg, "channel", "awgn")
        chan = (ChannelSpec(kind="bec", epsilon=_get(cfg, "epsilon")) if kind == "bec"
                else ChannelSpec(kind=kind, snr_db=_get(cfg, "snr_db")))
        profile = cons.genie_monte_carlo(spec, chan, mod, rate_matcher=rm,
                                         trials=_get(cfg, "trials", 100_000), seed=seed,
                                         tx_length=select_len)
    with _writing(out), open(out, "w", encoding="utf-8") as fh:
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        profile.to_csv(fh)
    return 0


def cmd_puncture(cfg: dict) -> int:
    base_len = _get(cfg, "base_len")
    k = _get(cfg, "k")
    if k > base_len:
        raise ConfigError("k", "must lie in [1, base_len]")
    out = _output_path(cfg)
    p = base_len.bit_length() - 1
    eps = _get(cfg, "epsilon", None)
    design = (ErasureDesign(epsilon=eps) if eps is not None
              else GaussianDesign.from_snr_db(_get(cfg, "design_snr_db")))
    seq = ppa(base_code(p, k, design), design)
    for step, tied in seq.stats.ties:
        print(f"tie at step {step}: candidates {tied}", file=sys.stderr)
    with _writing(out):
        seq.save(out)
    return 0


def cmd_simulate(cfg: dict) -> int:
    n = _get(cfg, "n")
    k = _get(cfg, "k")
    if k > 1 << n:
        raise ConfigError("k", "must lie in [1, 2^n]")
    out = _output_path(cfg)
    p, q = _split(cfg, n)
    seq = _load_sequence(_get(cfg, "sequence", "reference32"), p)
    mod = ModulationSpec(_get(cfg, "modulation", 2))
    kind = _get(cfg, "channel", "awgn")
    if kind == "bec":
        raise ConfigError("channel", "must be awgn or fading")
    mode = _get(cfg, "mode", "cc")
    t = _get(cfg, "t", 1)
    L = _get(cfg, "L")
    seed = _resolve_seed(cfg)
    snrs = cfg.get("snrs")
    if snrs is None:
        start = _get(cfg, "snr_start")
        stop = _get(cfg, "snr_stop")
        step = _get(cfg, "snr_step")
        if stop < start:
            raise ConfigError("snr_stop", f"must be >= snr_start = {start}")
        count = int(round((stop - start) / step)) + 1
        snrs = [start + i * step for i in range(count)]
    if not isinstance(snrs, (list, tuple)) or not snrs:
        raise ConfigError("snrs", "must be a non-empty list of SNR values")
    snrs = tuple(_convert("snrs", float, s) for s in snrs)

    # information set: explicit file, or designed at select_length/design SNR
    profile_path = _get(cfg, "profile", None)
    shift_cc = _get(cfg, "shift_cc_bicm", 0) == 1
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
        design_snr = _get(cfg, "design_snr_db")
        select_len = _get(cfg, "select_length", L)
        rm = design_code(n, k, (p, q), seq, mod, select_len, design_snr, shift_cc_bicm=shift_cc)

    sweep_cfg = harq.SweepConfig(
        rate_matcher=rm, channel_kind=kind, snr_grid=snrs,
        L=L, t=t, mode=mode, seed=seed,
        max_blocks=_get(cfg, "max_blocks", 100_000),
        target_block_errors=_get(cfg, "target_block_errors", 100),
        batch_size=_get(cfg, "batch_size", 512),
        workers=_get(cfg, "workers", 1),
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


# each subcommand's function, help and fields; every field is a --<name> flag
_COMMANDS = {
    "construct": (cmd_construct, "write a bit-channel reliability profile CSV",
                  "n method design_snr_db snr_db epsilon trials channel modulation p q"
                  " sequence select_length"),
    "puncture": (cmd_puncture, "derive a progressive puncturing sequence",
                 "base_len k design_snr_db epsilon"),
    "simulate": (cmd_simulate, "run a BER/BLER/throughput sweep",
                 "n k p q sequence modulation channel mode t L snr_start snr_stop snr_step"
                 " design_snr_db select_length profile max_blocks target_block_errors"
                 " batch_size workers shift_cc_bicm"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rcpolar",
                                 description="rate-compatible polar codes and HARQ simulation")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, helptext, fields) in _COMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", help="JSON config file; flags override its fields")
        for f in ("seed", "out", *fields.split()):
            sp.add_argument("--" + f.replace("_", "-"))
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    overrides = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    try:
        cfg = load_config(ns.config, overrides)
        code = _COMMANDS[ns.command][0](cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure, not a config problem
        print(f"runtime error: {e}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
