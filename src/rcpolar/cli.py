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
from .rate_matching import RateMatcher, TxPlan, de_rate_match

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"config field '{fieldname}': {message}")
        self.fieldname = fieldname


# upper bounds of the size fields, so that a typo can neither allocate arrays
# of 2^n entries nor fork thousands of processes
N_MAX = 16
WORKERS_MAX = 64
L_MAX = 1 << 20             # bits in one transmission: L, select_length
BASE_LEN_MAX = 1 << 10      # a PPA step builds about base_len^2 codes
BATCH_CELLS_MAX = 1 << 25   # batch_size * max(2^n, L): one batch's (B, N) and (B, L) arrays
MC_LEN_MAX = 1 << 12        # 2^n and select_length under mc: a genie batch has 8,192 rows
DB_MAX = 300                # |SNR| in dB; 10^(x/10) overflows a float past 3,083 dB

# Every config field: its type, then, unless any value of the type will do, a
# condition on the value and the message that names its failure.  JSON and
# flags feed the same fields; integers must be whole, and no field takes a
# boolean.
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_DB = (lambda v: abs(v) <= DB_MAX, f"must lie in [-{DB_MAX}, {DB_MAX}] dB")
_LENGTH = (lambda v: 1 <= v <= L_MAX, f"must be an integer in [1, {L_MAX}]")
_FIELDS = {
    "out": (str,),
    "seed": (int, lambda v: v >= 0, "must be >= 0"),
    "n": (int, lambda v: 1 <= v <= N_MAX, f"must be an integer in [1, {N_MAX}]"),
    "k": (int, *_AT_LEAST_1),
    "base_len": (int, lambda v: 2 <= v <= BASE_LEN_MAX and (v & (v - 1)) == 0,
                 f"must be a power of two in [2, {BASE_LEN_MAX}]"),
    "method": (str, lambda v: v in ("ga", "bec", "mc"), "must be one of ga, bec, mc"),
    "design_snr_db": (float, *_DB),
    "snr_db": (float, *_DB),
    "epsilon": (float, *_UNIT),
    "trials": (int, *_AT_LEAST_1),
    "channel": (str, lambda v: v in ("awgn", "fading", "bec"), "must be awgn, fading, or bec"),
    "modulation": (int, lambda v: v in (2, 16, 64), "must be 2, 16, or 64"),
    "sequence": (str,),
    "select_length": (int, *_LENGTH),
    "profile": (str,),
    "mode": (str, lambda v: v in ("cc", "ir"), "must be cc or ir"),
    "t": (int, *_AT_LEAST_1),
    "L": (int, *_LENGTH),
    "snr_start": (float, *_DB),
    "snr_stop": (float, *_DB),
    "snrs": (float, *_DB),   # each entry of the list
    "snr_step": (float, lambda v: v > 0, "must be > 0"),
    "max_blocks": (int, *_AT_LEAST_1),
    "target_block_errors": (int, *_AT_LEAST_1),
    "batch_size": (int, *_AT_LEAST_1),
    "workers": (int, lambda v: 1 <= v <= WORKERS_MAX, f"must lie in [1, {WORKERS_MAX}]"),
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
    return _convert(fieldname, val)


def _convert(fieldname: str, val):
    """``val`` as the type of field ``fieldname``, checked: a whole number for
    int, a finite one for float, text for str, and never a boolean."""
    kind, *check = _FIELDS[fieldname]
    try:
        if (isinstance(val, bool) or (kind is str and not isinstance(val, str))
                or (kind is int and isinstance(val, float) and not val.is_integer())):
            raise TypeError
        val = kind(val)
        if kind is float and not math.isfinite(val):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        expected = "a finite number" if kind is float else kind.__name__
        raise ConfigError(fieldname, f"must be {expected}") from None
    if check and not check[0](val):
        raise ConfigError(fieldname, check[1])
    return val


def _read(fieldname: str, path: str) -> str:
    """The file at ``path`` read as UTF-8 text; a failure is a bad ``fieldname``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(fieldname, f"cannot read {path}: {e}") from None


def _write(out: str, text: str) -> None:
    """Write ``text`` to the ``out`` file as UTF-8; a failed write is a bad ``out``."""
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError("out", f"cannot write {out}: {e}") from None


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = {}
    if path:
        try:
            cfg = json.loads(_read("config", path))
        except json.JSONDecodeError as e:
            raise ConfigError("config", f"invalid JSON: {e}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config", "top level must be a JSON object")
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    return cfg


def _resolve_seed(cfg: dict) -> int:
    seed = _get(cfg, "seed", None)
    return secrets.randbits(48) if seed is None else seed


def _load_sequence(name: str, n: int) -> tuple[PuncturingSequence, tuple[int, int]]:
    """The named puncturing order and the split of the length-2^n code that
    its base length fixes."""
    if name == "reference32":
        seq = reference_base32_sequence()
    else:
        text = _read("sequence", name)
        try:
            seq = PuncturingSequence.from_text(text)
        except ValueError as e:
            raise ConfigError("sequence", f"cannot read {name}: {e}") from None
    try:
        return seq, seq.split(n)
    except ValueError as e:
        raise ConfigError("sequence", f"{name}: {e}") from None


def _output_path(cfg: dict) -> str:
    """The ``out`` path, checked before any computation: its directory must exist."""
    out = _get(cfg, "out")
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        raise ConfigError("out", f"directory {folder} does not exist")
    if os.path.isdir(out):
        raise ConfigError("out", f"{out} is a directory")
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_construct(cfg: dict) -> int:
    n = _get(cfg, "n")
    method = _get(cfg, "method")
    out = _output_path(cfg)
    N = 1 << n
    seq_name = _get(cfg, "sequence", None)
    mod = ModulationSpec(_get(cfg, "modulation", 2))
    if mod.is_qam and seq_name is None:
        raise ConfigError("modulation", "must be 2 without a puncturing sequence")
    kind = _get(cfg, "channel", "awgn")
    if mod.is_qam and "bec" in (method, kind):
        raise ConfigError("modulation", "must be 2 on the erasure channel")
    if seq_name is None and _get(cfg, "select_length", None) is not None:
        raise ConfigError("sequence", "select_length needs a puncturing sequence")
    # without a sequence, the natural-order matcher: its map at L = N is the identity
    seq, split = ((PuncturingSequence(base_len=N, order=range(N - 1, -1, -1)), (n, 0))
                  if seq_name is None else _load_sequence(seq_name, n))
    # full rate, so profiles and genie runs cover every input position
    spec = PolarCodeSpec(n=n, k=N, info_set=tuple(range(1, N + 1)), split=split)
    rm = RateMatcher(spec=spec, sequence=seq, modulation=mod)
    L = _get(cfg, "select_length", N)
    if method == "mc" and max(N, L) > MC_LEN_MAX:
        raise ConfigError("n" if N > MC_LEN_MAX else "select_length",
                          f"2^n and select_length must be <= {MC_LEN_MAX} under method mc")
    seed = None
    if method == "ga":
        means = build_bicm_ga_means(spec, rm, L, _get(cfg, "design_snr_db"))
        profile = cons.ga_evolve(spec, means)
    elif method == "bec":   # a bit sent r times is erased with eps^r
        z = _get(cfg, "epsilon") ** de_rate_match(np.ones(L), rm, TxPlan(L=L, t=1, r=1, mode="cc"))
        profile = cons.bhattacharyya_bec(spec, z)
    else:
        seed = _resolve_seed(cfg)
        chan = (ChannelSpec(kind="bec", epsilon=_get(cfg, "epsilon")) if kind == "bec"
                else ChannelSpec(kind=kind, snr_db=_get(cfg, "snr_db")))
        profile = cons.genie_monte_carlo(rm, chan, L, _get(cfg, "trials", 100_000), seed)
    _write(out, ("" if seed is None else f"# seed={seed}\n") + profile.to_csv())
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
    _write(out, seq.to_text())
    return 0


SNR_POINTS_MAX = 10_000   # points in one simulate SNR grid


def _snr_grid(start: float, stop: float, step: float) -> list[float]:
    """``start + i * step`` for every whole step that does not pass ``stop``;
    more than ``SNR_POINTS_MAX`` points are refused before any is made."""
    if stop < start:
        raise ConfigError("snr_stop", f"must be >= snr_start = {start}")
    # whole steps to the stop, allowing for rounding in the quotient; a range
    # too wide for a float gives inf, which the cap also refuses
    steps = (stop - start) / step + 1e-9
    if not steps < SNR_POINTS_MAX:
        raise ConfigError("snr_step", f"gives more than {SNR_POINTS_MAX} SNR points "
                                      f"from {start} to {stop}")
    return [start + i * step for i in range(math.floor(steps) + 1)]


def cmd_simulate(cfg: dict) -> int:
    n = _get(cfg, "n")
    k = _get(cfg, "k")
    if k > 1 << n:
        raise ConfigError("k", "must lie in [1, 2^n]")
    out = _output_path(cfg)
    seq, (p, q) = _load_sequence(_get(cfg, "sequence", "reference32"), n)
    mod = ModulationSpec(_get(cfg, "modulation", 2))
    kind = _get(cfg, "channel", "awgn")
    if kind == "bec":
        raise ConfigError("channel", "must be awgn or fading")
    mode = _get(cfg, "mode", "cc")
    t = _get(cfg, "t", 1)
    L = _get(cfg, "L")
    batch_size = _get(cfg, "batch_size", 512)
    if batch_size * max(1 << n, L) > BATCH_CELLS_MAX:
        raise ConfigError("batch_size", f"times max(2^n, L) must be <= {BATCH_CELLS_MAX}")
    seed = _resolve_seed(cfg)
    snrs = cfg.get("snrs")
    if snrs is None:
        snrs = _snr_grid(_get(cfg, "snr_start"), _get(cfg, "snr_stop"), _get(cfg, "snr_step"))
    if not isinstance(snrs, (list, tuple)) or not snrs:
        raise ConfigError("snrs", "must be a non-empty list of SNR values")
    snrs = tuple(_convert("snrs", s) for s in snrs)

    # information set: explicit file, or designed at select_length/design SNR
    profile_path = _get(cfg, "profile", None)
    if profile_path is not None:
        text = _read("profile", profile_path)
        try:
            profile = cons.ReliabilityProfile.from_csv(text)
        except ValueError as e:
            raise ConfigError("profile", f"cannot read {profile_path}: {e}") from None
        if len(profile) != (1 << n):
            raise ConfigError("profile", f"profile has {len(profile)} rows, need {1 << n}")
        spec = PolarCodeSpec(n=n, k=k, info_set=cons.select_information_set(profile, k),
                             split=(p, q))
    else:
        spec = design_code(n, k, seq, mod, _get(cfg, "select_length", L),
                           _get(cfg, "design_snr_db")).spec
    rm = RateMatcher(spec=spec, sequence=seq, modulation=mod,
                     shift_cc_bicm=_get(cfg, "shift_cc_bicm", 0) == 1)

    sweep_cfg = harq.SweepConfig(
        rate_matcher=rm, channel_kind=kind, snr_grid=snrs,
        L=L, t=t, mode=mode, seed=seed,
        max_blocks=_get(cfg, "max_blocks", 100_000),
        target_block_errors=_get(cfg, "target_block_errors", 100),
        batch_size=batch_size,
        workers=_get(cfg, "workers", 1),
    )
    results = harq.sweep(sweep_cfg)
    _write(out, harq.results_csv(results, header_comments=(
        f"seed={seed}",
        f"n={n} k={k} p={p} q={q} L={L} t={t} mode={mode} modulation={mod.order} channel={kind}",
    )))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# each subcommand's function, help and fields; every field is a --<name> flag
_COMMANDS = {
    "construct": (cmd_construct, "write a bit-channel reliability profile CSV",
                  "n method design_snr_db snr_db epsilon trials channel modulation sequence"
                  " select_length"),
    "puncture": (cmd_puncture, "derive a progressive puncturing sequence",
                 "base_len k design_snr_db epsilon"),
    "simulate": (cmd_simulate, "run a BER/BLER/throughput sweep",
                 "n k sequence modulation channel mode t L snr_start snr_stop snr_step"
                 " design_snr_db select_length profile max_blocks target_block_errors"
                 " batch_size workers shift_cc_bicm"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rcpolar",
                                 description="rate-compatible polar codes and HARQ simulation")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, helptext, fields) in _COMMANDS.items():
        # no abbreviated flags: a removed one, such as --p, must not match --profile
        sp = sub.add_parser(name, help=helptext, allow_abbrev=False)
        sp.add_argument("--config", help="JSON config file; flags override its fields")
        for f in ("seed", "out", *fields.split()):
            sp.add_argument("--" + f.replace("_", "-"))
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    overrides = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    cmd, _, fields = _COMMANDS[ns.command]
    accepted = {"seed", "out", *fields.split()} | ({"snrs"} if ns.command == "simulate" else set())
    try:
        cfg = load_config(ns.config, overrides)
        for key in cfg:
            if key not in accepted:
                raise ConfigError(key, f"is not taken by {ns.command}")
        code = cmd(cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure, not a config problem
        print(f"runtime error: {e}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
