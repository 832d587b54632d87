"""Deterministic command-line front end.

Subcommands produce CSV/JSON data products (criticality maps, phase
surfaces, exponent fits, verification summaries).  Identical configuration
plus seed yields byte-identical artifacts; every artifact is written to a
temporary file and atomically renamed, so a failing run never leaves a
partial file behind.  Failures print machine-readable JSON on stderr and
exit nonzero (2 for usage errors, 1 for runtime errors).

Flags may also be supplied through a JSON config file (``--config``); flags
given explicitly on the command line override file values, and unknown file
keys are rejected.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from . import __version__
from .errors import XYBerryError
from .lattice import LatticeParams, effective_xy, mott_regime_check
from .model import (
    CRITICALITY_TAGS,
    DEFAULT_CRITICAL_TOL,
    Criticality,
    XYParams,
    classify_criticality,
    ground_energy,
)
from .observables import magnetization_analytic
from .oracle import (
    LoopDiscretization,
    discrete_loop_phase,
    ed_ground_energy,
    magnetization_ed,
    sz_cumulants,
)
from .phases import (
    circular_distance,
    ground_phase,
    phase_surface,
    relative_phase_thermo_arrays,
    write_phase_surface_csv,
)
from .scaling import (
    DEFAULT_FIT_WINDOW,
    SweepSpec,
    fit_exponent,
    gap_map,
    gap_sweep,
    step_detect,
    write_step_trace_csv,
)

__all__ = ["RunConfig", "parse_config", "execute", "main"]

COMMANDS = ("phase-surface", "gap-map", "verify", "scaling-fit", "step-trace", "lattice-map")

# Verification thresholds: discrete-vs-closed-form loop phase, energy and
# magnetization against the dense oracle.  The identity row is a ratio to a
# derived bound (see ``_identity_ratio``), so it passes below 1.
VERIFY_PHASE_TOL = 1e-3
VERIFY_ENERGY_TOL = 1e-8
VERIFY_MAGNETIZATION_TOL = 1e-8
VERIFY_IDENTITY_RATIO = 1.0

# Energy and magnetization discrepancies below this are rounding, so the
# summary names no point for them.
VERIFY_LOCATION_FLOOR = 1e-12

# Largest point count one min:max:step range, or verify's --draws, may ask
# for; checked before the points are allocated.
MAX_RANGE_POINTS = 1_000_000


class UsageError(XYBerryError):
    """Bad flags, bad config file, or inconsistent values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of printing + sys.exit
        raise UsageError(message)


@dataclass
class RunConfig:
    """A fully validated invocation: command, parameters, output, seed."""

    command: str
    parameters: dict = field(default_factory=dict)
    output_path: Optional[str] = None
    seed: int = 0


def parse_range(text: str) -> np.ndarray:
    """Parse ``min:max:step`` into grid values min + i*step.

    Inclusive of min, exclusive of max beyond floating tolerance: the point
    count is floor((max - min)/step + 1e-9), which makes grids reproducible
    regardless of rounding in max - min.  At most MAX_RANGE_POINTS points.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be min:max:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"non-numeric range component in {text!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise UsageError(f"range components must be finite, got {text!r}")
    if step <= 0:
        raise UsageError(f"range step must be positive, got {step}")
    if hi < lo:
        raise UsageError(f"range must have max >= min, got {text!r}")
    span = (hi - lo) / step
    if span > MAX_RANGE_POINTS:
        raise UsageError(f"range {text!r} has more than {MAX_RANGE_POINTS} points")
    count = int(math.floor(span + 1e-9))
    count = max(count, 1)
    return lo + step * np.arange(count)


def _parse_number(text: str, kind, flag: str):
    """Convert one flag value with ``kind`` (int or float); it must be finite."""
    try:
        value = kind(text)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise UsageError(f"--{flag} must be {expected}, got {text!r}") from exc
    if not math.isfinite(value):
        raise UsageError(f"--{flag} must be finite, got {text!r}")
    return value


def _parse_list(text: str, kind, flag: str) -> list:
    """Comma-separated values of one flag, each as ``_parse_number``; at least one."""
    values = [_parse_number(p, kind, flag) for p in text.split(",") if p != ""]
    if not values:
        raise UsageError(f"--{flag} needs at least one value, got {text!r}")
    return values


def _parse_sites(text: str) -> list[int]:
    ns = _parse_list(text, int, "n")
    for n in ns:
        if n < 4 or n % 2 != 0:
            raise UsageError(
                f"n_sites must be even and >= 4 (momenta pair as (k, -k)), got {n}"
            )
    return ns


def _parse_one_site(text: str) -> int:
    """The one chain length of a single-N command; a list is a usage error."""
    ns = _parse_sites(text)
    if len(ns) != 1:
        raise UsageError(f"--n takes one chain length on this command, got {text!r}")
    return ns[0]


_FLAG_SPECS = {
    "phase-surface": {
        "lambda": dict(metavar="MIN:MAX:STEP", help="field grid"),
        "gamma": dict(metavar="MIN:MAX:STEP", help="anisotropy grid"),
        "n": dict(help="chain length for the finite-size phases (default 1000)"),
        "critical-tol": dict(help="manifold membership tolerance (default 1e-9)"),
        "out": dict(help="output CSV path"),
    },
    "gap-map": {
        "lambda": dict(metavar="MIN:MAX:STEP", help="field grid"),
        "gamma": dict(metavar="MIN:MAX:STEP", help="anisotropy grid"),
        "n": dict(help="chain length; omit for the continuum minimum"),
        "critical-tol": dict(help="manifold membership tolerance (default 1e-9)"),
        "out": dict(help="output CSV path"),
    },
    "verify": {
        "n": dict(metavar="N[,N...]", help="even chain lengths (default 4,6)"),
        "steps": dict(help="loop discretization steps (default 2000)"),
        "draws": dict(help="random parameter draws (default 10)"),
        "seed": dict(help="RNG seed for the draws (default 0)"),
        "out": dict(help="summary JSON path (optional; summary always printed)"),
    },
    "scaling-fit": {
        "window": dict(metavar="LO:HI", help="fit window in |g - g_c| (default 1e-3:1e-1)"),
        "samples": dict(help="sweep samples (default 24)"),
        "n": dict(help="chain length; omit for continuum sweeps"),
        "out": dict(help="fit JSON path (optional; JSON always printed)"),
    },
    "step-trace": {
        "gamma": dict(metavar="G[,G...]", help="anisotropy values to trace"),
        "lambda": dict(metavar="MIN:MAX:STEP", help="field grid (default 0:2:0.005)"),
        "out": dict(help="output CSV path"),
    },
    "lattice-map": {
        "input": dict(help="lattice parameters JSON file"),
        "threshold": dict(help="Mott-regime threshold (default 0.1)"),
        "out": dict(help="output JSON path (optional; JSON always printed)"),
    },
}


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="xyberry", description=__doc__)
    parser.add_argument("--version", action="version", version=f"xyberry {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, flags in _FLAG_SPECS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="JSON file of flag values")
        if command == "scaling-fit":
            p.add_argument("approach", choices=("ising", "xx"), nargs="?", default=None)
        for name, kw in flags.items():
            p.add_argument(f"--{name}", dest=name.replace("-", "_"), default=None, **kw)
    return parser


def _merge_config(args: argparse.Namespace, command: str) -> dict:
    """Fill unset flags from the JSON config file; explicit flags win."""
    values = {k.replace("-", "_"): None for k in _FLAG_SPECS[command]}
    if command == "scaling-fit":
        values["approach"] = None
    for key, val in vars(args).items():
        if isinstance(val, list):  # argparse's value for "--flag=--"
            raise UsageError(f"--{key.replace('_', '-')} needs a value")
    for key in values:
        values[key] = getattr(args, key, None)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"unreadable config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        for key, val in file_values.items():
            dest = key.replace("-", "_")
            if dest not in values:
                raise UsageError(f"unknown config key {key!r} for {command}")
            if values[dest] is None:
                values[dest] = str(val) if not isinstance(val, str) else val
    return values


def parse_config(argv=None) -> RunConfig:
    """Parse flags (and optional config file) into a validated RunConfig."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError(f"a command is required: one of {', '.join(COMMANDS)}")
    command = args.command
    raw = _merge_config(args, command)

    params: dict = {}
    out = raw.get("out")
    seed = 0
    if command in ("phase-surface", "gap-map"):
        if raw["lambda"] is None or raw["gamma"] is None:
            raise UsageError(f"{command} needs --lambda and --gamma ranges")
        params["lam_values"] = parse_range(raw["lambda"])
        params["gamma_values"] = parse_range(raw["gamma"])
        params["tol"] = (
            DEFAULT_CRITICAL_TOL
            if raw["critical_tol"] is None
            else _parse_number(raw["critical_tol"], float, "critical-tol")
        )
        if params["tol"] <= 0:
            raise UsageError("critical tolerance must be positive")
        if command == "phase-surface":
            params["n_sites"] = _parse_one_site(raw["n"] or "1000")
        else:
            params["n_sites"] = None if raw["n"] is None else _parse_one_site(raw["n"])
        if out is None:
            raise UsageError(f"{command} needs --out")
    elif command == "verify":
        params["n_sites"] = _parse_sites(raw["n"] or "4,6")
        params["steps"] = _parse_number(raw["steps"] or "2000", int, "steps")
        params["draws"] = _parse_number(raw["draws"] or "10", int, "draws")
        if params["steps"] < 8:
            raise UsageError("steps must be >= 8")
        if not 1 <= params["draws"] <= MAX_RANGE_POINTS:
            raise UsageError(f"draws must be between 1 and {MAX_RANGE_POINTS}")
        seed = _parse_number(raw["seed"] or "0", int, "seed")
        if seed < 0:
            raise UsageError("seed must be >= 0")
    elif command == "scaling-fit":
        if raw["approach"] is None:
            raise UsageError("scaling-fit needs an approach: ising or xx")
        params["approach"] = raw["approach"]
        window = raw["window"] or f"{DEFAULT_FIT_WINDOW[0]}:{DEFAULT_FIT_WINDOW[1]}"
        parts = window.split(":")
        if len(parts) != 2:
            raise UsageError(f"window must be LO:HI, got {window!r}")
        try:
            params["window"] = (float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise UsageError(f"non-numeric window {window!r}") from exc
        if not 0 < params["window"][0] < params["window"][1] < math.inf:
            raise UsageError("window must satisfy 0 < LO < HI < inf")
        params["samples"] = _parse_number(raw["samples"] or "24", int, "samples")
        if params["samples"] < 8:
            raise UsageError("samples must be >= 8")
        params["n_sites"] = None if raw["n"] is None else _parse_one_site(raw["n"])
    elif command == "step-trace":
        if raw["gamma"] is None:
            raise UsageError("step-trace needs --gamma values")
        params["gammas"] = _parse_list(raw["gamma"], float, "gamma")
        if any(g == 0.0 for g in params["gammas"]):
            raise UsageError("step-trace gamma values must be nonzero (XX line is critical)")
        params["lam_values"] = parse_range(raw["lambda"] or "0:2:0.005")
        if out is None:
            raise UsageError("step-trace needs --out")
    elif command == "lattice-map":
        if raw["input"] is None:
            raise UsageError("lattice-map needs --input JSON")
        params["input"] = raw["input"]
        params["threshold"] = _parse_number(raw["threshold"] or "0.1", float, "threshold")
        if params["threshold"] <= 0:
            raise UsageError("threshold must be positive")
    return RunConfig(command=command, parameters=params, output_path=out, seed=seed)


def _atomic_write(path: str, write) -> None:
    """Create ``path`` atomically: ``write(tmp)`` fills a fresh temporary file.

    The temporary file takes a new random name in the target directory and
    is created exclusively, so concurrent runs never share it.  It is
    created with mode 0o666 and the process umask alone trims that, so the
    artifact gets the usual mode without the umask ever being changed.  It
    is removed if anything fails, so a failed run leaves neither a partial
    artifact nor a stray file.
    """
    stem = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.")
    for _ in range(100):
        tmp = f"{stem}{os.urandom(6).hex()}.tmp"
        try:
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            break
        except FileExistsError:
            continue
    else:
        raise FileExistsError(f"no free temporary name beside {path}")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _text_writer(text: str):
    """A writer for ``_atomic_write`` that stores ``text`` (UTF-8, LF)."""

    def write(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    return write


def _run_phase_surface(cfg: RunConfig) -> int:
    p = cfg.parameters
    rows = phase_surface(p["lam_values"], p["gamma_values"], p["n_sites"], p["tol"])
    _atomic_write(cfg.output_path, lambda tmp: write_phase_surface_csv(rows, tmp))
    flagged = sum(1 for r in rows if r[5] == "critical")
    print(f"wrote {cfg.output_path}: {len(rows)} rows ({flagged} flagged critical)")
    return 0


GAP_MAP_HEADER = "lambda,gamma,min_gap,tag,distance,status"

# One %-format per gap-map row for each code of classify_criticality_arrays,
# with the tag and status text baked in.
_GAP_MAP_ROWS = tuple(
    f"%.12g,%.12g,%.12g,{tag.value},%.12g,"
    + ("ok" if tag is Criticality.NON_CRITICAL else "critical")
    for tag in CRITICALITY_TAGS
)


def _run_gap_map(cfg: RunConfig) -> int:
    p = cfg.parameters
    lam, gamma, gap, codes, distance = gap_map(
        p["lam_values"], p["gamma_values"], p["n_sites"], p["tol"]
    )
    lines = [GAP_MAP_HEADER]
    lines += [
        _GAP_MAP_ROWS[c] % (l, g, m, d)
        for c, l, g, m, d in zip(
            codes.tolist(), lam.tolist(), gamma.tolist(), gap.tolist(), distance.tolist()
        )
    ]
    _atomic_write(cfg.output_path, _text_writer("\n".join(lines) + "\n"))
    flagged = np.count_nonzero(codes)
    print(f"wrote {cfg.output_path}: {len(lines) - 1} rows ({flagged} flagged critical)")
    return 0


def draw_noncritical_points(rng, draws: int, margin: float = 0.05):
    """Seeded rejection sampling of lam in [-2,2], gamma in [0.1,1.5]."""
    points = []
    while len(points) < draws:
        lam = rng.uniform(-2.0, 2.0)
        gamma = rng.uniform(0.1, 1.5)
        if classify_criticality(lam, gamma).distance > margin:
            points.append((float(lam), float(gamma)))
    return points


def _worse(value: float, current: float) -> bool:
    """Whether ``value`` replaces ``current`` as a worst discrepancy; NaN is worst."""
    return value > current or (math.isnan(value) and not math.isnan(current))


def _identity_ratio(xp: XYParams, steps: int, loop_phase: float, magnetization: float) -> float:
    """Oracle loop phase against the paper's pi (N + <S^z>_ED) / 2, as residual / bound.

    Over m steps the cumulant expansion of the loop phase is pi (N + kappa_1) / 2
    - pi^3 kappa_3 / (48 m^2) + pi^5 kappa_5 / (3840 m^4) - ...  The first two
    terms are the target; the bound is twice the third term, plus 1e-13 m for
    the rounding of arg chi, which the loop phase multiplies by m.
    """
    _, _, k3, _, k5 = sz_cumulants(xp)
    target = math.pi * (xp.n_sites + magnetization) / 2 - math.pi**3 * k3 / (48 * steps**2)
    bound = 2 * math.pi**5 * abs(k5) / (3840 * steps**4) + 1e-13 * steps
    return circular_distance(loop_phase, target) / bound


def _run_verify(cfg: RunConfig) -> int:
    p = cfg.parameters
    rng = np.random.default_rng(cfg.seed)
    points = draw_noncritical_points(rng, p["draws"])
    loop = LoopDiscretization(p["steps"])
    summary = {
        "seed": cfg.seed,
        "steps": p["steps"],
        "draws": p["draws"],
        "points": [list(pt) for pt in points],
        "per_n": {},
    }
    worst = {"phase": 0.0, "energy": 0.0, "magnetization": 0.0, "identity": 0.0}
    # (lambda, gamma, n) of each worst discrepancy; the first point on ties.
    worst_at = {}
    for n in p["n_sites"]:
        w = {"phase": 0.0, "energy": 0.0, "magnetization": 0.0, "identity": 0.0}
        for lam, gamma in points:
            xp = XYParams(lam=lam, gamma=gamma, n_sites=n)
            discrete = discrete_loop_phase(xp, "ground", loop).wrapped
            magnetization = magnetization_ed(xp)
            found = {
                "phase": circular_distance(discrete, ground_phase(xp).wrapped),
                "energy": abs(ground_energy(xp) - ed_ground_energy(xp)),
                "magnetization": abs(magnetization_analytic(xp) - magnetization),
                "identity": _identity_ratio(xp, p["steps"], discrete, magnetization),
            }
            for key, value in found.items():
                if _worse(value, w[key]):
                    w[key] = value
                if key not in worst_at or _worse(value, worst[key]):
                    worst[key] = value
                    worst_at[key] = {"lambda": lam, "gamma": gamma, "n": n}
        summary["per_n"][str(n)] = w
    for key in ("energy", "magnetization"):
        if worst[key] < VERIFY_LOCATION_FLOOR:
            worst_at[key] = None
    summary["max_discrepancy"] = worst
    summary["max_discrepancy_at"] = worst_at
    tol = {
        "phase": VERIFY_PHASE_TOL,
        "energy": VERIFY_ENERGY_TOL,
        "magnetization": VERIFY_MAGNETIZATION_TOL,
        "identity": VERIFY_IDENTITY_RATIO,
    }
    summary["thresholds"] = tol
    failed = [k for k in tol if not worst[k] < tol[k]]
    summary["pass"] = not failed
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if cfg.output_path:
        _atomic_write(cfg.output_path, _text_writer(text))
    print(text, end="")
    if failed:
        _error_json("VerificationFailed", f"discrepancy at or above threshold: {', '.join(failed)}")
        return 1
    return 0


def _run_scaling_fit(cfg: RunConfig) -> int:
    p = cfg.parameters
    if p["approach"] == "ising":
        spec = SweepSpec.approach(
            "lambda", 1.0, 1.0, p["window"], p["samples"], side=-1, n_sites=p["n_sites"]
        )
        g_c = 1.0
    else:
        spec = SweepSpec.approach(
            "gamma", 0.5, 0.0, p["window"], p["samples"], side=+1, n_sites=p["n_sites"]
        )
        g_c = 0.0
    fit = fit_exponent(gap_sweep(spec), g_c, p["window"])
    payload = {
        "approach": p["approach"],
        "exponent": fit.exponent,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "window": list(fit.window),
        "samples": p["samples"],
        "n_sites": p["n_sites"],
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg.output_path:
        _atomic_write(cfg.output_path, _text_writer(text))
    print(text, end="")
    return 0


def _run_step_trace(cfg: RunConfig) -> int:
    p = cfg.parameters
    rows = []
    for gamma in p["gammas"]:
        trace = relative_phase_thermo_arrays(p["lam_values"], gamma)
        rows.append((gamma, step_detect(p["lam_values"], trace)))
    _atomic_write(cfg.output_path, lambda tmp: write_step_trace_csv(rows, tmp))
    print(f"wrote {cfg.output_path}: {len(rows)} rows")
    return 0


def _run_lattice_map(cfg: RunConfig) -> int:
    p = cfg.parameters
    try:
        with open(p["input"], encoding="utf-8") as fh:
            data = json.load(fh, parse_int=float)  # a huge integer reads as inf
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"unreadable input file {p['input']}: {exc}") from exc
    known = {f.name for f in fields(LatticeParams)}
    if not isinstance(data, dict) or not set(data) <= known:
        raise UsageError(f"lattice input keys must be a subset of {sorted(known)}")
    missing = {f.name for f in fields(LatticeParams) if f.default is MISSING} - set(data)
    if missing:
        raise UsageError(f"lattice input misses required keys {sorted(missing)}")
    for key, value in data.items():
        if type(value) is not float or not math.isfinite(value):  # bool and null too
            raise UsageError(f"lattice input {key!r} must be a finite number, got {value!r}")
    lp = LatticeParams(**data)
    eff = effective_xy(lp)
    check = mott_regime_check(lp, p["threshold"])
    payload = {
        "gamma": eff.gamma,
        "lambda": eff.lam,
        "lambda_raw": eff.lam_raw,
        "phi": eff.phi,
        "energy_scale": eff.energy_scale,
        "mott_regime": {"ok": check.ok, "margin": check.margin, "threshold": check.threshold},
    }
    # An overflowing coupling is a ValueError here, not an Infinity token.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if cfg.output_path:
        _atomic_write(cfg.output_path, _text_writer(text))
    print(text, end="")
    return 0


_RUNNERS = {
    "phase-surface": _run_phase_surface,
    "gap-map": _run_gap_map,
    "verify": _run_verify,
    "scaling-fit": _run_scaling_fit,
    "step-trace": _run_step_trace,
    "lattice-map": _run_lattice_map,
}


def execute(cfg: RunConfig) -> int:
    """Run a validated configuration; returns the process exit status."""
    return _RUNNERS[cfg.command](cfg)


def _error_json(kind: str, message: str):
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except UsageError as exc:
        _error_json("usage", str(exc))
        return 2
    try:
        return execute(cfg)
    except UsageError as exc:
        _error_json("usage", str(exc))
        return 2
    except (XYBerryError, ValueError, ArithmeticError, OSError) as exc:
        _error_json(type(exc).__name__, str(exc))
        return 1
    except MemoryError as exc:
        # numpy raises a private subclass; report the public name.
        _error_json("MemoryError", str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
