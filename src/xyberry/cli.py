"""Deterministic command-line front end.

Subcommands produce CSV/JSON data products (criticality maps, phase
surfaces, exponent fits, verification summaries).  Identical configuration
plus seed yields byte-identical artifacts; every artifact is written to a
temporary file and atomically renamed, so a failing run never leaves a
partial file behind.  Failures print machine-readable JSON on stderr and
exit nonzero (2 for usage errors, 1 for runtime errors).

Flags may also be supplied through a JSON config file (``--config``) of
strings and finite numbers, checked exactly like flags; explicit flags
override file values, and unknown file keys are rejected.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .errors import XYBerryError
from .lattice import LatticeParams, effective_xy, mott_regime_check
from .model import DEFAULT_CRITICAL_TOL, XYParams, classify_criticality, ground_energy
from .observables import magnetization_analytic
from .oracle import (
    LoopDiscretization,
    check_sites,
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
    write_gap_map_csv,
    write_step_trace_csv,
)

__all__ = ["RunConfig", "parse_config", "execute", "main"]

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

# Largest point count one min:max:step range, or one count flag (--draws,
# --steps, --samples, N/2 for a single --n), may ask for; checked before
# anything is allocated.
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


def _parse_number(text: str, kind):
    """One ``kind`` (int or float) value; a float must be finite."""
    try:
        value = kind(text)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise UsageError(f"must be {expected}, got {text!r}") from exc
    if kind is float and not math.isfinite(value):
        raise UsageError(f"must be finite, got {text!r}")
    return value


def _parse_list(text: str, kind) -> list:
    """Comma-separated values, each as ``_parse_number``; at least one."""
    values = [_parse_number(p, kind) for p in text.split(",") if p != ""]
    if not values:
        raise UsageError(f"needs at least one value, got {text!r}")
    return values


def _count(low: int, high=MAX_RANGE_POINTS):
    """A converter to one integer from ``low`` to ``high``."""
    def convert(text: str) -> int:
        value = _parse_number(text, int)
        if not low <= value <= high:
            raise UsageError(f"must be an integer from {low} to {high}, got {text!r}")
        return value
    return convert


def _positive(text: str) -> float:
    value = _parse_number(text, float)
    if value <= 0:
        raise UsageError(f"must be positive, got {text!r}")
    return value


def _parse_sites(text: str) -> list[int]:
    ns = _parse_list(text, int)
    for n in ns:
        if n < 4 or n % 2 != 0:
            raise UsageError(f"n_sites must be even and >= 4 (momenta pair as (k, -k)), got {n}")
    if len(set(ns)) != len(ns):  # verify would solve every point twice
        raise UsageError(f"a chain length is repeated in {text!r}")
    return ns


def _parse_one_site(text: str) -> int:
    """The one chain length of a single-N command; N/2 is at most MAX_RANGE_POINTS."""
    ns = _parse_sites(text)
    if len(ns) != 1:
        raise UsageError(f"takes one chain length on this command, got {text!r}")
    if ns[0] // 2 > MAX_RANGE_POINTS:
        raise UsageError(f"chain length {ns[0]} has more than {MAX_RANGE_POINTS} momentum pairs")
    return ns[0]


def _parse_window(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"window must be LO:HI, got {text!r}")
    lo, hi = (_parse_number(p, float) for p in parts)
    if not 0 < lo < hi:
        raise UsageError(f"window must satisfy 0 < LO < HI, got {text!r}")
    return lo, hi


def _parse_approach(text: str) -> str:
    if text not in ("ising", "xx"):
        raise UsageError(f"must be ising or xx, got {text!r}")
    return text


def _parse_gammas(text: str) -> list[float]:
    gammas = _parse_list(text, float)
    if 0.0 in gammas:
        raise UsageError("gamma values must be nonzero (XX line is critical)")
    return gammas


_REQUIRED = object()


class _Flag(NamedTuple):
    """One flag: its RunConfig.parameters key (or ``output_path``, ``seed``), converter, and
    the text an absent flag converts from, ``_REQUIRED``, or None for no value."""

    key: str
    convert: Callable[[str], object]
    default: object
    help: str
    metavar: Optional[str] = None
    positional: bool = False


# The flags phase-surface and gap-map share.
_GRID_FLAGS = {
    "lambda": _Flag("lam_values", parse_range, _REQUIRED, "field grid", "MIN:MAX:STEP"),
    "gamma": _Flag("gamma_values", parse_range, _REQUIRED, "anisotropy grid", "MIN:MAX:STEP"),
    "critical-tol": _Flag("tol", _positive, "%g" % DEFAULT_CRITICAL_TOL, "manifold tolerance"),
    "out": _Flag("output_path", str, _REQUIRED, "output CSV path"),
}
# Every flag of every command, by flag name without the leading dashes.
_FLAG_SPECS = {
    "phase-surface": {
        **_GRID_FLAGS,
        "n": _Flag("n_sites", _parse_one_site, "1000", "chain length for the finite-size phases"),
    },
    "gap-map": {
        **_GRID_FLAGS,
        "n": _Flag("n_sites", _parse_one_site, None, "chain length; omit for the continuum gap"),
    },
    "verify": {
        "n": _Flag("n_sites", _parse_sites, "4,6", "even chain lengths", "N[,N...]"),
        "steps": _Flag("steps", _count(8), "2000", "loop discretization steps"),
        "draws": _Flag("draws", _count(1), "10", "random parameter draws"),
        "seed": _Flag("seed", _count(0, math.inf), "0", "RNG seed for the draws"),
        "out": _Flag("output_path", str, None, "summary JSON path (summary always printed)"),
    },
    "scaling-fit": {
        "approach": _Flag("approach", _parse_approach, _REQUIRED, "critical approach",
                          "{ising,xx}", positional=True),
        "window": _Flag("window", _parse_window, "%g:%g" % DEFAULT_FIT_WINDOW,
                        "fit window in |g - g_c|", "LO:HI"),
        "samples": _Flag("samples", _count(8), "24", "sweep samples"),
        "n": _Flag("n_sites", _parse_one_site, None, "chain length; omit for continuum sweeps"),
        "out": _Flag("output_path", str, None, "fit JSON path (JSON always printed)"),
    },
    "step-trace": {
        "gamma": _Flag("gammas", _parse_gammas, _REQUIRED, "nonzero anisotropies", "G[,G...]"),
        "lambda": _GRID_FLAGS["lambda"]._replace(default="0:2:0.005"),
        "out": _GRID_FLAGS["out"],
    },
    "lattice-map": {
        "input": _Flag("input", str, _REQUIRED, "lattice parameters JSON file"),
        "threshold": _Flag("threshold", _positive, "0.1", "Mott-regime threshold"),
        "out": _Flag("output_path", str, None, "output JSON path (JSON always printed)"),
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
        for name, flag in flags.items():
            name, kw = (name, {"nargs": "?"}) if flag.positional else (f"--{name}", {"dest": name})
            note = {_REQUIRED: " (required)", None: ""}.get(flag.default, f" (default {flag.default})")
            p.add_argument(name, default=None, metavar=flag.metavar, help=flag.help + note, **kw)
    return parser


def parse_config(argv=None) -> RunConfig:
    """Parse flags (and optional config file) into a validated RunConfig.

    Each of the command's ``_FLAG_SPECS`` entries takes its flag, else the
    config file's value, else its default, through its converter.  The file
    is a JSON object keyed by flag name whose values, strings or finite
    numbers, stand for their text.
    """
    args = vars(_build_parser().parse_args(argv))
    command = args["command"]
    if command is None:
        raise UsageError(f"a command is required: one of {', '.join(_FLAG_SPECS)}")
    for name, val in args.items():
        if isinstance(val, list):  # argparse's value for "--flag=--"
            raise UsageError(f"--{name} needs a value")
    specs, from_file = _FLAG_SPECS[command], {}
    if args["config"] is not None:
        try:
            with open(args["config"], encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise UsageError(f"unreadable config file {args['config']}: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object")
        for key, val in data.items():
            name = key.replace("_", "-")
            if name not in specs:
                raise UsageError(f"unknown config key {key!r} for {command}")
            number = type(val) is int or (type(val) is float and math.isfinite(val))  # no bool
            if not (number or isinstance(val, str)):
                raise UsageError(f"config key {key!r} must be a string or a finite number")
            from_file[name] = str(val)
    values = {}
    for name, flag in specs.items():
        label = name if flag.positional else f"--{name}"
        text = args[name] if args[name] is not None else from_file.get(name, flag.default)
        if text is _REQUIRED:
            raise UsageError(f"{command} needs {label}")
        try:
            values[flag.key] = None if text is None else flag.convert(text)
        except UsageError as exc:
            raise UsageError(f"{label}: {exc}") from exc
    fixed = {key: values.pop(key) for key in ("output_path", "seed") if key in values}
    return RunConfig(command=command, parameters=values, **fixed)


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


def _emit_json(path: Optional[str], payload: dict, allow_nan: bool = True) -> None:
    """The one JSON emitter: print ``payload`` as sorted, indented JSON, and write
    the same text to ``path`` when one is given."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=allow_nan) + "\n"
    if path:
        _atomic_write(path, _text_writer(text))
    print(text, end="")


def _run_phase_surface(cfg: RunConfig) -> int:
    p = cfg.parameters
    surface = phase_surface(p["lam_values"], p["gamma_values"], p["n_sites"], p["tol"])
    _atomic_write(cfg.output_path, lambda tmp: write_phase_surface_csv(surface, tmp))
    flagged = np.count_nonzero(surface.codes)
    print(f"wrote {cfg.output_path}: {len(surface)} rows ({flagged} flagged critical)")
    return 0


def _run_gap_map(cfg: RunConfig) -> int:
    p = cfg.parameters
    data = gap_map(p["lam_values"], p["gamma_values"], p["n_sites"], p["tol"])
    _atomic_write(cfg.output_path, lambda tmp: write_gap_map_csv(data, tmp))
    flagged = np.count_nonzero(data.codes)
    print(f"wrote {cfg.output_path}: {len(data)} rows ({flagged} flagged critical)")
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
    for n in p["n_sites"]:  # the oracle's size cap, before any point is drawn
        check_sites(n)
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
    _emit_json(cfg.output_path, summary)
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
    _emit_json(cfg.output_path, payload)
    return 0


def _run_step_trace(cfg: RunConfig) -> int:
    p = cfg.parameters
    lams = p["lam_values"]
    stars = [step_detect(lams, relative_phase_thermo_arrays(lams, g)) for g in p["gammas"]]
    columns = (p["gammas"], stars)
    _atomic_write(cfg.output_path, lambda tmp: write_step_trace_csv(columns, tmp))
    print(f"wrote {cfg.output_path}: {len(stars)} rows")
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
    _emit_json(cfg.output_path, payload, allow_nan=False)
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
        return execute(parse_config(argv))
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
