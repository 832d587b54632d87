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
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .errors import XYBerryError
from .lattice import LatticeParams, effective_xy, mott_regime_check
from .model import DEFAULT_CRITICAL_TOL, _require_count, classify_criticality
from .observables import _ground_state_rows, _identity_terms
from .oracle import _even_ground_rows, check_sites
from .phases import (
    _wrap_angles,
    phase_surface,
    relative_phase_thermo_arrays,
    write_phase_surface_csv,
)
from .scaling import (
    DEFAULT_FIT_WINDOW,
    fit_exponent,
    gap_map,
    gap_sweep,
    step_detect,
    write_gap_map_csv,
    write_step_trace_csv,
)
from .tables import _atomic_write

__all__ = [
    "UsageError", "RunConfig", "parse_range", "parse_config", "draw_noncritical_points",
    "execute", "main",
]

# Verification thresholds: discrete-vs-closed-form loop phase, energy and
# magnetization against the dense oracle.  The identity row is a ratio to a
# derived bound (see ``observables.phase_magnetization_identity``), so it passes below 1.
VERIFY_PHASE_TOL = 1e-3
VERIFY_ENERGY_TOL = 1e-8
VERIFY_MAGNETIZATION_TOL = 1e-8
VERIFY_IDENTITY_RATIO = 1.0
# verify's rows, each by its threshold; a row passes below its threshold.
VERIFY_THRESHOLDS = {
    "phase": VERIFY_PHASE_TOL,
    "energy": VERIFY_ENERGY_TOL,
    "magnetization": VERIFY_MAGNETIZATION_TOL,
    "identity": VERIFY_IDENTITY_RATIO,
}

# Energy and magnetization discrepancies below this are rounding, so the
# summary names no point for them.
VERIFY_LOCATION_FLOOR = 1e-12

# verify draws its points at least this far from every critical manifold.
NONCRITICAL_MARGIN = 0.05

# scaling-fit's approaches: (swept parameter, the other one's value, critical value, side).
_APPROACHES = {"ising": ("lambda", 1.0, 1.0, -1), "xx": ("gamma", 0.5, 0.0, +1)}

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


def _path(text: str) -> str:
    if not text:
        raise UsageError("must be a path, got ''")
    return text


def _parse_sites(text: str) -> list[int]:
    ns = [_require_count("n_sites", n, 4, even=True) for n in _parse_list(text, int)]
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
    if text not in _APPROACHES:
        raise UsageError(f"must be {' or '.join(_APPROACHES)}, got {text!r}")
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
    "out": _Flag("output_path", _path, _REQUIRED, "output CSV path"),
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
        "out": _Flag("output_path", _path, None, "summary JSON path (summary always printed)"),
    },
    "scaling-fit": {
        "approach": _Flag("approach", _parse_approach, _REQUIRED, "critical approach",
                          "{%s}" % ",".join(_APPROACHES), positional=True),
        "window": _Flag("window", _parse_window, "%g:%g" % DEFAULT_FIT_WINDOW,
                        "fit window in |g - g_c|", "LO:HI"),
        "samples": _Flag("samples", _count(8), "24", "sweep samples"),
        "n": _Flag("n_sites", _parse_one_site, None, "chain length; omit for continuum sweeps"),
        "out": _Flag("output_path", _path, None, "fit JSON path (JSON always printed)"),
    },
    "step-trace": {
        "gamma": _Flag("gammas", _parse_gammas, _REQUIRED, "nonzero anisotropies", "G[,G...]"),
        "lambda": _GRID_FLAGS["lambda"]._replace(default="0:2:0.005"),
        "out": _GRID_FLAGS["out"],
    },
    "lattice-map": {
        "input": _Flag("input", str, _REQUIRED, "lattice parameters JSON file"),
        "threshold": _Flag("threshold", _positive, "0.1", "Mott-regime threshold"),
        "out": _Flag("output_path", _path, None, "output JSON path (JSON always printed)"),
    },
}


def _attach_values(argv) -> list:
    """Argv with each ``--flag -value`` as ``--flag=-value``: argparse reads a token that
    starts with '-' as an option unless it is a plain number.  A token after a flag that
    takes a value is that value unless it starts with '--'."""
    flags = {"--config"} | {f"--{name}" for specs in _FLAG_SPECS.values()
                            for name, flag in specs.items() if not flag.positional}
    out = []
    for token in argv:
        if out and out[-1] in flags and token.startswith("-") and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="xyberry", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"xyberry {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, flags in _FLAG_SPECS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        p.add_argument("--config", default=None, help="JSON file of flag values")
        for name, flag in flags.items():
            name, kw = (name, {"nargs": "?"}) if flag.positional else (f"--{name}", {"dest": name})
            note = {_REQUIRED: " (required)", None: ""}.get(flag.default, f" (default {flag.default})")
            p.add_argument(name, default=None, metavar=flag.metavar, help=flag.help + note, **kw)
    return parser


def _read_json(path: str, what: str, **load_kw):
    """The JSON in UTF-8 file ``path``; an unreadable, undecodable or too deep one is a UsageError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, **load_kw)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"unreadable {what} file {path}: {exc}") from exc


def parse_config(argv=None) -> RunConfig:
    """Parse flags (and optional config file) into a validated RunConfig.

    Each of the command's ``_FLAG_SPECS`` entries takes its flag, else the
    config file's value, else its default, through its converter.  The file
    is a JSON object keyed by flag name whose values, strings or finite
    numbers, stand for their text.
    """
    args = vars(_build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv)))
    command = args["command"]
    if command is None:
        raise UsageError(f"a command is required: one of {', '.join(_FLAG_SPECS)}")
    for name, val in args.items():
        if isinstance(val, list):  # argparse's value for "--flag=--"
            raise UsageError(f"--{name} needs a value")
    specs, from_file = _FLAG_SPECS[command], {}
    if args["config"] is not None:
        data = _read_json(args["config"], "config")
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
        except (UsageError, ValueError) as exc:  # ValueError: a model rule's own check
            raise UsageError(f"{label}: {exc}") from exc
    fixed = {key: values.pop(key) for key in ("output_path", "seed") if key in values}
    return RunConfig(command=command, parameters=values, **fixed)


def _emit_json(path: Optional[str], payload: dict, allow_nan: bool = True) -> None:
    """The one JSON emitter: print ``payload`` as sorted, indented JSON, and write
    the same text to ``path`` when one is given."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=allow_nan) + "\n"
    if path:
        _atomic_write(path, lambda fh: fh.write(text))
    print(text, end="")


def _run_grid(cfg: RunConfig, compute, write) -> int:
    """phase-surface and gap-map: ``compute`` the grid's table and ``write`` it as CSV."""
    p = cfg.parameters
    data = compute(p["lam_values"], p["gamma_values"], p["n_sites"], p["tol"])
    write(data, cfg.output_path)
    flagged = np.count_nonzero(data.codes)
    print(f"wrote {cfg.output_path}: {len(data)} rows ({flagged} flagged critical)")
    return 0


def draw_noncritical_points(rng, draws: int):
    """Seeded rejection sampling of lam in [-2,2], gamma in [0.1,1.5], at least
    ``NONCRITICAL_MARGIN`` from every critical manifold.

    Each batch draws as many (lam, gamma) pairs as are still needed, lam then
    gamma, each as ``rng.uniform(low, high)`` forms it from one
    ``rng.random()`` double u, low + (high - low) u; so the points and the
    state ``rng`` is left in are those of drawing one pair at a time until
    ``draws`` are accepted.  Each candidate is classified on its own: for the
    one-point batches of a caller that draws one point at a time,
    ``classify_criticality_arrays`` would cost several times the scalar body.
    """
    points = []
    while len(points) < draws:
        for u, v in rng.random((draws - len(points), 2)).tolist():
            lam, gamma = -2.0 + (2.0 - -2.0) * u, 0.1 + (1.5 - 0.1) * v
            if classify_criticality(lam, gamma).distance > NONCRITICAL_MARGIN:
                points.append((lam, gamma))
    return points


def _worst(rows: np.ndarray) -> int:
    """The flat index of the worst discrepancy in ``rows``: NaN is worst, and on
    ties the first in row-major order (``np.argmax`` takes the first NaN, else
    the first maximum)."""
    return int(np.argmax(rows))


def _verify_points(points, n_sites, steps) -> dict:
    """verify's discrepancy rows: for each row key, an array of one row per N of
    ``n_sites``, in turn, and one column per point of ``points``, in order.

    At one N, the closed forms of all the points come from one
    ``_ground_state_rows`` pass, the oracle's readings from one
    ``oracle._even_ground_rows`` pass, and each discrepancy row from one
    array operation, bit for bit the per-point value.  The points come from
    ``draw_noncritical_points``, so none is near criticality.
    """
    lams, gammas = np.array(points).T
    found = {key: np.empty((len(n_sites), len(points))) for key in VERIFY_THRESHOLDS}
    for row, n in enumerate(n_sites):
        phase, energy, magnetization = _ground_state_rows(lams, gammas, n)
        discrete, ed_energy, ed_magnetization, k3, k5 = _even_ground_rows(lams, gammas, n, steps)
        predicted, bound = _identity_terms(n, steps, ed_magnetization, k3, k5)
        found["phase"][row] = np.abs(_wrap_angles(discrete - phase))
        found["energy"][row] = np.abs(energy - ed_energy)
        found["magnetization"][row] = np.abs(magnetization - ed_magnetization)
        found["identity"][row] = np.abs(_wrap_angles(discrete - predicted)) / bound
    return found


def _run_verify(cfg: RunConfig) -> int:
    p = cfg.parameters
    for n in p["n_sites"]:  # the oracle's size cap, before any point is drawn
        check_sites(n)
    rng = np.random.default_rng(cfg.seed)
    points = draw_noncritical_points(rng, p["draws"])
    found = _verify_points(points, p["n_sites"], p["steps"])
    worst, at = {}, {}
    for key, rows in found.items():
        row, column = divmod(_worst(rows), len(points))
        worst[key] = float(rows[row, column])
        lam, gamma = points[column]
        at[key] = {"lambda": lam, "gamma": gamma, "n": p["n_sites"][row]}
    failed = [k for k, tol in VERIFY_THRESHOLDS.items() if not worst[k] < tol]
    summary = {
        "seed": cfg.seed,
        "steps": p["steps"],
        "draws": p["draws"],
        "points": [list(pt) for pt in points],
        "per_n": {
            str(n): {key: float(rows[row, _worst(rows[row])]) for key, rows in found.items()}
            for row, n in enumerate(p["n_sites"])
        },
        "max_discrepancy": worst,
        "max_discrepancy_at": {
            key: None if key in ("energy", "magnetization") and value < VERIFY_LOCATION_FLOOR
            else at[key] for key, value in worst.items()
        },
        "thresholds": VERIFY_THRESHOLDS,
        "pass": not failed,
    }
    _emit_json(cfg.output_path, summary)
    if failed:
        _error_json("VerificationFailed", f"discrepancy at or above threshold: {', '.join(failed)}")
        return 1
    return 0


def _run_scaling_fit(cfg: RunConfig) -> int:
    p = cfg.parameters
    vary, fixed_value, g_c, side = _APPROACHES[p["approach"]]
    table = gap_sweep(
        vary, fixed_value, g_c, p["window"], p["samples"], side=side, n_sites=p["n_sites"]
    )
    fit = fit_exponent(table, g_c, p["window"])
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
    write_step_trace_csv(columns, cfg.output_path)
    print(f"wrote {cfg.output_path}: {len(stars)} rows")
    return 0


def _run_lattice_map(cfg: RunConfig) -> int:
    p = cfg.parameters
    data = _read_json(p["input"], "input", parse_int=float)  # a huge integer reads as inf
    known = {f.name for f in fields(LatticeParams)}
    if not isinstance(data, dict) or not set(data) <= known:
        raise UsageError(f"lattice input keys must be a subset of {sorted(known)}")
    missing = {f.name for f in fields(LatticeParams) if f.default is MISSING} - set(data)
    if missing:
        raise UsageError(f"lattice input misses required keys {sorted(missing)}")
    for key, value in data.items():
        if type(value) is not float:  # bool, null, string and list too
            raise UsageError(f"lattice input {key!r} must be a finite number, got {value!r}")
    try:
        lp = LatticeParams(**data)
    except ValueError as exc:  # a value outside the lattice's rules, NaN and Infinity too
        raise UsageError(f"lattice input: {exc}") from exc
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
    # Names looked up per run, so a wrapper set on this module's writers is called.
    "phase-surface": lambda cfg: _run_grid(cfg, phase_surface, write_phase_surface_csv),
    "gap-map": lambda cfg: _run_grid(cfg, gap_map, write_gap_map_csv),
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
