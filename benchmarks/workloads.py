"""The benchmark's workloads: their jobs, their inputs and their output checks.

Each workload is built from the run's seed and a scratch directory that the
launcher owns.  ``warmup()`` runs one job at a reduced size, so that imports,
lazy library set-up and first allocations are paid before timing.
``job(j)`` runs the j-th timed job and returns a ``JobResult``; it does no
checking, so the timed region holds only the program's own work.
``check(result)`` returns the list of problems found (empty when the output
is correct).  Checks read tolerances from the package's own constants where
those exist.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from xyberry import cli, model, observables, oracle
from xyberry.model import DEFAULT_CRITICAL_TOL, Criticality, XYParams, classify_criticality
from xyberry.phases import (
    PHASE_SURFACE_HEADER,
    circular_distance,
    ground_phase,
    relative_phase_finite,
    relative_phase_thermo,
)
from xyberry.scaling import continuum_min_gap, finite_min_gap

# README grid for phase-surface and gap-map: 100 x 50 points.
README_LAMBDA = "0:2:0.02"
README_GAMMA = "0:1:0.02"
README_STEP_GAMMAS = "0.05,0.2,0.5"
README_STEP_LAMBDA = "0:2:0.005"
GAP_MAP_HEADER = "lambda,gamma,min_gap,tag,distance,status"
STEP_TRACE_HEADER = "gamma,lambda_star"

# Artifacts hold 12 significant digits, so a value read back may differ from
# the float that produced it by half a unit in the 12th digit.
CSV_REL_TOL = 1e-11
EXPONENT_TOL = 0.02
SURFACE_SAMPLE_ROWS = 32


@dataclass
class JobResult:
    """What one job produced: exit codes, artifact bytes and plain values."""

    codes: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)


def run_cli(argv) -> int:
    """``xyberry.cli.main`` in-process, with its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_command(workdir, name, argv, result: JobResult):
    """Run one CLI command that writes artifact ``name``; collect and delete it."""
    path = os.path.join(workdir, name)
    result.codes[name] = run_cli(argv + ["--out", path])
    if os.path.exists(path):
        with open(path, "rb") as fh:
            result.artifacts[name] = fh.read()
        os.remove(path)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CSV_REL_TOL * max(1.0, abs(b))


class VerifyLoops:
    """``verify`` at the README defaults: loop phases, energies, magnetizations."""

    name = "verify-loops"

    def __init__(self, seed, workdir, steps=2000, draws=10):
        self.seed = seed
        self.workdir = workdir
        self.steps = steps
        self.draws = draws

    def _run_one(self, seed, steps, draws) -> JobResult:
        argv = ["verify", "--n", "4,6", "--steps", str(steps), "--draws", str(draws),
                "--seed", str(seed)]
        result = JobResult(values={"seed": seed})
        run_command(self.workdir, "summary.json", argv, result)
        return result

    def warmup(self):
        self._run_one(self.seed, steps=100, draws=2)

    def job(self, j):
        return self._run_one(self.seed + j, self.steps, self.draws)

    def check(self, result):
        code = result.codes.get("summary.json")
        if code != 0:
            return [f"verify: exit code {code}"]
        data = result.artifacts.get("summary.json")
        if data is None:
            return ["verify: no summary written"]
        try:
            summary = json.loads(data)
        except ValueError as exc:
            return [f"verify: unreadable summary ({exc})"]
        if not isinstance(summary, dict):
            return ["verify: summary is not a JSON object"]
        errors = []
        if summary.get("pass") is not True:
            errors.append(f"verify: pass is {summary.get('pass')!r}")
        want = {"seed": result.values["seed"], "steps": self.steps, "draws": self.draws}
        for key, value in want.items():
            if summary.get(key) != value:
                errors.append(f"verify: {key} is {summary.get(key)!r}, expected {value}")
        if sorted(summary.get("per_n", {})) != ["4", "6"]:
            errors.append(f"verify: per_n covers {sorted(summary.get('per_n', {}))}")
        return errors


class DenseObservables:
    """Dense ground energy and magnetization at N = 10 against the closed forms."""

    name = "dense-observables"

    def __init__(self, seed, workdir, n_sites=10):
        self.n_sites = n_sites
        self.rng = np.random.default_rng(seed)

    def _solve(self, n_sites) -> JobResult:
        # Called through the package modules, so the tracer sees each call.
        (lam, gamma), = cli.draw_noncritical_points(self.rng, 1)
        xp = XYParams(lam=lam, gamma=gamma, n_sites=n_sites)
        return JobResult(values={
            "point": (lam, gamma),
            "ed_energy": oracle.ed_ground_energy(xp),
            "ed_magnetization": oracle.magnetization_ed(xp),
            "energy": model.ground_energy(xp),
            "magnetization": observables.magnetization_analytic(xp),
        })

    def warmup(self):
        self._solve(n_sites=6)

    def job(self, j):
        return self._solve(self.n_sites)

    def check(self, result):
        v = result.values
        errors = []
        energy_err = abs(v["ed_energy"] - v["energy"])
        if not energy_err < cli.VERIFY_ENERGY_TOL:
            errors.append(f"energy at {v['point']}: |ED - closed form| = {energy_err:.3e}")
        mag_err = abs(v["ed_magnetization"] - v["magnetization"])
        if not mag_err < cli.VERIFY_MAGNETIZATION_TOL:
            errors.append(f"magnetization at {v['point']}: |ED - closed form| = {mag_err:.3e}")
        return errors


class GridMaps:
    """The README's closed-form commands at their documented sizes.

    Every command of every timed job must exit 0 and write an artifact that
    is byte-identical to the same command's artifact in the first job: the
    commands do not change between jobs, and the CLI promises deterministic
    output.  So the content check runs once per command.
    """

    name = "grid-maps"

    def __init__(self, seed, workdir, n_sites=1000):
        self.seed = seed
        self.workdir = workdir
        self.n_sites = n_sites
        self._reference = {}
        self._checked = {}

    def commands(self, warmup):
        """(artifact name, argv) pairs; argv writes to the artifact path."""
        lam, gamma = ("0:2:0.2", "0:1:0.1") if warmup else (README_LAMBDA, README_GAMMA)
        n = str(self.n_sites)
        return [
            ("surface.csv", ["phase-surface", "--lambda", lam, "--gamma", gamma, "--n", n]),
            ("gapmap.csv", ["gap-map", "--lambda", lam, "--gamma", gamma]),
            ("gapmap_n.csv", ["gap-map", "--lambda", lam, "--gamma", gamma, "--n", n]),
            ("fit_ising.json", ["scaling-fit", "ising"]),
            ("fit_xx.json", ["scaling-fit", "xx", "--window", "1e-3:5e-2"]),
            ("trace.csv", ["step-trace", "--gamma", README_STEP_GAMMAS,
                           "--lambda", README_STEP_LAMBDA]),
        ]

    def _run(self, warmup: bool) -> JobResult:
        result = JobResult()
        for name, argv in self.commands(warmup):
            run_command(self.workdir, name, argv, result)
        return result

    def warmup(self):
        self._run(warmup=True)

    def job(self, j: int) -> JobResult:
        return self._run(warmup=False)

    def check(self, result: JobResult) -> list[str]:
        errors = []
        for name, _ in self.commands(warmup=False):
            code = result.codes.get(name)
            if code != 0:
                errors.append(f"{name}: exit code {code}")
                continue
            data = result.artifacts.get(name)
            if data is None:
                errors.append(f"{name}: no artifact written")
                continue
            ref = self._reference.setdefault(name, data)
            if data != ref:
                errors.append(f"{name}: artifact differs from the first job's")
                continue
            if name not in self._checked:
                self._checked[name] = self.check_artifact(name, data.decode("utf-8"))
            errors.extend(self._checked[name])
        return errors

    def check_artifact(self, name: str, text: str) -> list[str]:
        if name == "surface.csv":
            return self._surface_check(text)
        if name == "gapmap.csv":
            return self._gap_map_check(text, None)
        if name == "gapmap_n.csv":
            return self._gap_map_check(text, self.n_sites)
        if name.startswith("fit_"):
            return self._fit_check(name, text)
        return self._step_trace_check(text)

    def _surface_check(self, text: str):
        """Header, row count, grid, status and a seeded sample of phase values.

        The sample always holds every lambda = 0 row: there the q <-> pi - q
        gap tie is exact, and ``argmin_gap``'s tie rule decides phi_eg.
        """
        n_sites = self.n_sites
        lams = cli.parse_range(README_LAMBDA)
        gammas = cli.parse_range(README_GAMMA)
        lines = text.split("\n")
        if lines[-1] != "":
            return ["phase-surface: artifact does not end with a newline"]
        lines = lines[:-1]
        if not lines or lines[0] != PHASE_SURFACE_HEADER:
            return [f"phase-surface: header {lines[:1]!r}"]
        rows = lines[1:]
        expected = [(lam, g) for lam in lams for g in gammas]
        if len(rows) != len(expected):
            return [f"phase-surface: {len(rows)} rows, expected {len(expected)}"]
        rng = np.random.default_rng([self.seed, n_sites])
        sample = set(rng.choice(len(rows), size=SURFACE_SAMPLE_ROWS, replace=False).tolist())
        sample.update(i for i, (lam, _) in enumerate(expected) if lam == 0.0)
        errors = []
        for i, (line, (lam, gamma)) in enumerate(zip(rows, expected)):
            where = f"phase-surface row {i + 1} (lambda={lam:.12g}, gamma={gamma:.12g})"
            fields = line.split(",")
            if len(fields) != 6:
                errors.append(f"{where}: {len(fields)} fields")
                continue
            try:
                lam_r, gamma_r, raw, wrapped, phi_eg = (float(x) for x in fields[:5])
            except ValueError:
                errors.append(f"{where}: non-numeric field in {line!r}")
                continue
            status = fields[5]
            critical = (
                classify_criticality(lam, gamma, DEFAULT_CRITICAL_TOL).tag
                is not Criticality.NON_CRITICAL
            )
            if not (_close(lam_r, lam) and _close(gamma_r, gamma)):
                errors.append(f"{where}: grid point reads ({lam_r}, {gamma_r})")
            elif status != ("critical" if critical else "ok"):
                errors.append(f"{where}: status {status!r}")
            elif critical:
                if not all(math.isnan(x) for x in (raw, wrapped, phi_eg)):
                    errors.append(f"{where}: critical row carries phases")
            elif circular_distance(wrapped, raw) > CSV_REL_TOL * max(1.0, abs(raw)):
                errors.append(f"{where}: phi_g_wrapped {wrapped} is not phi_g_raw {raw} wrapped")
            elif not -2.0 * math.pi - CSV_REL_TOL <= phi_eg <= 0.0:
                # phi_eg = -pi (1 - cos theta) with cos theta in [-1, 1].
                errors.append(f"{where}: phi_eg {phi_eg} outside [-2 pi, 0]")
            elif i in sample:
                xp = XYParams(lam=float(lam), gamma=float(gamma), n_sites=n_sites)
                want_raw = ground_phase(xp).value
                want_eg = relative_phase_finite(xp).value
                if not _close(raw, want_raw):
                    errors.append(f"{where}: phi_g_raw {raw}, ground_phase {want_raw}")
                if not _close(phi_eg, want_eg):
                    errors.append(f"{where}: phi_eg {phi_eg}, relative_phase_finite {want_eg}")
            if len(errors) >= 5:
                break
        return errors

    def _gap_map_check(self, text, n_sites):
        label = f"gap-map (n={n_sites})"
        lams = cli.parse_range(README_LAMBDA)
        gammas = cli.parse_range(README_GAMMA)
        lines = text.split("\n")
        if lines[-1] != "" or lines[0] != GAP_MAP_HEADER:
            return [f"{label}: bad header or missing final newline"]
        rows = lines[1:-1]
        expected = [(lam, g) for lam in lams for g in gammas]
        if len(rows) != len(expected):
            return [f"{label}: {len(rows)} rows, expected {len(expected)}"]
        errors = []
        for i, (line, (lam, gamma)) in enumerate(zip(rows, expected)):
            where = f"{label} row {i + 1}"
            fields = line.split(",")
            if len(fields) != 6:
                errors.append(f"{where}: {len(fields)} fields")
                continue
            try:
                lam_r, gamma_r, gap, distance = (float(fields[k]) for k in (0, 1, 2, 4))
            except ValueError:
                errors.append(f"{where}: non-numeric field in {line!r}")
                continue
            c = classify_criticality(lam, gamma, DEFAULT_CRITICAL_TOL)
            status = "ok" if c.tag is Criticality.NON_CRITICAL else "critical"
            if n_sites is None:
                want = continuum_min_gap(lam, gamma)
            else:
                want = finite_min_gap(n_sites, lam, gamma)
            if not (_close(lam_r, lam) and _close(gamma_r, gamma)):
                errors.append(f"{where}: grid point reads ({lam_r}, {gamma_r})")
            elif fields[3] != c.tag.value or fields[5] != status:
                errors.append(f"{where}: tag/status {fields[3]}/{fields[5]}")
            elif not _close(distance, c.distance):
                errors.append(f"{where}: distance {distance}, expected {c.distance}")
            elif not _close(gap, want):
                errors.append(f"{where}: min_gap {gap}, expected {want}")
            if len(errors) >= 5:
                break
        return errors

    def _fit_check(self, name, text):
        try:
            fit = json.loads(text)
            exponent = float(fit["exponent"])
        except (ValueError, KeyError, TypeError) as exc:
            return [f"{name}: unreadable fit ({exc!r})"]
        if not abs(exponent - 1.0) <= EXPONENT_TOL:
            return [f"{name}: exponent {exponent}, expected 1 +- {EXPONENT_TOL}"]
        return []

    def _step_trace_check(self, text):
        """lambda* within one grid step of the pi/2 crossing of the closed form.

        The detector marks where |phi_eg| crosses pi/2.  That crossing sits
        within one step of the branch edge 1 - gamma^2 only for narrow
        anisotropy (gamma = 0.05); at gamma = 0.2 and 0.5 the closed form
        leaves its plateau well before the edge (see demos/03).  The reference
        crossing is found by root-finding on ``relative_phase_thermo``.
        """
        lam_lo, _, step = (float(x) for x in README_STEP_LAMBDA.split(":"))
        gammas = [float(g) for g in README_STEP_GAMMAS.split(",")]
        lines = text.split("\n")
        if lines[-1] != "" or lines[0] != STEP_TRACE_HEADER or len(lines) != len(gammas) + 2:
            return [f"step-trace: header or row count wrong in {lines!r}"]
        errors = []
        for line, gamma in zip(lines[1:-1], gammas):
            try:
                gamma_r, lam_star = (float(x) for x in line.split(","))
            except ValueError:
                errors.append(f"step-trace: unreadable row {line!r}")
                continue
            edge = 1.0 - gamma * gamma
            crossing = brentq(
                lambda lam: abs(relative_phase_thermo(lam, gamma).value) - 0.5 * math.pi,
                lam_lo + 1e-9,
                edge - 1e-12,
            )
            if not _close(gamma_r, gamma):
                errors.append(f"step-trace: gamma {gamma_r}, expected {gamma}")
            elif not abs(lam_star - crossing) <= step:
                errors.append(
                    f"step-trace: lambda* {lam_star} at gamma={gamma}, crossing {crossing:.6f}"
                )
        return errors


WORKLOADS = {w.name: w for w in (VerifyLoops, DenseObservables, GridMaps)}
