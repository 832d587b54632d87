"""Closed-form geometric phases for loops of the in-plane rotation angle.

All phases refer to one circuit phi: 0 -> pi of the rotated chain (the
Hamiltonian is pi-periodic, so this is a closed loop); multi-winding loops
multiply the raw value.  A raw (unwrapped) value and its representative in
(-pi, pi] are both reported, because the raw ground-state sum grows with N
while only the wrapped value is physical modulo 2 pi.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import CriticalPointError
from .model import (
    DEFAULT_CRITICAL_TOL,
    Criticality,
    XYParams,
    _mode_components,
    _mode_tiles,
    _point_modes,
    argmin_gap,
    classify_criticality,
    classify_criticality_arrays,
)
from .tables import STATUS, Cells, grid_cells, write_csv

__all__ = [
    "PhaseResult",
    "BlochLoopSpec",
    "wrap_angle",
    "circular_distance",
    "spin_half_connection",
    "spin_half_phase",
    "ground_phase",
    "relative_phase_finite",
    "relative_phase_thermo",
    "relative_phase_thermo_arrays",
    "PhaseSurface",
    "phase_surface",
    "write_phase_surface_csv",
    "PHASE_SURFACE_HEADER",
]


def wrap_angle(x: float) -> float:
    """Reduce an angle to the representative in (-pi, pi]."""
    w = math.remainder(float(x), 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles modulo 2 pi."""
    return abs(wrap_angle(a - b))


@dataclass(frozen=True)
class PhaseResult:
    """A geometric phase with its topological/geometric split.

    ``value`` is the raw phase in radians, ``wrapped`` its representative in
    (-pi, pi].  ``value == topological_part + geometric_part`` always; the
    topological part is a multiple of pi and is zero whenever the split is
    not meaningful for the quantity at hand.
    """

    value: float
    wrapped: float
    topological_part: float
    geometric_part: float
    winding: int

    @classmethod
    def from_value(
        cls, value: float, winding: int = 1, topological_part: float = 0.0
    ) -> "PhaseResult":
        value = float(value)
        return cls(
            value=value,
            wrapped=wrap_angle(value),
            topological_part=float(topological_part),
            geometric_part=value - float(topological_part),
            winding=int(winding),
        )


@dataclass(frozen=True)
class BlochLoopSpec:
    """A horizontal loop on the Bloch sphere: fixed polar angle, n circuits."""

    theta: float
    windings: int = 1

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if self.windings < 1:
            raise ValueError(f"windings must be a positive integer, got {self.windings}")


def spin_half_connection(theta: float) -> tuple[float, float]:
    """Connection components (A_theta, A_phi) of the upper spin-1/2 level.

    For a field at polar angle theta the azimuthal component is half the
    enclosed solid-angle density: A_phi = (1 - cos theta) / 2.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    return 0.0, 0.5 * (1.0 - math.cos(theta))


def spin_half_phase(spec: BlochLoopSpec, branch: str = "upper") -> PhaseResult:
    """Phase of a spin-1/2 dragged around n horizontal circuits.

    Half the enclosed solid angle per circuit: n * pi * (1 - cos theta) for
    the upper level; the lower level acquires the negation.
    """
    value = spec.windings * math.pi * (1.0 - math.cos(spec.theta))
    if branch == "lower":
        value = -value
    elif branch != "upper":
        raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")
    return PhaseResult.from_value(value, winding=spec.windings)


def _require_noncritical(params: XYParams, tol: float):
    c = classify_criticality(params.lam, params.gamma, tol)
    if c.tag is not Criticality.NON_CRITICAL:
        raise CriticalPointError(
            f"phase undefined at degeneracy: (lam={params.lam}, gamma={params.gamma}) "
            f"classified {c.tag.value} (distance {c.distance:.3g})"
        )


def _occupation(eps, gap):
    """cos theta_k = eps_k / gap_k and N_f = sum_k (1 - cos theta_k), along the last axis."""
    cos_theta = eps / gap
    return cos_theta, np.add.reduce(1.0 - cos_theta, axis=-1)


def _frozen_term(cos_theta, gap):
    """1 - cos theta_k0 per point of (..., modes) arrays, k0 picked by ``argmin_gap``."""
    k0 = argmin_gap(gap)
    rows = cos_theta.reshape(-1, cos_theta.shape[-1])
    return 1.0 - rows[np.arange(k0.size), k0.ravel()].reshape(k0.shape)


def _point_occupation(params: XYParams, tol: float):
    """(cos theta, N_f, gap) of one noncritical point; raises on a critical manifold."""
    _require_noncritical(params, tol)
    eps, gap = _point_modes(params)
    return (*_occupation(eps, gap), gap)


def ground_phase(params: XYParams, tol: float = DEFAULT_CRITICAL_TOL) -> PhaseResult:
    """Ground-state phase for one phi circuit: sum_k pi (1 - cos theta_k).

    Every (k, -k) pair is a Bloch vector at polar angle theta_k whose
    azimuth winds once around the axis, so the pair contributes half its
    solid angle.  Independent of params.phi (the loop, not its starting
    point, fixes the phase).  Raises on critical manifolds, where the
    degeneracy makes the phase undefined.
    """
    _, n_f, _ = _point_occupation(params, tol)
    return PhaseResult.from_value(float(np.pi * n_f))


def relative_phase_finite(
    params: XYParams, tol: float = DEFAULT_CRITICAL_TOL
) -> PhaseResult:
    """Excited-minus-ground phase at finite N: -pi (1 - cos theta_{k0}).

    The lowest excitation freezes the minimum-gap pair, which then stops
    contributing to the loop phase; the difference collapses to that single
    mode's term.  The topological/geometric split is reported on the branch
    |lam| < 1 - gamma^2 where it is meaningful.
    """
    cos_theta, _, gap = _point_occupation(params, tol)
    value = -math.pi * float(_frozen_term(cos_theta[None], gap[None])[0])
    topo = -math.pi if _on_nontrivial_branch(params.lam, params.gamma) else 0.0
    return PhaseResult.from_value(value, topological_part=topo)


def _on_nontrivial_branch(lam: float, gamma: float) -> bool:
    return abs(lam) < 1.0 - gamma * gamma


_XX_SEGMENT_MESSAGE = "relative phase undefined on the XX critical segment (gamma=0, |lam|<=1)"


def relative_phase_thermo(lam: float, gamma: float) -> PhaseResult:
    """Thermodynamic (N -> infinity) limit of the relative phase.

    Exactly 0 for |lam| > 1 - gamma^2 (the frozen pair is fully axis
    aligned); on the complementary branch

        -pi + pi * lam * gamma / sqrt((1 - gamma^2)(1 - gamma^2 - lam^2)),

    a topological -pi plus a geometric remainder that is odd in lam.  The
    XX segment gamma = 0, |lam| < 1 is excluded (critical line).  A view on
    ``relative_phase_thermo_arrays`` at one point.
    """
    value = float(relative_phase_thermo_arrays(lam, gamma))
    topo = -math.pi if _on_nontrivial_branch(lam, gamma) else 0.0
    return PhaseResult.from_value(value, topological_part=topo)


def relative_phase_thermo_arrays(lam, gamma) -> np.ndarray:
    """The value of ``relative_phase_thermo`` over broadcast arrays of points.

    Raises CriticalPointError if any point lies on the XX segment.
    """
    lam, gamma = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(gamma, dtype=float))
    if np.any((gamma == 0.0) & (np.abs(lam) <= 1.0)):
        raise CriticalPointError(_XX_SEGMENT_MESSAGE)
    with np.errstate(over="ignore", invalid="ignore"):
        c = 1.0 - gamma * gamma
        branch = np.abs(lam) < c
        disc = c * (c - lam * lam)
        geometric = math.pi * lam * gamma / np.sqrt(np.where(branch, disc, 1.0))
    return np.where(branch, -math.pi + geometric, 0.0)


PHASE_SURFACE_HEADER = "lambda,gamma,phi_g_raw,phi_g_wrapped,phi_eg,status"


@dataclass(frozen=True, eq=False)
class PhaseSurface:
    """The columns of a phase surface over the grid lam_values x gamma_values.

    ``codes`` (the codes of ``classify_criticality_arrays``; 0 is
    noncritical), ``raw``, ``wrapped`` and ``phi_eg`` hold one entry per
    grid point in row-major order (lam outer, gamma inner); critical points
    carry NaN phases.  ``len`` is the point count.
    """

    lam_values: np.ndarray
    gamma_values: np.ndarray
    codes: np.ndarray
    raw: np.ndarray
    wrapped: np.ndarray
    phi_eg: np.ndarray

    def __len__(self) -> int:
        return self.codes.size


def phase_surface(
    lam_values,
    gamma_values,
    n_sites: int,
    tol: float = DEFAULT_CRITICAL_TOL,
) -> PhaseSurface:
    """Tabulate (phi_g raw, phi_g wrapped, phi_eg) over a parameter grid.

    Grid points on a critical manifold are kept, with NaN phases, so the
    table shape is deterministic and nothing is dropped silently.  The grid
    is classified as one array and reduced tile by tile over the
    ``mode_gap_blocks`` tiles, lam values as rows and gamma values as shared
    columns; critical points pass through the kernel with their tile and
    are blanked after.  The tiles are evaluated on up to two threads, one
    per CPU the process may use (see ``_run_tiles``).  Each tile fills its
    own block of the grid and every reduction runs along one point's modes,
    so the result is the same bits on any number of CPUs, and each point's
    phases equal the per-point ones exactly.
    """
    lams = np.asarray(lam_values, dtype=float)
    gammas = np.asarray(gamma_values, dtype=float)
    codes, _ = classify_criticality_arrays(lams[:, None], gammas, tol)
    raw = np.empty(codes.shape)
    phi_eg = np.empty(codes.shape)

    def reduce_tile(rows, cols, args):
        eps, gap = _mode_components(*args)
        cos_theta, n_f = _occupation(eps, gap)
        raw[rows, cols] = np.pi * n_f
        phi_eg[rows, cols] = -np.pi * _frozen_term(cos_theta, gap)

    _run_tiles(reduce_tile, _mode_tiles(lams, gammas, n_sites))
    critical = codes != 0
    raw[critical] = math.nan
    phi_eg[critical] = math.nan
    raw = raw.ravel()
    return PhaseSurface(lams, gammas, codes.ravel(), raw, _wrap_angles(raw), phi_eg.ravel())


# Threads of one surface at most, the caller's among them.  Only a 2-CPU
# host has been measured: two threads beat one there, and more threads than
# CPUs lost to hand-offs of the interpreter lock.  How more threads fare on
# more CPUs is unmeasured, so the cap stays at two until it is.
_TILE_THREADS = 2


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_tiles(work, tiles):
    """Call ``work(*tile)`` for every tile, on min(2, usable CPUs, tiles) threads.

    The calling thread is one of them; with one CPU or one tile no thread is
    started.  Each thread takes the next tile from the shared plan under a
    lock, one at a time, so a thread that the host slows down holds back
    one tile, not a fixed share.  numpy releases the interpreter lock in the
    mode kernel and the reductions, which is where the threads overlap.  The
    first exception from any tile stops the handout; it is raised here once
    every thread has been joined.  ``work`` must call nothing that
    ``benchmarks/tracer.py`` wraps: the tracer's span stack is not
    thread-safe.
    """
    tiles = iter(tiles)
    # One tile per thread, taken ahead, sets the thread count without
    # walking the whole plan.
    head = list(itertools.islice(tiles, min(_TILE_THREADS, _usable_cpus())))
    tiles = itertools.chain(head, tiles)
    lock = threading.Lock()
    errors = []

    def drain():
        # errstate is per thread.  A critical point may have a zero gap;
        # its quotients are discarded.
        with np.errstate(divide="ignore", invalid="ignore"):
            try:
                while True:
                    with lock:
                        tile = None if errors else next(tiles, None)
                    if tile is None:
                        return
                    work(*tile)
            except BaseException as exc:  # raised again by the caller
                with lock:
                    errors.append(exc)

    helpers = [threading.Thread(target=drain) for _ in head[1:]]
    try:
        for thread in helpers:
            thread.start()
        drain()
    finally:
        # However the caller leaves (a thread that would not start, an
        # interrupt), the helpers take no further tile and are joined.
        with lock:
            tiles = iter(())
        for thread in helpers:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]


def _wrap_angles(x: np.ndarray) -> np.ndarray:
    """``wrap_angle`` elementwise; NaN stays NaN.

    fmod is exact, and so is each shift by 2 pi from (pi, 2 pi) or
    (-2 pi, -pi] (Sterbenz), so the result is the same exact representative
    in (-pi, pi] that math.remainder gives.
    """
    two_pi = 2.0 * math.pi
    w = np.fmod(x, two_pi)
    w = np.where(w > math.pi, w - two_pi, w)
    return np.where(w <= -math.pi, w + two_pi, w)


def write_phase_surface_csv(surface: PhaseSurface, path):
    """Write a ``PhaseSurface`` as CSV with ``tables.write_csv``."""
    write_csv(path, PHASE_SURFACE_HEADER, [
        *grid_cells(surface.lam_values, surface.gamma_values),
        surface.raw, surface.wrapped, surface.phi_eg, Cells(STATUS, surface.codes),
    ])
