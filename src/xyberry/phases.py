"""Closed-form geometric phases for loops of the in-plane rotation angle.

All phases refer to one circuit phi: 0 -> pi of the rotated chain (the
Hamiltonian is pi-periodic, so this is a closed loop); multi-winding loops
multiply the raw value.  A raw (unwrapped) value and its representative in
(-pi, pi] are both reported, because the raw ground-state sum grows with N
while only the wrapped value is physical modulo 2 pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CriticalPointError
from .model import (
    DEFAULT_CRITICAL_TOL,
    Criticality,
    XYParams,
    argmin_gap,
    classify_criticality,
    classify_criticality_arrays,
    grid_points,
    min_gap_mode,
    mode_angle_arrays,
    mode_gap_blocks,
    momentum_grid,
)

__all__ = [
    "PhaseResult",
    "BlochLoopSpec",
    "wrap_angle",
    "circular_distance",
    "spin_half_connection",
    "spin_half_phase",
    "ground_phase",
    "excited_phase",
    "relative_phase_finite",
    "relative_phase_thermo",
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


def ground_phase(params: XYParams, tol: float = DEFAULT_CRITICAL_TOL) -> PhaseResult:
    """Ground-state phase for one phi circuit: sum_k pi (1 - cos theta_k).

    Every (k, -k) pair is a Bloch vector at polar angle theta_k whose
    azimuth winds once around the axis, so the pair contributes half its
    solid angle.  Independent of params.phi (the loop, not its starting
    point, fixes the phase).  Raises on critical manifolds, where the
    degeneracy makes the phase undefined.
    """
    _require_noncritical(params, tol)
    q = momentum_grid(params.n_sites)
    eps, gap, _ = mode_angle_arrays(q, params.lam, params.gamma)
    cos_theta = eps / gap
    return PhaseResult.from_value(float(np.pi * np.sum(1.0 - cos_theta)))


def relative_phase_finite(
    params: XYParams, tol: float = DEFAULT_CRITICAL_TOL
) -> PhaseResult:
    """Excited-minus-ground phase at finite N: -pi (1 - cos theta_{k0}).

    The lowest excitation freezes the minimum-gap pair, which then stops
    contributing to the loop phase; the difference collapses to that single
    mode's term.  The topological/geometric split is reported on the branch
    |lam| < 1 - gamma^2 where it is meaningful.
    """
    _require_noncritical(params, tol)
    _, angles = min_gap_mode(params)
    cos_theta = angles.epsilon / angles.gap
    value = -math.pi * (1.0 - cos_theta)
    topo = -math.pi if _on_nontrivial_branch(params.lam, params.gamma) else 0.0
    return PhaseResult.from_value(value, topological_part=topo)


def _on_nontrivial_branch(lam: float, gamma: float) -> bool:
    return abs(lam) < 1.0 - gamma * gamma


def relative_phase_thermo(lam: float, gamma: float) -> PhaseResult:
    """Thermodynamic (N -> infinity) limit of the relative phase.

    Exactly 0 for |lam| > 1 - gamma^2 (the frozen pair is fully axis
    aligned); on the complementary branch

        -pi + pi * lam * gamma / sqrt((1 - gamma^2)(1 - gamma^2 - lam^2)),

    a topological -pi plus a geometric remainder that is odd in lam.  The
    XX segment gamma = 0, |lam| < 1 is excluded (critical line).
    """
    if gamma == 0.0 and abs(lam) <= 1.0:
        raise CriticalPointError(
            "relative phase undefined on the XX critical segment (gamma=0, |lam|<=1)"
        )
    if not _on_nontrivial_branch(lam, gamma):
        return PhaseResult.from_value(0.0)
    c = 1.0 - gamma * gamma
    disc = c * (c - lam * lam)
    # Branch condition |lam| < 1 - gamma^2 < 1 forces c - lam^2 > 0.
    assert disc > 0.0, "nontrivial branch implies a positive discriminant"
    geometric = math.pi * lam * gamma / math.sqrt(disc)
    return PhaseResult.from_value(-math.pi + geometric, topological_part=-math.pi)


def excited_phase(params: XYParams, tol: float = DEFAULT_CRITICAL_TOL) -> PhaseResult:
    """Standalone excited-level phase, ground_phase + relative_phase_finite.

    Convention dependent: only the relative phase is fixed by the loop; the
    absolute excited value inherits the ground-state summation convention.
    """
    g = ground_phase(params, tol)
    r = relative_phase_finite(params, tol)
    return PhaseResult.from_value(g.value + r.value)


PHASE_SURFACE_HEADER = "lambda,gamma,phi_g_raw,phi_g_wrapped,phi_eg,status"


def phase_surface(
    lam_values,
    gamma_values,
    n_sites: int,
    tol: float = DEFAULT_CRITICAL_TOL,
) -> list[tuple[float, float, float, float, float, str]]:
    """Tabulate (phi_g raw, phi_g wrapped, phi_eg) over a parameter grid.

    Rows are emitted in row-major order (lam outer, gamma inner).  Grid
    points on a critical manifold are kept, with NaN phases and status
    'critical', so the table shape is deterministic and nothing is dropped
    silently.  The grid is classified, reduced over ``mode_gap_blocks`` and
    wrapped as whole arrays; each row equals the per-point phases exactly.
    """
    lam, gamma = grid_points(lam_values, gamma_values)
    codes, _ = classify_criticality_arrays(lam, gamma, tol)
    ok = codes == 0
    # Only noncritical points reach the kernel, where every gap is nonzero.
    idx = np.flatnonzero(ok)
    raw = np.full(lam.size, math.nan)
    phi_eg = np.full(lam.size, math.nan)
    for rows, eps, gap in mode_gap_blocks(lam[idx], gamma[idx], n_sites):
        cos_theta = eps / gap
        raw[idx[rows]] = np.pi * np.sum(1.0 - cos_theta, axis=-1)
        k0 = argmin_gap(gap)
        phi_eg[idx[rows]] = -np.pi * (1.0 - cos_theta[np.arange(k0.size), k0])
    status = np.where(ok, "ok", "critical").tolist()
    return list(zip(
        lam.tolist(), gamma.tolist(), raw.tolist(), _wrap_angles(raw).tolist(),
        phi_eg.tolist(), status,
    ))


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


# One %-format per CSV row: '%.12g' % x == format(x, '.12g'), and NaN of
# either sign prints as 'nan'.
_SURFACE_ROW = "%.12g,%.12g,%.12g,%.12g,%.12g,%s\n"


def write_phase_surface_csv(rows, path):
    """Write phase-surface rows as CSV (12 significant digits, LF, UTF-8)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(PHASE_SURFACE_HEADER + "\n")
        fh.write("".join([_SURFACE_ROW % tuple(row) for row in rows]))
