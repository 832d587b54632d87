"""Criticality signatures: minimum-gap sweeps, exponent fits, step location.

The excitation gap closes as |g - g_c|^(z nu) on approach to a critical
manifold; a log-log least-squares fit of the minimum gap against the
distance to the critical value recovers the exponent product z*nu.  Only
the product is extracted: separating z from nu would need correlation
lengths, which nothing here computes.

The minimum gap is quadratic in cos q, so neither minimum scans every mode:
the continuum one is the closed-form vertex (``continuum_min_gap_arrays``),
and the finite-N one evaluates a few modes next to the vertex and certifies
them against the rest (``finite_min_gap_arrays``), reducing a full row of
``mode_gap_blocks`` only for points the certificate cannot settle.  The
scalar ``continuum_min_gap`` and ``finite_min_gap`` are the references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import StepDetectionError
from .model import (
    DEFAULT_CRITICAL_TOL,
    classify_criticality_arrays,
    grid_points,
    mode_angle_arrays,
    mode_gap_blocks,
    momentum_grid,
)

__all__ = [
    "SweepSpec",
    "ExponentFit",
    "DEFAULT_FIT_WINDOW",
    "continuum_min_gap",
    "continuum_min_gap_arrays",
    "finite_min_gap",
    "finite_min_gap_arrays",
    "gap_map",
    "gap_sweep",
    "fit_exponent",
    "step_detect",
    "write_step_trace_csv",
]

# Offsets |g - g_c| used for exponent fits: far enough from the critical
# value to avoid floating-point starvation, close enough for the leading
# power law.  CLI-overridable.
DEFAULT_FIT_WINDOW = (1e-3, 1e-1)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter gap sweep: hold one coupling, scan the other.

    ``vary`` names the scanned parameter ('lambda' or 'gamma'),
    ``fixed_value`` pins the other one, and ``values`` are the scan points.
    ``n_sites=None`` means the continuum minimum over q in [0, pi]; an
    integer evaluates the minimum over that chain's momentum grid.
    """

    vary: str
    fixed_value: float
    values: np.ndarray
    n_sites: Optional[int] = None

    def __post_init__(self):
        if self.vary not in ("lambda", "gamma"):
            raise ValueError(f"vary must be 'lambda' or 'gamma', got {self.vary!r}")
        values = np.asarray(self.values, dtype=float)
        if values.size < 8:
            raise ValueError(f"need at least 8 sweep samples, got {values.size}")
        object.__setattr__(self, "values", values)

    @classmethod
    def approach(
        cls,
        vary: str,
        fixed_value: float,
        critical_value: float,
        window: tuple[float, float] = DEFAULT_FIT_WINDOW,
        samples: int = 24,
        side: int = -1,
        n_sites: Optional[int] = None,
    ) -> "SweepSpec":
        """Log-spaced scan points approaching (never touching) g_c from one side."""
        lo, hi = window
        if not 0 < lo < hi:
            raise ValueError(f"window must satisfy 0 < lo < hi, got {window}")
        offsets = np.geomspace(lo, hi, samples)
        return cls(vary, fixed_value, critical_value + side * offsets, n_sites)


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares power-law fit of a gap table near a critical value."""

    exponent: float
    intercept: float
    r_squared: float
    window: tuple[float, float]


def continuum_min_gap(lam: float, gamma: float) -> float:
    """min over q in [0, pi] of the mode gap, in closed form.

    With x = cos q the squared gap (x - lam)^2 + gamma^2 (1 - x^2) is
    quadratic in x; the minimizer is lam / (1 - gamma^2) clamped to [-1, 1]
    when the parabola opens upward, and an endpoint otherwise.
    """
    g2 = gamma * gamma
    candidates = [1.0, -1.0]
    a = 1.0 - g2
    if a > 0.0:
        candidates.append(min(1.0, max(-1.0, lam / a)))
    best = math.inf
    for x in candidates:
        val = (x - lam) ** 2 + g2 * (1.0 - x * x)
        best = min(best, val)
    return math.sqrt(max(best, 0.0))


def continuum_min_gap_arrays(lam, gamma) -> np.ndarray:
    """``continuum_min_gap`` elementwise over broadcast arrays of points.

    The same candidates in the same order (1, -1, then the clamped
    lam / (1 - gamma^2) where that is positive) and the same arithmetic, so
    each value equals the scalar function's.  The square goes through
    ``np.float_power``, which calls C pow as Python's float ``**`` does;
    ``**`` on arrays squares by multiplication, which differs in the last bit
    for about one value in a thousand.  An overflowing square raises
    FloatingPointError, where the scalar function raises OverflowError.
    """
    lam, gamma = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(gamma, dtype=float))
    g2 = gamma * gamma
    a = 1.0 - g2
    opens_up = a > 0.0
    clamped = np.clip(lam / np.where(opens_up, a, 1.0), -1.0, 1.0)
    best = np.full(lam.shape, math.inf)
    for x, present in ((1.0, True), (-1.0, True), (clamped, opens_up)):
        with np.errstate(over="raise"):
            val = np.float_power(x - lam, 2) + g2 * (1.0 - x * x)
        # min(best, val) keeps best unless val < best, NaN included.
        best = np.where(present & (val < best), val, best)
    return np.sqrt(np.maximum(best, 0.0))


def finite_min_gap(n_sites: int, lam: float, gamma: float) -> float:
    """min over the chain's momentum grid of the mode gap."""
    q = momentum_grid(n_sites)
    _, gap, _ = mode_angle_arrays(q, lam, gamma)
    return float(gap.min())


# Rounding slack of the certificate in finite_min_gap_arrays, derived in its
# docstring: the guard's squared gap shrinks by this share, less this times
# gamma^2.
_CERT_SLACK = 2.0**-46
# Smallest certified margin; below it a square may have underflowed.
_CERT_FLOOR = 2.0**-1000


def finite_min_gap_arrays(lam, gamma, n_sites: int) -> np.ndarray:
    """``finite_min_gap`` over equal-length 1-d arrays of points, from a few modes each.

    With x = cos q the squared gap f(x) = (1 - gamma^2) x^2 - 2 lam x +
    lam^2 + gamma^2 is a quadratic, so the minimizing mode is known up to a
    few grid steps.  The grid x_k = cos q_k (k = 0 .. M - 1, M = N/2)
    decreases with k.  Per point:

    When a = 1 - gamma^2 > 0 (f convex), with j the count of x_k above the
    vertex lam / a, modes j - 3 .. j + 2 (clipped to the grid) are
    evaluated, and the two outer ones are guards.  Points with a <= 0
    (|gamma| >= 1) are left to the fallback below.

    Each gap is the kernel's own ``hypot(cos_q[k] - lam, |gamma| sin_q[k])``
    on the one ``cos``/``sin`` of ``momentum_grid(n_sites)``, so it equals
    the ``mode_gap_blocks`` entry and the minimum equals ``finite_min_gap``.

    Certificate.  Every mode left out lies beyond a guard, where by
    convexity the exact f is no smaller than at the guard.  Rounding stands
    between f and the computed gap G, with u = 2^-53:

    * numpy's cos and sin are taken to be within 4 ulp (8u relative), so
      rho = s^2 + c^2 - 1 has |rho| <= 17u, and the kernel's exact
      g^2 = (c - lam)^2 + gamma^2 s^2 = f(c) + gamma^2 rho;
    * eps = c - lam and |gamma| s are each rounded once (u), and ``hypot``
      is within 1 ulp (2u), so G = g (1 + eta) with |eta| < 4u.

    For a mode k beyond guard b, g_k^2 >= f(c_k) - 17u gamma^2 >= f(c_b) -
    17u gamma^2 >= g_b^2 - 34u gamma^2, and so G_k^2 >= (1 - 16u) G_b^2 -
    34u gamma^2.  G_k >= m, the evaluated minimum, follows whenever
    G_b^2 (1 - 2^-46) - 2^-46 gamma^2 >= m^2: 2^-46 = 128u covers 16u and
    34u with room for the few roundings of the test itself.  A guard that
    holds the window's minimum never passes, so a vertex estimate off by
    more than the window (1 - gamma^2 loses its digits as gamma -> 1) makes
    the point fail rather than go wrong.  Both sides that have modes left
    out must pass; the test also asks for finite squares and a margin above
    2^-1000, so overflow and underflow fail it.

    Points that fail or are not convex (flat rows such as lam ~ 0,
    |gamma| ~ 1; |gamma| >= 1; huge lam or gamma; NaN) are reduced over
    ``mode_gap_blocks`` as a whole row.
    """
    lam = np.asarray(lam, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    q = momentum_grid(n_sites)
    cos_q, sin_q = np.cos(q), np.sin(q)
    m_modes = q.size
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g2 = gamma * gamma
        a = 1.0 - g2
        convex = a > 0.0
        vertex = lam / np.where(convex, a, 1.0)
        above = m_modes - np.searchsorted(cos_q[::-1], vertex, side="right")
        # Columns: low guard, four inner modes, high guard.
        idx = np.clip(above[:, None] + np.arange(-3, 3), 0, m_modes - 1)
        gaps = np.hypot(cos_q[idx] - lam[:, None], np.abs(gamma)[:, None] * sin_q[idx])
        best = gaps.min(axis=1)
        best2 = best * best
        ok = convex & np.isfinite(best2)
        for side, left_out in ((0, above - 3 > 0), (-1, above + 2 < m_modes - 1)):
            guard = gaps[:, side]
            margin = guard * guard * (1.0 - _CERT_SLACK) - _CERT_SLACK * g2 - best2
            ok &= ~left_out | (np.isfinite(margin) & (margin >= _CERT_FLOOR))
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        for rows, _, gap in mode_gap_blocks(lam[fallback], gamma[fallback], n_sites):
            best[fallback[rows]] = gap.min(axis=-1)
    return best


def _min_gaps(lam, gamma, n_sites: Optional[int]) -> np.ndarray:
    """Minimum gap at each point: the continuum one, or over N's momentum grid."""
    if n_sites is None:
        return continuum_min_gap_arrays(lam, gamma)
    return finite_min_gap_arrays(lam, gamma, n_sites)


def gap_sweep(spec: SweepSpec) -> np.ndarray:
    """Table of (g, min_gap) rows for the sweep, shape (samples, 2)."""
    fixed = np.full(spec.values.size, spec.fixed_value)
    lam, gamma = (
        (spec.values, fixed) if spec.vary == "lambda" else (fixed, spec.values)
    )
    return np.column_stack((spec.values, _min_gaps(lam, gamma, spec.n_sites)))


def gap_map(lam_values, gamma_values, n_sites: Optional[int] = None,
            tol: float = DEFAULT_CRITICAL_TOL):
    """Minimum gap and criticality over a grid: (lam, gamma, gap, codes, distance).

    Flat arrays in row-major order (lam outer, gamma inner); ``codes`` and
    ``distance`` come from ``classify_criticality_arrays`` and ``gap`` is
    the continuum minimum (``n_sites=None``) or the minimum over the chain's
    momentum grid.  Each entry equals the scalar functions' value.
    """
    lam, gamma = grid_points(lam_values, gamma_values)
    codes, distance = classify_criticality_arrays(lam, gamma, tol)
    return lam, gamma, _min_gaps(lam, gamma, n_sites), codes, distance


def fit_exponent(
    table: np.ndarray,
    g_c: float,
    window: tuple[float, float] = DEFAULT_FIT_WINDOW,
) -> ExponentFit:
    """Slope of log(min_gap) against log|g - g_c| inside the window."""
    table = np.asarray(table, dtype=float)
    lo, hi = window
    dist = np.abs(table[:, 0] - g_c)
    mask = (dist >= lo) & (dist <= hi)
    if np.count_nonzero(mask) < 6:
        raise ValueError(
            f"need at least 6 points with |g - g_c| in [{lo}, {hi}], "
            f"got {np.count_nonzero(mask)}"
        )
    gaps = table[mask, 1]
    if np.any(gaps <= 0.0):
        raise ValueError("nonpositive gap inside the fit window; fit invalid")
    x = np.log(dist[mask])
    y = np.log(gaps)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(float(slope), float(intercept), min(max(r2, 0.0), 1.0), (lo, hi))


def step_detect(lam_values, phi_eg_values) -> float:
    """Locate the relative-phase step along a monotone lambda grid.

    Returns the midpoint of the first grid interval where |phi_eg| crosses
    pi/2, the midpoint of the two plateau values 0 and pi.  Raises when the
    trace never crosses (table entirely inside one branch).
    """
    lam_values = np.asarray(lam_values, dtype=float)
    mags = np.abs(np.asarray(phi_eg_values, dtype=float))
    if lam_values.shape != mags.shape or lam_values.ndim != 1:
        raise ValueError("need matching 1-d lambda and phi_eg arrays")
    if np.any(np.diff(lam_values) <= 0):
        raise ValueError("lambda grid must be strictly increasing")
    above = mags > 0.5 * math.pi
    crossings = np.nonzero(above[:-1] != above[1:])[0]
    if crossings.size == 0:
        raise StepDetectionError("|phi_eg| never crosses pi/2; no step in range")
    i = int(crossings[0])
    return 0.5 * (lam_values[i] + lam_values[i + 1])


def write_step_trace_csv(rows, path):
    """rows: iterable of (gamma, lambda_star)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("gamma,lambda_star\n")
        for gamma, lam_star in rows:
            fh.write(f"{gamma:.12g},{lam_star:.12g}\n")
