"""Criticality signatures: minimum-gap sweeps, exponent fits, step location.

The excitation gap closes as |g - g_c|^(z nu) on approach to a critical
manifold; a log-log least-squares fit of the minimum gap against the
distance to the critical value recovers the exponent product z*nu.  Only
the product is extracted: separating z from nu would need correlation
lengths, which nothing here computes.

The minimum gap is quadratic in cos q, so neither minimum scans every mode:
the continuum one is the closed-form vertex (``continuum_min_gap_arrays``),
and the finite-N one evaluates a few modes next to the vertex and certifies
them against the rest (``finite_min_gap_arrays``), reducing a point's full
row of modes only where the certificate cannot settle it.  The
scalar ``continuum_min_gap`` and ``finite_min_gap`` are one-point views on
these array functions; the independent per-point references that the tests
hold them equal to live in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model
from .errors import StepDetectionError
from .model import (
    DEFAULT_CRITICAL_TOL,
    _finite_points,
    _mode_components,
    _require_count,
    classify_criticality_arrays,
    grid_points,
    momentum_grid,
)
from .tables import STATUS, TAGS, Cells, distinct_cells, grid_cells, write_csv

__all__ = [
    "ExponentFit",
    "DEFAULT_FIT_WINDOW",
    "continuum_min_gap",
    "continuum_min_gap_arrays",
    "finite_min_gap",
    "finite_min_gap_arrays",
    "GapMap",
    "gap_map",
    "gap_sweep",
    "fit_exponent",
    "step_detect",
    "GAP_MAP_HEADER",
    "write_gap_map_csv",
    "write_step_trace_csv",
]

# Offsets |g - g_c| used for exponent fits: far enough from the critical
# value to avoid floating-point starvation, close enough for the leading
# power law.  CLI-overridable.
DEFAULT_FIT_WINDOW = (1e-3, 1e-1)


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares power-law fit of a gap table near a critical value."""

    exponent: float
    intercept: float
    r_squared: float
    window: tuple[float, float]


def continuum_min_gap(lam: float, gamma: float) -> float:
    """min over q in [0, pi] of the mode gap, in closed form; see the array form."""
    return float(continuum_min_gap_arrays(lam, gamma))


def continuum_min_gap_arrays(lam, gamma) -> np.ndarray:
    """min over q in [0, pi] of the mode gap, elementwise over broadcast arrays of points.

    With x = cos q the squared gap (x - lam)^2 + gamma^2 (1 - x^2) is
    quadratic in x; the minimizer is lam / (1 - gamma^2) clamped to [-1, 1]
    when the parabola opens upward, and an endpoint otherwise.  The
    candidates are tried in the order 1, -1, clamped vertex.  At the
    endpoints 1 - x^2 = 0, so a gamma^2 that overflows (|gamma| > 1.34e154)
    leaves the gap ||lam| - 1|.  The square goes through ``np.float_power``,
    which calls C pow as Python's float ``**`` does; ``**`` on arrays squares
    by multiplication, which differs in the last bit for about one value in
    a thousand.  Non-finite input raises ValueError; an overflowing square
    at an endpoint OverflowError, as float ``**`` does.
    """
    lam, gamma = _finite_points(lam, gamma)
    with np.errstate(over="ignore", invalid="ignore"):  # gamma^2 = inf: no vertex
        g2 = gamma * gamma
        a = 1.0 - g2
        opens_up = a > 0.0
        clamped = np.clip(lam / np.where(opens_up, a, 1.0), -1.0, 1.0)
        vertex = np.float_power(clamped - lam, 2) + g2 * (1.0 - clamped * clamped)
    try:
        with np.errstate(over="raise"):
            ends = np.minimum(np.float_power(1.0 - lam, 2), np.float_power(-1.0 - lam, 2))
    except FloatingPointError as exc:
        raise OverflowError(str(exc)) from None
    # min(ends, vertex) keeps ends unless vertex < ends, NaN included.
    best = np.where(opens_up & (vertex < ends), vertex, ends)
    return np.sqrt(np.maximum(best, 0.0))


def finite_min_gap(n_sites: int, lam: float, gamma: float) -> float:
    """min over the chain's momentum grid of the mode gap; see the array form."""
    return float(finite_min_gap_arrays(np.array([lam]), np.array([gamma]), n_sites)[0])


# Rounding slack of the certificate in finite_min_gap_arrays, derived in its
# docstring: the guard's squared gap shrinks by this share, less this times
# gamma^2.
_CERT_SLACK = 2.0**-46
# Smallest certified margin; below it a square may have underflowed.
_CERT_FLOOR = 2.0**-1000


def finite_min_gap_arrays(lam, gamma, n_sites: int) -> np.ndarray:
    """Minimum gap over N's momentum grid at equal-length 1-d arrays of points.

    Each point is settled from a few modes.  With x = cos q the squared gap
    f(x) = (1 - gamma^2) x^2 - 2 lam x + lam^2 + gamma^2 is a quadratic, so
    the minimizing mode is known up to a few grid steps.  The grid
    x_k = cos q_k (k = 0 .. M - 1, M = N/2) decreases with k.  Per point:

    When a = 1 - gamma^2 > 0 (f convex), with j the count of x_k above the
    vertex lam / a, modes j - 3 .. j + 2 (clipped to the grid) are
    evaluated, and the two outer ones are guards.  Points with a <= 0
    (|gamma| >= 1) are left to the fallback below.

    Each gap comes from the mode kernel, ``hypot(cos_q[k] - lam, |gamma|
    sin_q[k])``, on the one ``cos``/``sin`` of ``momentum_grid(n_sites)``,
    so it equals the ``mode_angle_arrays`` gap and the minimum equals the
    full row's.

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
    their full row of N/2 modes by the same kernel, max(1,
    MODE_BLOCK_ELEMENTS // (N/2)) points at a time.
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
        _, gaps = _mode_components(cos_q[idx], np.abs(gamma[:, None]) * sin_q[idx], lam[:, None])
        best = gaps.min(axis=1)
        best2 = best * best
        ok = convex & np.isfinite(best2)
        for side, left_out in ((0, above - 3 > 0), (-1, above + 2 < m_modes - 1)):
            guard = gaps[:, side]
            margin = guard * guard * (1.0 - _CERT_SLACK) - _CERT_SLACK * g2 - best2
            ok &= ~left_out | (np.isfinite(margin) & (margin >= _CERT_FLOOR))
    fallback = np.flatnonzero(~ok)
    step = max(1, model.MODE_BLOCK_ELEMENTS // m_modes)
    for start in range(0, fallback.size, step):
        points = fallback[start:start + step]
        _, gap = _mode_components(cos_q, np.abs(gamma[points, None]) * sin_q, lam[points, None])
        best[points] = gap.min(axis=-1)
    return best


def _min_gaps(lam, gamma, n_sites: Optional[int]) -> np.ndarray:
    """Minimum gap at each point: the continuum one, or over N's momentum grid."""
    if n_sites is None:
        return continuum_min_gap_arrays(lam, gamma)
    return finite_min_gap_arrays(lam, gamma, n_sites)


def gap_sweep(
    vary: str,
    fixed_value: float,
    critical_value: float,
    window: tuple[float, float] = DEFAULT_FIT_WINDOW,
    samples: int = 24,
    side: int = -1,
    n_sites: Optional[int] = None,
) -> np.ndarray:
    """Minimum gaps on a log-spaced approach to a critical value, shape (samples, 2).

    ``vary`` names the scanned coupling ('lambda' or 'gamma') and
    ``fixed_value`` pins the other one.  The scan points are
    g = critical_value + side * geomspace(lo, hi, samples) for
    ``window`` = (lo, hi), finite with 0 < lo < hi, and ``side`` = -1 or +1,
    so they approach the critical value from one side and never touch it;
    ``samples`` is an integer >= 8.  Each row is (g, min_gap): the continuum
    minimum over q in [0, pi] for ``n_sites=None``, else the minimum over that
    chain's momentum grid, whose ``momentum_grid`` checks ``n_sites`` before
    any gap is formed.
    """
    if vary not in ("lambda", "gamma"):
        raise ValueError(f"vary must be 'lambda' or 'gamma', got {vary!r}")
    if side not in (-1, 1):
        raise ValueError(f"side must be -1 or +1, got {side!r}")
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"window must be finite, got {window}")
    if not 0 < lo < hi:
        raise ValueError(f"window must satisfy 0 < lo < hi, got {window}")
    values = critical_value + side * np.geomspace(lo, hi, _require_count("samples", samples, 8))
    fixed = np.full(values.size, fixed_value)
    lam, gamma = (values, fixed) if vary == "lambda" else (fixed, values)
    return np.column_stack((values, _min_gaps(lam, gamma, n_sites)))


@dataclass(frozen=True, eq=False)
class GapMap:
    """The columns of a criticality map over the grid lam_values x gamma_values.

    ``gap``, ``codes`` and ``distance`` hold one entry per grid point in
    row-major order (lam outer, gamma inner); ``len`` is the point count.
    """

    lam_values: np.ndarray
    gamma_values: np.ndarray
    gap: np.ndarray
    codes: np.ndarray
    distance: np.ndarray

    def __len__(self) -> int:
        return self.gap.size


def gap_map(lam_values, gamma_values, n_sites: Optional[int] = None,
            tol: float = DEFAULT_CRITICAL_TOL) -> GapMap:
    """Minimum gap and criticality over a grid, as a ``GapMap``.

    ``codes`` and ``distance`` come from ``classify_criticality_arrays`` and
    ``gap`` is the continuum minimum (``n_sites=None``) or the minimum over
    the chain's momentum grid.  Each entry equals the scalar functions' value.
    """
    lams = np.asarray(lam_values, dtype=float)
    gammas = np.asarray(gamma_values, dtype=float)
    lam, gamma = grid_points(lams, gammas)
    codes, distance = classify_criticality_arrays(lam, gamma, tol)
    return GapMap(lams, gammas, _min_gaps(lam, gamma, n_sites), codes, distance)


def fit_exponent(
    table: np.ndarray,
    g_c: float,
    window: tuple[float, float] = DEFAULT_FIT_WINDOW,
) -> ExponentFit:
    """Slope of log(min_gap) against log|g - g_c| inside the window.

    Raises ValueError when the window holds fewer than 6 points, a
    nonpositive or non-finite gap, or a gap constant across it, which has
    no power law and no r_squared.
    """
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
    if not np.all(np.isfinite(gaps) & (gaps > 0.0)):
        raise ValueError("nonpositive or non-finite gap inside the fit window; fit invalid")
    x = np.log(dist[mask])
    y = np.log(gaps)
    if np.all(y == y[0]):
        raise ValueError(
            f"the gap is constant for |g - g_c| in [{lo}, {hi}]: no power law to fit"
        )
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
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


GAP_MAP_HEADER = "lambda,gamma,min_gap,tag,distance,status"


def write_gap_map_csv(data: GapMap, path):
    """Write a ``GapMap`` as CSV with ``tables.write_csv``; each distinct distance
    is formatted once."""
    write_csv(path, GAP_MAP_HEADER, [
        *grid_cells(data.lam_values, data.gamma_values), data.gap,
        Cells(TAGS, data.codes), distinct_cells(data.distance), Cells(STATUS, data.codes),
    ])


def write_step_trace_csv(columns, path):
    """Write the (gamma values, lambda_star values) columns as CSV."""
    write_csv(path, "gamma,lambda_star", list(columns))
