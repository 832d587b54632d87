"""Momentum-mode solution of the rotated XY spin-1/2 chain.

The chain of N spins with anisotropic xx/yy exchange (anisotropy ``gamma``)
in a transverse field ``lam`` decouples, after the Jordan-Wigner and
Bogoliubov transformations, into independent (k, -k) momentum pairs.  Each
pair is a two-level problem characterized by

    epsilon(q) = cos q - lam
    gap(q)     = sqrt(epsilon^2 + gamma^2 sin^2 q)
    cos theta  = epsilon / gap

with q on the half-odd-integer grid q_m = 2 pi (m + 1/2) / N.  That grid
(antiperiodic fermion boundary conditions) is the sector containing the
periodic chain's paired-mode ground state for even N; the choice is pinned
by the dense-diagonalization oracle in the test suite.

Everything here is pure and deterministic.  ``_mode_tiles`` covers a
grid with disjoint tiles whose values depend on nothing but the tile, so
they may be evaluated in any order, on any thread (``phases.phase_surface``
does), with the same bits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "XYParams",
    "Criticality",
    "CriticalityClass",
    "CRITICALITY_TAGS",
    "GROUND_ENERGY_PREFACTOR",
    "DEFAULT_CRITICAL_TOL",
    "momentum_grid",
    "grid_points",
    "mode_angle_arrays",
    "argmin_gap",
    "ground_energy",
    "classify_criticality",
    "classify_criticality_arrays",
]

# Overall scale relating the paired-mode gap sum to the spin Hamiltonian's
# ground energy, E_g = -PREFACTOR * sum_{k>0} gap_k.  Fixed once against the
# dense oracle at N=4 (the tests re-derive it); each single-pair two-level
# block has eigenvalues -2 cos q -+ 2*gap(q), hence the factor 2.
GROUND_ENERGY_PREFACTOR = 2.0

# Default tolerance for critical-manifold membership; CLI-overridable.
DEFAULT_CRITICAL_TOL = 1e-9

# Elements per block of every block-wise pass over a grid: points x momenta
# in _mode_tiles and in the fallback of ``scaling.finite_min_gap_arrays``, rows
# x columns in the CSV writer (``tables.write_csv``).  2**14 values, 128 KiB
# per float64 or object array, which bounds the memory of each at any grid size.
MODE_BLOCK_ELEMENTS = 2**14


def _require_count(name: str, value, low: int, even: bool = False) -> int:
    """``value`` as an int if it is an integer >= ``low`` (and even, if ``even``);
    else a ValueError that names ``name``.  numpy integers pass, floats do not."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < low or (even and count % 2):
        raise ValueError(f"{name} must be an {'even ' * even}integer >= {low}, got {value}")
    return count


@dataclass(frozen=True)
class XYParams:
    """A point in the chain's control space.

    Parameters
    ----------
    lam : float
        Transverse magnetic field strength (dimensionless).
    gamma : float
        x-y exchange anisotropy (dimensionless).
    n_sites : int
        Number of spins N; must be even and >= 4 so momenta pair as (k, -k).
    phi : float
        In-plane rotation angle in radians.  The rotated Hamiltonian is
        pi-periodic in phi, so phi is stored reduced modulo pi.
    """

    lam: float
    gamma: float
    n_sites: int
    phi: float = 0.0

    def __post_init__(self):
        _require_count("n_sites", self.n_sites, 4, even=True)
        for name in ("lam", "gamma", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        object.__setattr__(self, "phi", float(self.phi) % math.pi)


class Criticality(Enum):
    XX_LINE = "XXLine"
    ISING_PLANE = "IsingPlane"
    NON_CRITICAL = "NonCritical"


# The tags that the codes of classify_criticality_arrays index: code 0 is
# noncritical, so ``codes == 0`` selects the points where phases exist.
CRITICALITY_TAGS = (Criticality.NON_CRITICAL, Criticality.ISING_PLANE, Criticality.XX_LINE)


@dataclass(frozen=True)
class CriticalityClass:
    """Classification of a (lam, gamma) point against the critical manifolds.

    ``distance`` is the Euclidean distance in the (lam, gamma) plane to the
    nearest critical manifold: the segment {gamma = 0, |lam| < 1} or the
    planes {|lam| = 1}.
    """

    tag: Criticality
    distance: float


def momentum_grid(n_sites: int) -> np.ndarray:
    """Positive momenta q_m = 2 pi (m + 1/2) / N, m = 0 .. N/2 - 1."""
    _require_count("n_sites", n_sites, 4, even=True)
    m = np.arange(n_sites // 2)
    return 2.0 * np.pi * (m + 0.5) / n_sites


def _finite_points(lam, gamma):
    """``lam`` and ``gamma`` as broadcast float arrays; ValueError unless all are finite."""
    lam, gamma = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(gamma, dtype=float))
    if not (np.isfinite(lam).all() and np.isfinite(gamma).all()):
        raise ValueError("lam and gamma must be finite")
    return lam, gamma


def grid_points(lam_values, gamma_values):
    """Flattened (lam, gamma) arrays of a grid, row-major: lam outer, gamma inner."""
    lams = np.asarray(lam_values, dtype=float)
    gammas = np.asarray(gamma_values, dtype=float)
    return np.repeat(lams, gammas.size), np.tile(gammas, lams.size)


def _mode_components(cos_q, sines, lam):
    """(epsilon, gap) from cos q, |gamma| sin q and lam; broadcasts.

    The one place the gap is formed: gap = hypot(cos q - lam, |gamma| sin q).
    """
    eps = cos_q - lam
    return eps, np.hypot(eps, sines)


def _modes(lam, gamma, n_sites: int):
    """(epsilon, gap) of every mode of ``momentum_grid(n_sites)`` at each point.

    ``lam`` and ``gamma`` are scalars or 1-d arrays of one length; the modes
    run along the last axis, so one point gives (N/2,) arrays and P points
    (P, N/2) arrays, each value the same bits either way.
    """
    q = momentum_grid(n_sites)
    sines = np.abs(np.asarray(gamma, dtype=float))[..., None] * np.sin(q)
    return _mode_components(np.cos(q), sines, np.asarray(lam, dtype=float)[..., None])


def mode_angle_arrays(q, lam: float, gamma: float):
    """Vectorized (epsilon, gap, theta) over an array of momenta."""
    q = np.asarray(q, dtype=float)
    sines = np.abs(gamma) * np.sin(q)
    eps, gap = _mode_components(np.cos(q), sines, lam)
    theta = np.arctan2(sines, eps)
    # Both components vanish only at a spectral degeneracy; pick the fixed
    # convention theta = pi/2 there (downstream phases are refused anyway).
    theta = np.where((sines == 0.0) & (eps == 0.0), 0.5 * np.pi, theta)
    return eps, gap, theta


def _mode_tiles(lam, gamma, n_sites: int):
    """Plan the tiles of the grid lam x gamma: yields ``(rows, cols, args)``, lazily.

    ``lam`` and ``gamma`` are 1-d float arrays, ``rows`` and ``cols`` the
    slices of them a tile covers.  ``_mode_components(*args)`` evaluates its
    (epsilon, gap), of shapes (rows, 1, N/2) and (rows, cols, N/2) over
    ``momentum_grid(n_sites)``, each value equal to what ``mode_angle_arrays``
    gives at that point.  A tile holds max(1, MODE_BLOCK_ELEMENTS // (N/2))
    points and never splits a point's modes (the N_f sum and ``argmin_gap``
    need the whole row): as many whole rows as fit, else one row of fewer
    columns.  |gamma| sin q is formed once per column block and cos q - lam
    once per row of it, so per point and mode only the hypot remains.
    """
    q = momentum_grid(n_sites)
    cos_q, sin_q = np.cos(q), np.sin(q)
    points = MODE_BLOCK_ELEMENTS // q.size
    col_step = max(1, min(gamma.size, points))
    row_step = max(1, points // col_step)
    for c0 in range(0, gamma.size, col_step):
        cols = slice(c0, c0 + col_step)
        sines = np.abs(gamma[cols, None]) * sin_q
        for r0 in range(0, lam.size, row_step):
            rows = slice(r0, r0 + row_step)
            yield rows, cols, (cos_q, sines, lam[rows, None, None])


def argmin_gap(gaps):
    """Index of the smallest gap along the last axis; ties go to the smallest momentum.

    Exact ties occur (e.g. lam = 0, where the spectrum is symmetric under
    q -> pi - q), so the tie-break takes the first index within a relative
    tolerance of the minimum rather than raw argmin over floating-point
    values.  Returns an int for 1-d input and an index array otherwise.
    """
    # The reductions are called as ufunc and ndarray methods, not through
    # the np.min/np.argmax wrappers: the surface runs this once per tile on
    # every thread, and the wrappers' Python is time under the interpreter
    # lock.  Same reductions, same bits.
    gaps = np.asarray(gaps, dtype=float)
    gmin = np.minimum.reduce(gaps, axis=-1, keepdims=True)
    tol = 1e-12 * (1.0 + np.abs(gmin))
    k = (gaps <= gmin + tol).argmax(axis=-1)
    return int(k) if gaps.ndim == 1 else k


def _ground_energies(gap):
    """E_g = -2 sum_{k>0} gap_k along the last axis of ``gap``."""
    return -GROUND_ENERGY_PREFACTOR * np.add.reduce(gap, axis=-1)


def ground_energy(params: XYParams) -> float:
    """Ground-state energy E_g = -2 sum_{k>0} gap_k.

    Independent of params.phi: the in-plane rotation is isospectral.
    """
    return float(_ground_energies(_modes(params.lam, params.gamma, params.n_sites)[1]))


def _require_tol(tol: float) -> None:
    """ValueError unless the classifiers' ``tol`` is finite and positive."""
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")


def classify_criticality(
    lam: float, gamma: float, tol: float = DEFAULT_CRITICAL_TOL
) -> CriticalityClass:
    """Classify (lam, gamma) against the two critical manifolds.

    The planes |lam| = 1 host second-order transitions (level avoiding);
    the segment gamma = 0, |lam| < 1 is first order with an actual level
    crossing.  Membership is decided within ``tol``; the planes win when a
    point sits on both (the segment endpoints).  Non-finite input raises
    ValueError.
    """
    if not (math.isfinite(lam) and math.isfinite(gamma)):
        raise ValueError(f"lam and gamma must be finite, got {lam}, {gamma}")
    _require_tol(tol)
    ising_dist = abs(abs(lam) - 1.0)
    xx_dist = abs(gamma) if abs(lam) < 1.0 else math.inf
    distance = min(ising_dist, xx_dist)
    if ising_dist <= tol:
        tag = Criticality.ISING_PLANE
    elif abs(gamma) <= tol and abs(lam) < 1.0:
        tag = Criticality.XX_LINE
    else:
        tag = Criticality.NON_CRITICAL
    return CriticalityClass(tag, float(distance))


def classify_criticality_arrays(lam, gamma, tol: float = DEFAULT_CRITICAL_TOL):
    """``classify_criticality`` over arrays of points: (codes, distance).

    ``codes`` index ``CRITICALITY_TAGS``; ``lam`` and ``gamma`` broadcast.
    Each point gets the tag and distance the scalar function gives it, from
    the same operations in the same order, so both are equal, not merely
    close.  Non-finite input or a nonpositive ``tol`` raises ValueError.
    """
    lam, gamma = _finite_points(lam, gamma)
    _require_tol(tol)
    abs_lam, abs_gamma = np.abs(lam), np.abs(gamma)
    ising_dist = np.abs(abs_lam - 1.0)
    inside = abs_lam < 1.0
    distance = np.minimum(ising_dist, np.where(inside, abs_gamma, math.inf))
    # np.select takes the first true condition, so the planes win as above.
    codes = np.select([ising_dist <= tol, inside & (abs_gamma <= tol)], [1, 2], 0)
    return codes.astype(np.int8), distance
