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

Everything here is pure and deterministic; sweeps can be parallelized
externally without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "XYParams",
    "MomentumMode",
    "ModeAngles",
    "Criticality",
    "CriticalityClass",
    "CRITICALITY_TAGS",
    "GROUND_ENERGY_PREFACTOR",
    "DEFAULT_CRITICAL_TOL",
    "momentum_grid",
    "grid_points",
    "mode_angles",
    "mode_angle_arrays",
    "mode_gap_blocks",
    "argmin_gap",
    "min_gap_mode",
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

# Elements per block of every block-wise pass over a grid: grid points x
# momenta in mode_gap_blocks, rows x columns in the CSV writer
# (``tables.write_csv``).  2**14 values, 128 KiB per float64 or object array,
# which bounds the memory of both at any grid size.
MODE_BLOCK_ELEMENTS = 2**14


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
        if self.n_sites < 4 or self.n_sites % 2 != 0:
            raise ValueError(
                f"n_sites must be an even integer >= 4, got {self.n_sites}"
            )
        for name in ("lam", "gamma", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        object.__setattr__(self, "phi", float(self.phi) % math.pi)


@dataclass(frozen=True)
class MomentumMode:
    """One positive momentum q = 2 pi (index + 1/2) / N, q in (0, pi)."""

    index: int
    q: float


@dataclass(frozen=True)
class ModeAngles:
    """Bloch-vector data of a single (k, -k) pair.

    ``gap`` is the pair's excitation energy scale; ``theta`` in [0, pi] is
    the polar angle with cos(theta) * gap = epsilon.
    """

    epsilon: float
    gap: float
    theta: float


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
    if n_sites < 4 or n_sites % 2 != 0:
        raise ValueError(f"n_sites must be an even integer >= 4, got {n_sites}")
    m = np.arange(n_sites // 2)
    return 2.0 * np.pi * (m + 0.5) / n_sites


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


def _point_modes(params: XYParams):
    """(epsilon, gap) of every mode of ``momentum_grid`` at one point."""
    q = momentum_grid(params.n_sites)
    return _mode_components(np.cos(q), abs(params.gamma) * np.sin(q), params.lam)


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


def mode_gap_blocks(lam, gamma, n_sites: int):
    """(epsilon, gap) over rows of lam against columns of gamma, one tile at a time.

    ``lam`` is a 1-d array of R row values.  ``gamma`` is either a 1-d array
    of C columns that every row shares (the grid lam x gamma, as a phase
    surface has it), or an (R, C) array of each row's own columns (scattered
    points are rows of one column).  Yields ``(rows, cols, eps, gap)`` with
    ``rows`` and ``cols`` the slices covered, ``eps`` of shape
    (rows, 1, N/2) and ``gap`` of shape (rows, cols, N/2), the momenta of
    ``momentum_grid(n_sites)`` along the last axis.  Each value equals what
    ``mode_angle_arrays`` gives for the same point; theta is not formed.

    A tile holds max(1, MODE_BLOCK_ELEMENTS // (N/2)) points: a whole row
    of columns and as many rows as fit, else fewer columns and one row.  A
    point's N/2 modes are never split, because the reductions over them
    (the N_f sum, ``argmin_gap``) need the whole row; so past N/2 =
    MODE_BLOCK_ELEMENTS a tile is one point.  Tiles run column block by
    column block, so |gamma| sin q of shared columns is formed once per
    column block and cos q - lam once per row of it; per point and mode
    only the hypot remains.
    """
    q = momentum_grid(n_sites)
    cos_q, sin_q = np.cos(q), np.sin(q)
    lam = np.asarray(lam, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    shared = gamma.ndim == 1
    points = MODE_BLOCK_ELEMENTS // q.size
    col_step = max(1, min(gamma.shape[-1], points))
    row_step = max(1, points // col_step)
    for c0 in range(0, gamma.shape[-1], col_step):
        cols = slice(c0, c0 + col_step)
        if shared:
            sines = np.abs(gamma[cols, None]) * sin_q
        for r0 in range(0, lam.size, row_step):
            rows = slice(r0, r0 + row_step)
            if not shared:
                sines = np.abs(gamma[rows, cols, None]) * sin_q
            eps, gap = _mode_components(cos_q, sines, lam[rows, None, None])
            yield rows, cols, eps, gap


def mode_angles(q: float, params: XYParams) -> ModeAngles:
    """Bloch angles of the pair at momentum q in (0, pi).

    The polar angle uses |gamma|, keeping theta in [0, pi]; cos(theta) and
    every derived phase are even in gamma either way.
    """
    if not 0.0 < q < np.pi:
        raise ValueError(f"momentum must lie strictly inside (0, pi), got {q}")
    eps, gap, theta = mode_angle_arrays(q, params.lam, params.gamma)
    return ModeAngles(float(eps), float(gap), float(theta))


def argmin_gap(gaps):
    """Index of the smallest gap along the last axis; ties go to the smallest momentum.

    Exact ties occur (e.g. lam = 0, where the spectrum is symmetric under
    q -> pi - q), so the tie-break takes the first index within a relative
    tolerance of the minimum rather than raw argmin over floating-point
    values.  Returns an int for 1-d input and an index array otherwise.
    """
    gaps = np.asarray(gaps, dtype=float)
    gmin = gaps.min(axis=-1, keepdims=True)
    tol = 1e-12 * (1.0 + np.abs(gmin))
    k = np.argmax(gaps <= gmin + tol, axis=-1)
    return int(k) if gaps.ndim == 1 else k


def min_gap_mode(params: XYParams) -> tuple[MomentumMode, ModeAngles]:
    """The momentum mode with the smallest gap; ties go to the smallest q."""
    q = momentum_grid(params.n_sites)
    k0 = argmin_gap(_point_modes(params)[1])
    return MomentumMode(k0, float(q[k0])), mode_angles(float(q[k0]), params)


def ground_energy(params: XYParams) -> float:
    """Ground-state energy E_g = -2 sum_{k>0} gap_k.

    Independent of params.phi: the in-plane rotation is isospectral.
    """
    return -GROUND_ENERGY_PREFACTOR * float(_point_modes(params)[1].sum())


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
    if not (math.isfinite(lam) and math.isfinite(gamma) and math.isfinite(tol)):
        raise ValueError(f"lam, gamma and tol must be finite, got {lam}, {gamma}, {tol}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
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
    lam = np.asarray(lam, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if not (np.isfinite(lam).all() and np.isfinite(gamma).all() and math.isfinite(tol)):
        raise ValueError(f"lam, gamma and tol must be finite (tol={tol})")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    abs_lam, abs_gamma = np.abs(lam), np.abs(gamma)
    ising_dist = np.abs(abs_lam - 1.0)
    inside = abs_lam < 1.0
    distance = np.minimum(ising_dist, np.where(inside, abs_gamma, math.inf))
    # np.select takes the first true condition, so the planes win as above.
    codes = np.select([ising_dist <= tol, inside & (abs_gamma <= tol)], [1, 2], 0)
    return codes.astype(np.int8), distance
