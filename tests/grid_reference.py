"""Reference grid products: the point-block surface kernel and the row writers.

These are the earlier implementations of the phase surface and of the three
CSV writers, kept as references for the column-wise ones in the package:
the surface reduces blocks of flattened (lam, gamma) points, each point with
its own cos q - lam and |gamma| sin q, and every writer formats each row
with one %-format, axis values included.  The tests compare the package's
artifacts with these byte for byte.
"""

import math

import numpy as np

from xyberry.model import (
    CRITICALITY_TAGS,
    DEFAULT_CRITICAL_TOL,
    Criticality,
    argmin_gap,
    classify_criticality_arrays,
    grid_points,
    momentum_grid,
)
from xyberry.phases import PHASE_SURFACE_HEADER, wrap_angle

# Elements (points x momenta) per block of the reference kernel.
REFERENCE_BLOCK_ELEMENTS = 2**14


def mode_gap_blocks_reference(lam, gamma, n_sites, block=REFERENCE_BLOCK_ELEMENTS):
    """(rows, eps, gap) over equal-length 1-d point arrays, a block of points at a time."""
    q = momentum_grid(n_sites)
    cos_q, sin_q = np.cos(q), np.sin(q)
    lam = np.asarray(lam, dtype=float)[:, None]
    gamma = np.asarray(gamma, dtype=float)[:, None]
    step = max(1, block // q.size)
    for start in range(0, lam.shape[0], step):
        rows = slice(start, start + step)
        eps = cos_q - lam[rows]
        yield rows, eps, np.hypot(eps, np.abs(gamma[rows]) * sin_q)


def phase_surface_reference(lam_values, gamma_values, n_sites, tol=DEFAULT_CRITICAL_TOL):
    """Rows (lam, gamma, phi_g raw, phi_g wrapped, phi_eg, status), row-major."""
    lam, gamma = grid_points(lam_values, gamma_values)
    codes, _ = classify_criticality_arrays(lam, gamma, tol)
    idx = np.flatnonzero(codes == 0)
    raw = np.full(lam.size, math.nan)
    phi_eg = np.full(lam.size, math.nan)
    for rows, eps, gap in mode_gap_blocks_reference(lam[idx], gamma[idx], n_sites):
        cos_theta = eps / gap
        raw[idx[rows]] = np.pi * np.sum(1.0 - cos_theta, axis=-1)
        k0 = argmin_gap(gap)
        phi_eg[idx[rows]] = -np.pi * (1.0 - cos_theta[np.arange(k0.size), k0])
    status = np.where(codes == 0, "ok", "critical").tolist()
    wrapped = [wrap_angle(x) for x in raw.tolist()]
    return list(zip(lam.tolist(), gamma.tolist(), raw.tolist(), wrapped, phi_eg.tolist(), status))


def write_phase_surface_reference(rows, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(PHASE_SURFACE_HEADER + "\n")
        fh.write("".join(["%.12g,%.12g,%.12g,%.12g,%.12g,%s\n" % tuple(row) for row in rows]))


_GAP_MAP_ROWS = tuple(
    f"%.12g,%.12g,%.12g,{tag.value},%.12g,"
    + ("ok" if tag is Criticality.NON_CRITICAL else "critical")
    for tag in CRITICALITY_TAGS
)


def write_gap_map_reference(lam, gamma, gap, codes, distance, path):
    """Flat row-major columns, one %-format per row."""
    lines = ["lambda,gamma,min_gap,tag,distance,status"]
    lines += [
        _GAP_MAP_ROWS[c] % (l, g, m, d)
        for c, l, g, m, d in zip(
            np.asarray(codes).tolist(), np.asarray(lam).tolist(), np.asarray(gamma).tolist(),
            np.asarray(gap).tolist(), np.asarray(distance).tolist(),
        )
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_step_trace_reference(rows, path):
    """rows: iterable of (gamma, lambda_star)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("gamma,lambda_star\n")
        for gamma, lam_star in rows:
            fh.write(f"{gamma:.12g},{lam_star:.12g}\n")
