"""Per-mode references: the Bloch angles of one pair and the minimum-gap mode.

These were the package's per-mode readouts.  Only tests read them, so they
live here, on ``mode_angle_arrays``, as references for the package's
per-point phases and the tie rule of ``argmin_gap``.
"""

from dataclasses import dataclass

import numpy as np

from xyberry.model import XYParams, argmin_gap, mode_angle_arrays, momentum_grid


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


def mode_angles(q: float, params: XYParams) -> ModeAngles:
    """Bloch angles of the pair at momentum q in (0, pi).

    The polar angle uses |gamma|, keeping theta in [0, pi]; cos(theta) and
    every derived phase are even in gamma either way.
    """
    if not 0.0 < q < np.pi:
        raise ValueError(f"momentum must lie strictly inside (0, pi), got {q}")
    eps, gap, theta = mode_angle_arrays(q, params.lam, params.gamma)
    return ModeAngles(float(eps), float(gap), float(theta))


def min_gap_mode(params: XYParams) -> tuple[MomentumMode, ModeAngles]:
    """The momentum mode with the smallest gap; ties go to the smallest q."""
    q = momentum_grid(params.n_sites)
    k0 = argmin_gap(mode_angle_arrays(q, params.lam, params.gamma)[1])
    return MomentumMode(k0, float(q[k0])), mode_angles(float(q[k0]), params)
