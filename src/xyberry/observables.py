"""Bridge between loop phases and ground-state expectation values.

A Hermitian operator O that rotates the ground state back to itself after
time T relates its expectation value to the loop phase through
phase = lam_T * <O>.  For the XY chain the rotation generator is the total
z magnetization, which turns the ground-state phase into an order-parameter
readout: phi_g = pi * (N + M_z) / 2.
"""

from __future__ import annotations

import numpy as np

from .model import XYParams
from .phases import _point_occupation, ground_phase

__all__ = ["magnetization_analytic", "phase_magnetization_identity"]


def magnetization_analytic(params: XYParams) -> float:
    """Total z magnetization M_z = 2 N_f - N of the paired-mode ground state.

    N_f = sum_{k>0} (1 - cos theta_k) is the fermion occupation; the sign
    convention (occupied mode = spin up, so M_z -> +N in a strong field) is
    calibrated once against the dense oracle.
    """
    _, n_f, _ = _point_occupation(params)
    return 2.0 * float(n_f) - params.n_sites


def phase_magnetization_identity(params: XYParams) -> tuple[float, float]:
    """Both sides of phi_g = pi (N + M_z) / 2; equal in exact arithmetic."""
    lhs = ground_phase(params).value
    rhs = 0.5 * np.pi * (params.n_sites + magnetization_analytic(params))
    return lhs, float(rhs)
