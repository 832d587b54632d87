"""Bridge between loop phases and ground-state expectation values.

A Hermitian operator O that rotates the ground state back to itself after
time T relates its expectation value to the loop phase through
phase = lam_T * <O>.  For the XY chain the rotation generator is the total
z magnetization, which turns the ground-state phase into an order-parameter
readout: phi_g = pi * (N + M_z) / 2.  ``phase_magnetization_identity``
predicts the oracle's discrete loop phase from M_z, so the identity is checked
on the oracle; ``cli._verify_points`` computes ``verify``'s ``identity`` row
from the same terms (``_identity_terms``), fed by the oracle's pass over rows.
"""

from __future__ import annotations

import math

from .model import XYParams, _ground_energies, _modes, _require_count
from .oracle import sz_cumulants
from .phases import _ground_phases, _occupation, _point_occupation, _wrap_angles

__all__ = ["magnetization_analytic", "phase_magnetization_identity"]


def magnetization_analytic(params: XYParams) -> float:
    """Total z magnetization M_z = 2 N_f - N of the paired-mode ground state.

    N_f = sum_{k>0} (1 - cos theta_k) is the fermion occupation; the sign
    convention (occupied mode = spin up, so M_z -> +N in a strong field) is
    calibrated once against the dense oracle.
    """
    _, n_f, _ = _point_occupation(params)
    return float(_magnetizations(n_f, params.n_sites))


def _magnetizations(n_f, n_sites: int):
    """M_z = 2 N_f - N of occupations ``n_f`` (see ``magnetization_analytic``)."""
    return 2.0 * n_f - n_sites


def _ground_state_rows(lam, gamma, n_sites: int):
    """(phi_g wrapped, E_g, M_z) at each point of the 1-d arrays ``lam`` and ``gamma``.

    One call of the mode kernel on a (points, N/2) array and one reduction
    of its occupations.  Each value equals, bit for bit, ``ground_phase(p).
    wrapped``, ``ground_energy(p)`` and ``magnetization_analytic(p)`` at that
    point.  The points are not classified here: ``verify`` draws them more
    than ``cli.NONCRITICAL_MARGIN`` from every critical manifold.
    """
    eps, gap = _modes(lam, gamma, n_sites)
    _, n_f = _occupation(eps, gap)
    return _wrap_angles(_ground_phases(n_f)), _ground_energies(gap), _magnetizations(n_f, n_sites)


def phase_magnetization_identity(
    params: XYParams, steps: int, magnetization: float
) -> tuple[float, float]:
    """The oracle's m-step ground loop phase predicted from M_z = ``magnetization``.

    Over m = ``steps`` (an integer >= 8) the cumulant expansion of
    ``discrete_loop_phase(params, "ground", steps)`` is pi (N + kappa_1) / 2
    - pi^3 kappa_3 / (48 m^2) + pi^5 kappa_5 / (3840 m^4) - ..., kappa_n the
    cumulants of S^z (``sz_cumulants``).  Returns (predicted, bound): the first
    two terms with kappa_1 = ``magnetization``, and twice the third term plus
    1e-13 m for the rounding of arg chi, which the loop phase multiplies by m.
    """
    steps = _require_count("steps", steps, 8)
    _, _, k3, _, k5 = sz_cumulants(params)
    return _identity_terms(params.n_sites, steps, magnetization, k3, k5)


def _identity_terms(n_sites: int, steps: int, magnetization, k3, k5) -> tuple:
    """(predicted, bound) of ``phase_magnetization_identity`` from kappa_1 =
    ``magnetization``, kappa_3 = ``k3`` and kappa_5 = ``k5``."""
    predicted = math.pi * (n_sites + magnetization) / 2 - math.pi**3 * k3 / (48 * steps**2)
    bound = 2 * math.pi**5 * abs(k5) / (3840 * steps**4) + 1e-13 * steps
    return predicted, bound
