"""The per-point reference for ``verify``, which only tests read.

At one N, ``cli._verify_points`` takes the closed forms of all the draws from
one array pass (``observables._ground_state_rows``), the oracle's readings
of all of them from one pass (``oracle._even_ground_rows``) and each
discrepancy row from one array operation.  ``verify_points`` is the loop
those passes replaced: every point reads ``ground_phase``, ``ground_energy``
and ``magnetization_analytic``, and the oracle's ``discrete_loop_phase``,
``magnetization_ed``, ``ed_ground_energy`` and, through
``phase_magnetization_identity``, ``sz_cumulants``, on its own, and each
discrepancy is formed from Python floats.  Both must give the same rows, bit
for bit, so ``verify`` writes the same summary, byte for byte.
"""

import numpy as np

from xyberry.cli import VERIFY_THRESHOLDS
from xyberry.model import XYParams, ground_energy
from xyberry.observables import magnetization_analytic, phase_magnetization_identity
from xyberry.oracle import discrete_loop_phase, ed_ground_energy, magnetization_ed
from xyberry.phases import circular_distance, ground_phase


def verify_points(points, n_sites, steps) -> dict:
    """Per row key, one row per N of ``n_sites`` and one column per point, as
    ``cli._verify_points`` returns them."""
    found = {key: np.empty((len(n_sites), len(points))) for key in VERIFY_THRESHOLDS}
    for row, n in enumerate(n_sites):
        for column, (lam, gamma) in enumerate(points):
            xp = XYParams(lam=lam, gamma=gamma, n_sites=n)
            discrete = discrete_loop_phase(xp, "ground", steps).wrapped
            magnetization = magnetization_ed(xp)
            predicted, bound = phase_magnetization_identity(xp, steps, magnetization)
            for key, value in {
                "phase": circular_distance(discrete, ground_phase(xp).wrapped),
                "energy": abs(ground_energy(xp) - ed_ground_energy(xp)),
                "magnetization": abs(magnetization_analytic(xp) - magnetization),
                "identity": circular_distance(discrete, predicted) / bound,
            }.items():
                found[key][row, column] = value
    return found
