"""Geometric phases, criticality maps, and exponent fits for the rotated XY chain.

The package pairs a closed-form momentum-mode solution of the chain with a
dense-diagonalization oracle so every analytic result can be checked against
brute force at small system sizes.  See README.md for a tour.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    CriticalPointError,
    DegenerateLevelWarning,
    DiscretizationError,
    InfeasibleTargetError,
    ResourceLimitError,
    StepDetectionError,
    XYBerryError,
)
from .lattice import (
    EffectiveParams,
    LatticeParams,
    MottCheck,
    effective_xy,
    mott_regime_check,
    solve_for_targets,
)
from .model import (
    GROUND_ENERGY_PREFACTOR,
    Criticality,
    CriticalityClass,
    XYParams,
    classify_criticality,
    classify_criticality_arrays,
    ground_energy,
    momentum_grid,
)
from .observables import magnetization_analytic, phase_magnetization_identity
from .oracle import (
    LoopTrace,
    discrete_loop_phase,
    ed_ground_energy,
    loop_states,
    magnetization_ed,
    pancharatnam_phase,
    spin_half_loop_phase,
    sz_cumulants,
)
from .phases import (
    PhaseResult,
    circular_distance,
    ground_phase,
    phase_surface,
    relative_phase_finite,
    relative_phase_thermo,
    relative_phase_thermo_arrays,
    spin_half_connection,
    spin_half_phase,
    wrap_angle,
)
from .scaling import (
    ExponentFit,
    continuum_min_gap,
    continuum_min_gap_arrays,
    finite_min_gap,
    finite_min_gap_arrays,
    fit_exponent,
    gap_map,
    gap_sweep,
    step_detect,
)

# The imports above are the one list of top-level names.
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
