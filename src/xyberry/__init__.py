"""Geometric phases, criticality maps, and exponent fits for the rotated XY chain.

The package pairs a closed-form momentum-mode solution of the chain with a
dense-diagonalization oracle so every analytic result can be checked against
brute force at small system sizes.  See README.md for a tour.
"""

__version__ = "0.1.0"

from .errors import (
    CriticalPointError,
    DegenerateLevelWarning,
    DiscretizationError,
    InfeasibleTargetError,
    ResourceLimitError,
    StepDetectionError,
    TrackingError,
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
    ModeAngles,
    MomentumMode,
    XYParams,
    classify_criticality,
    classify_criticality_arrays,
    ground_energy,
    min_gap_mode,
    mode_angles,
    momentum_grid,
)
from .observables import (
    CyclicGeneratorSpec,
    expectation_from_phase,
    magnetization_analytic,
    phase_magnetization_identity,
)
from .oracle import (
    EigenPair,
    LoopDiscretization,
    LoopTrace,
    discrete_loop_phase,
    ed_ground_energy,
    loop_states,
    magnetization_ed,
    pancharatnam_phase,
    sector_ground,
    spin_half_loop_phase,
    sz_cumulants,
)
from .phases import (
    BlochLoopSpec,
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
    SweepSpec,
    continuum_min_gap,
    continuum_min_gap_arrays,
    finite_min_gap,
    finite_min_gap_arrays,
    fit_exponent,
    gap_map,
    gap_sweep,
    step_detect,
)

__all__ = [
    "__version__",
    # errors
    "XYBerryError",
    "CriticalPointError",
    "ResourceLimitError",
    "TrackingError",
    "DiscretizationError",
    "StepDetectionError",
    "InfeasibleTargetError",
    "DegenerateLevelWarning",
    # model
    "XYParams",
    "MomentumMode",
    "ModeAngles",
    "Criticality",
    "CriticalityClass",
    "GROUND_ENERGY_PREFACTOR",
    "momentum_grid",
    "mode_angles",
    "min_gap_mode",
    "ground_energy",
    "classify_criticality",
    "classify_criticality_arrays",
    # phases
    "PhaseResult",
    "BlochLoopSpec",
    "wrap_angle",
    "circular_distance",
    "spin_half_connection",
    "spin_half_phase",
    "ground_phase",
    "relative_phase_finite",
    "relative_phase_thermo",
    "relative_phase_thermo_arrays",
    "phase_surface",
    # observables
    "CyclicGeneratorSpec",
    "expectation_from_phase",
    "magnetization_analytic",
    "phase_magnetization_identity",
    # oracle
    "EigenPair",
    "LoopDiscretization",
    "LoopTrace",
    "sector_ground",
    "ed_ground_energy",
    "magnetization_ed",
    "sz_cumulants",
    "pancharatnam_phase",
    "loop_states",
    "discrete_loop_phase",
    "spin_half_loop_phase",
    # scaling
    "SweepSpec",
    "ExponentFit",
    "continuum_min_gap",
    "continuum_min_gap_arrays",
    "finite_min_gap",
    "finite_min_gap_arrays",
    "gap_map",
    "gap_sweep",
    "fit_exponent",
    "step_detect",
    # lattice
    "LatticeParams",
    "EffectiveParams",
    "MottCheck",
    "effective_xy",
    "solve_for_targets",
    "mott_regime_check",
]
