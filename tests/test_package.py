"""The package's top-level names.

``xyberry.__all__`` is derived from the imports of ``xyberry/__init__.py``,
so an import added or dropped there changes it; this pins the list.
"""

import xyberry

TOP_LEVEL_NAMES = {
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
    "Criticality",
    "CriticalityClass",
    "GROUND_ENERGY_PREFACTOR",
    "momentum_grid",
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
}


def test_all_holds_the_top_level_names():
    assert len(TOP_LEVEL_NAMES) == 59
    assert len(xyberry.__all__) == len(set(xyberry.__all__))
    assert set(xyberry.__all__) == TOP_LEVEL_NAMES


def test_every_name_resolves():
    namespace = {}
    exec("from xyberry import *", namespace)
    for name in TOP_LEVEL_NAMES:
        assert getattr(xyberry, name) is namespace[name], name
