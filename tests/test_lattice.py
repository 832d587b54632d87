"""Lattice-control algebra: forward map, inversion, Mott check."""

import math

import numpy as np
import pytest

from xyberry import (
    InfeasibleTargetError,
    LatticeParams,
    effective_xy,
    mott_regime_check,
    solve_for_targets,
)


def lattice(**kw):
    base = dict(j_a=1.0, j_b=1.0, j_c=1.0, u_ab=10.0, omega=0.5, delta=1.0, phase=0.0)
    base.update(kw)
    return LatticeParams(**base)


class TestEffectiveXY:
    def test_reference_point(self):
        eff = effective_xy(lattice())
        assert eff.energy_scale == pytest.approx(0.25, abs=1e-15)
        assert eff.gamma == pytest.approx(0.2, abs=1e-15)
        assert eff.lam_raw == pytest.approx(0.25, abs=1e-15)
        assert eff.lam == pytest.approx(1.0, abs=1e-15)  # raw / energy_scale

    def test_no_raman_channel_is_isotropic(self):
        assert effective_xy(lattice(j_c=0.0)).gamma == 0.0

    def test_no_radiation_no_field(self):
        assert effective_xy(lattice(omega=0.0)).lam == 0.0

    def test_all_tunnelling_off_rejected(self):
        with pytest.raises(ValueError):
            effective_xy(lattice(j_a=0.0, j_b=0.0, j_c=0.0))

    def test_gamma_bounded_by_one(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            lp = lattice(
                j_a=rng.uniform(0, 2), j_b=rng.uniform(0, 2), j_c=rng.uniform(0.01, 2)
            )
            assert 0.0 < effective_xy(lp).gamma <= 1.0

    def test_scale_invariance(self):
        lp = lattice()
        eff = effective_xy(lp)
        for s in (0.5, 3.0):
            scaled = LatticeParams(
                j_a=s * lp.j_a,
                j_b=s * lp.j_b,
                j_c=s * lp.j_c,
                u_ab=s * lp.u_ab,
                omega=lp.omega,
                delta=lp.delta,
                phase=lp.phase,
            )
            out = effective_xy(scaled)
            assert out.gamma == pytest.approx(eff.gamma, rel=1e-12)
            assert out.energy_scale == pytest.approx(s * eff.energy_scale, rel=1e-12)

    def test_phase_passthrough_mod_pi(self):
        assert effective_xy(lattice(phase=np.pi + 0.3)).phi == pytest.approx(0.3, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            lattice(u_ab=0.0)
        with pytest.raises(ValueError):
            lattice(delta=0.0)
        with pytest.raises(ValueError):
            lattice(j_a=-0.1)
        with pytest.raises(ValueError):
            lattice(omega=-1.0)

    def test_non_finite_rejected(self):
        for name in ("j_a", "j_b", "j_c", "u_ab", "omega", "delta", "phase"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=name):
                    lattice(**{name: value})


class TestSolveForTargets:
    def test_round_trip_reference(self):
        lp = solve_for_targets(0.2, 0.5, u_ab=10.0, delta=1.0)
        eff = effective_xy(lp)
        assert eff.gamma == pytest.approx(0.2, abs=1e-12)
        assert eff.lam == pytest.approx(0.5, abs=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            g = rng.uniform(1e-3, 1.0)
            lam = rng.uniform(0.0, 3.0)
            delta = rng.uniform(0.2, 5.0)
            u = rng.uniform(0.5, 20.0)
            eff = effective_xy(solve_for_targets(g, lam, u_ab=u, delta=delta))
            assert eff.gamma == pytest.approx(g, abs=1e-12)
            assert eff.lam == pytest.approx(lam, abs=1e-12)

    def test_pure_anisotropy_boundary(self):
        lp = solve_for_targets(1.0, 0.0, u_ab=10.0, delta=1.0)
        assert lp.j_a == 0.0 and lp.j_b == 0.0
        assert lp.omega == 0.0
        assert effective_xy(lp).gamma == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_gamma(self):
        with pytest.raises(InfeasibleTargetError):
            solve_for_targets(1.2, 0.5, u_ab=10.0, delta=1.0)
        with pytest.raises(InfeasibleTargetError):
            solve_for_targets(0.0, 0.5, u_ab=10.0, delta=1.0)

    def test_sign_infeasible_field(self):
        with pytest.raises(InfeasibleTargetError):
            solve_for_targets(0.5, 1.0, u_ab=10.0, delta=-1.0)

    def test_negative_targets_with_matching_detuning(self):
        eff = effective_xy(solve_for_targets(0.5, -0.8, u_ab=10.0, delta=-2.0))
        assert eff.lam == pytest.approx(-0.8, abs=1e-12)


class TestMottCheck:
    def test_deep_mott_passes(self):
        check = mott_regime_check(lattice(j_a=0.01, j_b=0.01, j_c=0.01, u_ab=1.0))
        assert check.ok and check.margin == pytest.approx(0.01)

    def test_shallow_fails(self):
        check = mott_regime_check(lattice(j_c=0.5, u_ab=1.0))
        assert not check.ok
        assert check.margin == pytest.approx(1.0)  # j_a = 1 dominates

    def test_boundary_is_strict(self):
        check = mott_regime_check(
            lattice(j_a=0.1, j_b=0.05, j_c=0.0, u_ab=1.0), threshold=0.1
        )
        assert check.margin == pytest.approx(0.1)
        assert not check.ok

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            mott_regime_check(lattice(), threshold=0.0)
