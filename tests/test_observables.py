"""The closed-form magnetization and the phase-magnetization identity."""

import numpy as np
import pytest

from xyberry import (
    CriticalPointError,
    XYParams,
    circular_distance,
    classify_criticality,
    classify_criticality_arrays,
    discrete_loop_phase,
    ground_energy,
    ground_phase,
    magnetization_analytic,
    magnetization_ed,
    observables,
    phase_magnetization_identity,
)


def params(lam, gamma, n):
    return XYParams(lam=lam, gamma=gamma, n_sites=n)


class TestMagnetizationAnalytic:
    def test_polarized_limit(self):
        assert magnetization_analytic(params(50.0, 0.5, 8)) == pytest.approx(8.0, abs=1e-2)

    def test_zero_field_vanishes_exactly(self):
        # At lam = 0 the polar cosines cancel pairwise under q -> pi - q.
        assert magnetization_analytic(params(0.0, 0.3, 6)) == pytest.approx(0.0, abs=1e-13)

    def test_matches_oracle_n6(self):
        p = params(0.5, 0.5, 6)
        assert magnetization_analytic(p) == pytest.approx(magnetization_ed(p), abs=1e-8)

    def test_rejects_critical(self):
        with pytest.raises(CriticalPointError):
            magnetization_analytic(params(1.0, 0.5, 6))


def test_ground_state_rows_equal_the_scalar_readers():
    # verify's one pass per chain length, against the readers it replaced
    # there: lam = 0 (a q <-> pi - q tie), negative gamma and a long chain too.
    rng = np.random.default_rng(24)
    lam = np.concatenate([[0.0, -0.5, 3.0], rng.uniform(-2, 2, 30)])
    gamma = np.concatenate([[0.5, -0.7, 0.2], rng.uniform(-1.5, 1.5, 30)])
    keep = classify_criticality_arrays(lam, gamma)[1] > 1e-3
    lam, gamma = lam[keep], gamma[keep]
    for n in (4, 10, 1000):
        rows = zip(*(row.tolist() for row in observables._ground_state_rows(lam, gamma, n)))
        for lam_i, gamma_i, got in zip(lam.tolist(), gamma.tolist(), rows):
            p = params(lam_i, gamma_i, n)
            want = (ground_phase(p).wrapped, ground_energy(p), magnetization_analytic(p))
            assert got == want, (lam_i, gamma_i, n)


class TestPhaseMagnetizationIdentity:
    """The closed-form M_z predicts the oracle's discrete loop phase."""

    @staticmethod
    def ratio(p, steps=2000):
        predicted, bound = phase_magnetization_identity(p, steps, magnetization_analytic(p))
        loop_phase = discrete_loop_phase(p, "ground", steps).wrapped
        return circular_distance(loop_phase, predicted) / bound

    def test_polarized_limit(self):
        p = params(100.0, 0.5, 6)
        predicted, _ = phase_magnetization_identity(p, 2000, magnetization_analytic(p))
        assert predicted == pytest.approx(6 * np.pi, abs=1e-4)
        assert self.ratio(p) < 1.0

    @pytest.mark.parametrize("point,n", [((0.5, 0.5), 6), ((0.3, 0.8), 4)])
    def test_reference_points(self, point, n):
        assert self.ratio(params(*point, n)) < 1.0

    def test_random_draws_and_oracle(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 50:
            lam = rng.uniform(-2, 2)
            gamma = rng.uniform(-2, 2)
            if classify_criticality(lam, gamma).distance <= 0.05:
                continue
            checked += 1
            n = int(rng.choice([4, 6, 8]))
            p = params(lam, gamma, n)
            assert self.ratio(p) < 1.0, (lam, gamma, n)
            assert magnetization_analytic(p) == pytest.approx(
                magnetization_ed(p), abs=1e-8
            ), (lam, gamma, n)
