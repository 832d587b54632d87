"""Momentum grid, mode angles, ground energy, criticality classification."""

import math

import numpy as np
import pytest

from xyberry import (
    Criticality,
    GROUND_ENERGY_PREFACTOR,
    XYParams,
    classify_criticality,
    classify_criticality_arrays,
    discrete_loop_phase,
    ed_ground_energy,
    gap_sweep,
    ground_energy,
    loop_states,
    momentum_grid,
    phase_magnetization_identity,
    spin_half_loop_phase,
)
from xyberry import model
from xyberry.model import (
    CRITICALITY_TAGS,
    _mode_components,
    _mode_tiles,
    argmin_gap,
    mode_angle_arrays,
)
from mode_reference import min_gap_mode, mode_angles


def params(lam, gamma, n, phi=0.0):
    return XYParams(lam=lam, gamma=gamma, n_sites=n, phi=phi)


class TestMomentumGrid:
    def test_n4(self):
        qs = momentum_grid(4).tolist()
        assert qs == pytest.approx([np.pi / 4, 3 * np.pi / 4], abs=1e-15)

    def test_n8(self):
        qs = momentum_grid(8).tolist()
        expected = [np.pi / 8, 3 * np.pi / 8, 5 * np.pi / 8, 7 * np.pi / 8]
        assert qs == pytest.approx(expected, abs=1e-15)

    def test_strictly_inside_and_sorted(self):
        for n in (4, 6, 8, 10, 50):
            q = momentum_grid(n)
            assert q.size == n // 2
            assert 0.0 < q[0] and q[-1] < np.pi
            assert np.all(np.diff(q) > 0)

    @pytest.mark.parametrize("bad", [3, 5, 7, 2, 0, -4, 6.0, np.float64(8.0), 6.5])
    def test_invalid_sites(self, bad):
        with pytest.raises(ValueError, match="n_sites must be an even integer"):
            momentum_grid(bad)

    def test_grid_reproduces_oracle_energy_n6(self):
        # The half-odd-integer grid is the one whose gap sum matches brute
        # force; an integer grid would not.
        p = params(0.5, 0.5, 6)
        assert ground_energy(p) == pytest.approx(ed_ground_energy(p), abs=1e-10)


# Every count argument goes through model._require_count: plain integers
# (numpy's too, with the same result) pass, floats and counts below the
# floor do not.
COUNT_ARGUMENTS = {
    "loop_states-steps": (
        "steps", lambda n: loop_states(params(0.5, 0.5, 4), "ground", n).vectors
    ),
    "discrete_loop_phase-steps": (
        "steps", lambda n: discrete_loop_phase(params(0.5, 0.5, 4), "ground", n)
    ),
    "spin_half_loop_phase-steps": ("steps", lambda n: spin_half_loop_phase(1.0, n)),
    "gap_sweep-samples": ("samples", lambda n: gap_sweep("lambda", 1.0, 1.0, samples=n)),
    "gap_sweep-n_sites": ("n_sites", lambda n: gap_sweep("lambda", 1.0, 1.0, n_sites=n)),
    "phase_magnetization_identity-steps": (
        "steps", lambda n: phase_magnetization_identity(params(0.5, 0.5, 4), n, 0.0)
    ),
}


@pytest.mark.parametrize("name, call", COUNT_ARGUMENTS.values(), ids=COUNT_ARGUMENTS)
def test_counts_must_be_integers(name, call):
    for bad in (8.5, 5, 2.0):
        with pytest.raises(ValueError, match=f"{name} must be an (even )?integer >= "):
            call(bad)
    np.testing.assert_equal(call(np.int64(8)), call(8))


class TestXYParams:
    def test_phi_reduced_mod_pi(self):
        p = params(0.1, 0.2, 4, phi=np.pi + 0.3)
        assert p.phi == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("bad", [3, 2, 0, -6, 7])
    def test_site_validation(self, bad):
        with pytest.raises(ValueError):
            params(0.1, 0.2, bad)

    def test_non_integer_sites_rejected(self):
        # A float that equals an even integer is still not a chain length;
        # numpy integers are.
        for bad in (4.0, np.float64(6.0), 8.5, "4"):
            with pytest.raises(ValueError, match="even integer"):
                params(0.5, 0.5, bad)
        assert ground_energy(params(0.5, 0.5, np.int64(6))) == ground_energy(params(0.5, 0.5, 6))

    @pytest.mark.parametrize("field", ["lam", "gamma", "phi"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, bad):
        values = {"lam": 0.1, "gamma": 0.2, "phi": 0.0, field: bad}
        with pytest.raises(ValueError, match=field):
            XYParams(n_sites=4, **values)


class TestModeAngles:
    def test_equator_point(self):
        a = mode_angles(np.pi / 2, params(0.0, 1.0, 4))
        assert a.epsilon == pytest.approx(0.0, abs=1e-15)
        assert a.gap == pytest.approx(1.0, abs=1e-15)
        assert a.theta == pytest.approx(np.pi / 2, abs=1e-15)

    def test_gamma_zero_polar_angles(self):
        # Bloch vector degenerates to the axis: theta is 0 or pi by sign of eps.
        a1 = mode_angles(np.pi / 4, params(0.0, 0.0, 4))
        a2 = mode_angles(3 * np.pi / 4, params(0.0, 0.0, 4))
        assert a1.gap == pytest.approx(abs(np.cos(np.pi / 4)), abs=1e-15)
        assert a1.theta == 0.0
        assert a2.theta == pytest.approx(np.pi, abs=1e-15)

    def test_direct_evaluation_quarter_pi(self):
        eps = np.cos(np.pi / 4) - 0.5
        gap = np.sqrt(eps**2 + 0.25 * np.sin(np.pi / 4) ** 2)
        a = mode_angles(np.pi / 4, params(0.5, 0.5, 4))
        assert a.epsilon == pytest.approx(eps, abs=1e-14)
        assert a.gap == pytest.approx(gap, abs=1e-14)
        assert np.cos(a.theta) == pytest.approx(eps / gap, abs=1e-14)

    def test_even_sector_spectrum_closed_form_n4(self):
        # Independent cross-check of the mode gaps against brute force: the
        # even-parity block at N=4 must consist of the four pair-flip
        # combinations +-2*gap_1 +- 2*gap_2 plus a fourfold zero level
        # (singly occupied pairs; the grid's cosines cancel).
        from scipy.linalg import eigh

        from xyberry.oracle import _parity_of, hamiltonian_phi_parts, total_sz_diagonal

        lam, gamma = 0.5, 0.5
        q = momentum_grid(4)
        _, gaps, _ = mode_angle_arrays(q, lam, gamma)
        g1, g2 = gaps
        expected = np.sort(
            [
                -2 * g1 - 2 * g2,
                -2 * g1 + 2 * g2,
                2 * g1 - 2 * g2,
                2 * g1 + 2 * g2,
                0.0,
                0.0,
                0.0,
                0.0,
            ]
        )
        m0, mc, _ = hamiltonian_phi_parts(4, lam, gamma)
        h0 = m0 + mc  # the unrotated chain
        even = np.flatnonzero(_parity_of(total_sz_diagonal(4), 4) == 1)
        vals = eigh(h0[np.ix_(even, even)], eigvals_only=True)
        assert vals == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("q", [0.0, np.pi, -0.1, 3.5])
    def test_momentum_range_checked(self, q):
        with pytest.raises(ValueError):
            mode_angles(q, params(0.5, 0.5, 4))

    def test_gap_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            lam = rng.uniform(-2, 2)
            gamma = rng.uniform(-2, 2)
            q = rng.uniform(1e-6, np.pi - 1e-6)
            a = mode_angles(q, params(lam, gamma, 8))
            assert a.gap**2 == pytest.approx(
                a.epsilon**2 + gamma**2 * np.sin(q) ** 2, rel=1e-12
            )
            if a.gap > 0:
                assert np.cos(a.theta) * a.gap == pytest.approx(a.epsilon, abs=1e-12)
            assert 0.0 <= a.theta <= np.pi
            assert -1.0 <= np.cos(a.theta) <= 1.0

    def test_lambda_reflection(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            lam = rng.uniform(-2, 2)
            gamma = rng.uniform(0.1, 1.5)
            q = rng.uniform(0.1, np.pi - 0.1)
            a = mode_angles(q, params(-lam, gamma, 8))
            b = mode_angles(np.pi - q, params(lam, gamma, 8))
            assert a.epsilon == pytest.approx(-b.epsilon, abs=1e-12)
            assert a.gap == pytest.approx(b.gap, abs=1e-12)

    def test_gamma_sign_irrelevant_for_gap(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            lam = rng.uniform(-2, 2)
            gamma = rng.uniform(0.1, 1.5)
            q = rng.uniform(0.1, np.pi - 0.1)
            a = mode_angles(q, params(lam, gamma, 8))
            b = mode_angles(q, params(lam, -gamma, 8))
            assert a.gap == b.gap
            assert a.theta == b.theta  # |gamma| convention keeps theta in [0, pi]

    def test_degenerate_point_convention(self):
        # eps = 0 and gamma*sin(q) = 0 simultaneously: fixed theta = pi/2.
        # (Exact floating-point zeros: pick lam equal to the computed cosine.)
        q = np.pi / 4
        a = mode_angles(q, params(float(np.cos(q)), 0.0, 4))
        assert a.gap == 0.0
        assert a.theta == pytest.approx(np.pi / 2)


class TestMinGapMode:
    def test_ising_plane_smallest_momentum(self):
        # gap^2 = 2(1 - cos q) at lam = gamma = 1: minimized by the first mode.
        mode, _ = min_gap_mode(params(1.0, 1.0, 100))
        assert mode.index == 0

    def test_continuum_minimizer_location(self):
        # Calculus oracle: d/dq gap^2 = 0 at cos q = lam / (1 - gamma^2).
        lam, gamma = 0.5, 0.5
        n = 4000
        mode, _ = min_gap_mode(params(lam, gamma, n))
        q_star = np.arccos(lam / (1 - gamma**2))
        assert abs(mode.q - q_star) <= np.pi / n + 1e-12

        # Brute-force 1-d minimization oracle agrees with the closed form.
        qs = np.linspace(1e-9, np.pi - 1e-9, 200001)
        _, gaps, _ = mode_angle_arrays(qs, lam, gamma)
        assert qs[np.argmin(gaps)] == pytest.approx(q_star, abs=1e-4)

    def test_grid_argmin_n8(self):
        # Brute force over the four grid modes.
        lam, gamma = 0.0, 0.5
        q = momentum_grid(8)
        _, gaps, _ = mode_angle_arrays(q, lam, gamma)
        mode, angles = min_gap_mode(params(lam, gamma, 8))
        assert gaps[mode.index] == pytest.approx(gaps.min(), abs=1e-15)
        # Exact tie between the two modes flanking pi/2: smallest q wins.
        assert mode.index == 1
        assert mode.q == pytest.approx(3 * np.pi / 8, abs=1e-15)
        assert angles.gap == pytest.approx(gaps[1], abs=1e-15)


class TestArgminGap:
    def test_lam_zero_tie_goes_to_smaller_q(self):
        # At lam = 0 the gap is symmetric under q -> pi - q, so the two modes
        # flanking pi/2 tie up to rounding; a raw argmin may pick either.
        q = momentum_grid(8)
        _, gaps, _ = mode_angle_arrays(q, 0.0, 0.5)
        assert abs(gaps[1] - gaps[2]) <= 1e-15
        assert argmin_gap(gaps) == 1
        assert type(argmin_gap(gaps)) is int

    def test_rows_reduce_like_one_dimensional_calls(self):
        q = momentum_grid(8)
        points = [(0.0, 0.5), (0.0, 0.9), (0.0, -0.7), (0.4, 0.5), (-1.6, 0.2)]
        gaps = np.array([mode_angle_arrays(q, lam, g)[1] for lam, g in points])
        k = argmin_gap(gaps)
        assert k.shape == (len(points),)
        assert k.tolist() == [argmin_gap(row) for row in gaps]
        # every lam = 0 row resolves its tie to the mode just below pi/2
        assert k[:3].tolist() == [1, 1, 1]

    def test_one_ulp_tie_in_batched_input(self):
        # The later entry is smaller by one ulp: a raw argmin would take it.
        x = 0.1
        gaps = np.array([[[0.3, x, np.nextafter(x, 0.0)], [0.2, 0.2, 0.5]]])
        assert argmin_gap(gaps).tolist() == [[1, 0]]


class TestModeGapBlocks:
    """The tiles of ``_mode_tiles``, each evaluated by ``_mode_components``."""

    LAM = np.array([0.0, 0.4, -1.2, 1.0, 2.5, -0.3, 0.9])
    GAMMA = np.array([0.5, -0.8, 0.0, 1.0, 0.3, -1.4, 0.05])

    @staticmethod
    def covered(lam, gamma, n_sites):
        """Each tile's (row, column) points against the pointwise kernel; the points seen."""
        seen = []
        for rows, cols, args in _mode_tiles(lam, gamma, n_sites):
            eps, gap = _mode_components(*args)
            row_ids, col_ids = range(len(lam))[rows], range(len(gamma))[cols]
            assert eps.shape == (len(row_ids), 1, n_sites // 2)
            assert gap.shape == (len(row_ids), len(col_ids), n_sites // 2)
            assert gap.size <= max(model.MODE_BLOCK_ELEMENTS, n_sites // 2)
            for i, r in enumerate(row_ids):
                for j, c in enumerate(col_ids):
                    e1, g1, _ = mode_angle_arrays(momentum_grid(n_sites), lam[r], gamma[c])
                    assert np.array_equal(eps[i, 0], e1) and np.array_equal(gap[i, j], g1)
                    seen.append((r, c))
        return sorted(seen)

    @pytest.mark.parametrize("block", [1, 7, 10, 15, 36, 2**14])
    def test_grid_tiles_match_pointwise_kernel_exactly(self, monkeypatch, block):
        # 5 modes a point, so tiles of 1, 2, 3 columns, one whole row of 7,
        # or several rows; 7 columns divide by none but 1.
        monkeypatch.setattr(model, "MODE_BLOCK_ELEMENTS", block)
        seen = self.covered(self.LAM, self.GAMMA, 10)
        assert seen == [(r, c) for r in range(7) for c in range(7)]

    def test_more_modes_than_block_elements(self, monkeypatch):
        # N/2 = 10 modes over a bound of 8: one point per tile, never split.
        monkeypatch.setattr(model, "MODE_BLOCK_ELEMENTS", 8)
        seen = self.covered(self.LAM[:3], self.GAMMA[:4], 20)
        assert seen == [(r, c) for r in range(3) for c in range(4)]

    def test_empty_input_yields_nothing(self):
        assert list(_mode_tiles(np.array([]), np.array([]), 8)) == []
        assert list(_mode_tiles(np.array([]), np.array([0.5]), 8)) == []
        assert list(_mode_tiles(np.array([0.5]), np.array([]), 8)) == []


class TestGroundEnergy:
    def test_phi_independence_exact(self):
        e0 = ground_energy(params(0.7, 0.4, 6, phi=0.0))
        e1 = ground_energy(params(0.7, 0.4, 6, phi=1.1))
        assert e0 == e1

    @pytest.mark.parametrize("point", [(0.5, 0.5), (2.0, 1.0)])
    def test_matches_oracle_n6(self, point):
        p = params(*point, 6)
        assert ground_energy(p) == pytest.approx(ed_ground_energy(p), abs=1e-10)

    def test_prefactor_calibration(self):
        # One-time calibration at N=4: the brute-force energy over the gap
        # sum fixes the overall prefactor.
        lam, gamma = 2.0, 1.0
        q = momentum_grid(4)
        _, gaps, _ = mode_angle_arrays(q, lam, gamma)
        ratio = ed_ground_energy(params(lam, gamma, 4)) / (-gaps.sum())
        assert ratio == pytest.approx(GROUND_ENERGY_PREFACTOR, abs=1e-12)

    def test_matches_oracle_random_draws(self):
        rng = np.random.default_rng(20)
        checked = 0
        while checked < 20:
            lam = rng.uniform(-2, 2)
            gamma = rng.uniform(-2, 2)
            if classify_criticality(lam, gamma).distance <= 0.05:
                continue
            checked += 1
            for n in (4, 6, 8):
                p = params(lam, gamma, n)
                assert ground_energy(p) == pytest.approx(
                    ed_ground_energy(p), abs=1e-8
                ), (lam, gamma, n)


class TestClassifyCriticality:
    def test_xx_segment(self):
        assert classify_criticality(0.5, 0.0).tag is Criticality.XX_LINE

    def test_ising_plane(self):
        assert classify_criticality(1.0, 0.7).tag is Criticality.ISING_PLANE

    def test_noncritical_distance(self):
        c = classify_criticality(2.0, 1.0)
        assert c.tag is Criticality.NON_CRITICAL
        assert c.distance == pytest.approx(1.0, abs=1e-15)

    def test_plane_wins_at_segment_endpoint(self):
        assert classify_criticality(1.0, 0.0).tag is Criticality.ISING_PLANE

    def test_distance_inside_strip(self):
        # Nearest manifold may be either one.
        assert classify_criticality(0.99, 0.5).distance == pytest.approx(0.01)
        assert classify_criticality(0.2, 0.03).distance == pytest.approx(0.03)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "classify", [classify_criticality, classify_criticality_arrays], ids=["scalar", "arrays"]
    )
    def test_tolerance_validation(self, classify, tol):
        # Both classifiers check ``tol`` with one rule; a NaN tol once
        # slipped past the tol <= 0 test.
        rule = "tolerance must be positive" if math.isfinite(tol) else "tol must be finite"
        with pytest.raises(ValueError, match=f"^{rule}, got {tol}$"):
            classify(0.5, 0.5, tol)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        # A NaN coordinate used to classify as NON_CRITICAL with distance NaN.
        for args in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ValueError, match="lam and gamma must be finite"):
                classify_criticality(*args)

    def test_tolerance_width(self):
        assert classify_criticality(1.0 + 5e-10, 0.5).tag is Criticality.ISING_PLANE
        assert classify_criticality(0.3, 1e-10).tag is Criticality.XX_LINE


class TestClassifyCriticalityArrays:
    """The array classifier against the scalar one, with ==."""

    @staticmethod
    def assert_equals_scalar(lam, gamma, tol):
        codes, distance = classify_criticality_arrays(lam, gamma, tol)
        assert codes.shape == distance.shape == np.shape(lam)
        for l, g, code, d in zip(lam, gamma, codes.tolist(), distance.tolist()):
            c = classify_criticality(l, g, tol)
            assert (CRITICALITY_TAGS[code], d) == (c.tag, c.distance), (l, g, tol)

    @pytest.mark.parametrize("tol", [1e-9, 0.05, 0.5])
    def test_random_grids(self, tol):
        rng = np.random.default_rng(70)
        lam = np.concatenate([rng.uniform(-3, 3, 3000), rng.integers(-2, 3, 200) * 0.5])
        gamma = np.concatenate([rng.uniform(-2, 2, 3000), rng.integers(-2, 3, 200) * 0.5])
        self.assert_equals_scalar(lam, gamma, tol)

    @pytest.mark.parametrize("tol", [1e-9, 0.05])
    def test_edges(self, tol):
        # |lam| = 1 +- tol, gamma = +-tol, gamma = 0 inside |lam| < 1, both
        # signs, one ulp either side of each boundary, and the endpoints.
        lam_edges = [1.0 + tol, 1.0 - tol, 1.0, 0.0, 0.3, 1.0 - 2 * tol, 1.0 + 2 * tol]
        gamma_edges = [tol, 0.0, 2 * tol, 0.7]
        lams = [s * x for x in lam_edges for s in (1.0, -1.0)]
        gammas = [s * x for x in gamma_edges for s in (1.0, -1.0)]
        lams += [np.nextafter(x, d) for x in lams for d in (math.inf, -math.inf)]
        gammas += [np.nextafter(x, d) for x in gammas for d in (math.inf, -math.inf)]
        lam, gamma = model.grid_points(lams, gammas)
        self.assert_equals_scalar(lam, gamma, tol)
        codes, _ = classify_criticality_arrays(lam, gamma, tol)
        assert set(codes.tolist()) == {0, 1, 2}

    def test_invalid_input_rejected(self):
        ok = np.array([0.5, 0.2])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                classify_criticality_arrays(np.array([0.5, bad]), ok)
            with pytest.raises(ValueError):
                classify_criticality_arrays(ok, np.array([bad, 0.5]))



class TestGapClosure:
    @pytest.mark.parametrize("point", [(0.95, 1.0), (0.5, 0.02)])
    def test_min_gap_decreases_under_refinement(self, point):
        gaps = [min_gap_mode(params(*point, n))[1].gap for n in (8, 16, 32, 64, 128)]
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        # and the gap is small near the manifold at the finest grid
        assert gaps[-1] < gaps[0]
