"""Gap sweeps, exponent fits, step detection."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from xyberry import (
    StepDetectionError,
    continuum_min_gap,
    continuum_min_gap_arrays,
    finite_min_gap,
    finite_min_gap_arrays,
    fit_exponent,
    gap_sweep,
    relative_phase_thermo,
    step_detect,
)
from xyberry import model, scaling
from xyberry.model import mode_angle_arrays
from xyberry.scaling import write_step_trace_csv
from grid_reference import mode_gap_blocks_reference


def continuum_min_gap_reference(lam: float, gamma: float) -> float:
    """The continuum minimum gap per point in Python floats, the array path's reference.

    With x = cos q the squared gap (x - lam)^2 + gamma^2 (1 - x^2) is
    quadratic in x; the candidates are the endpoints, where 1 - x^2 = 0, and,
    when the parabola opens upward, the vertex lam / (1 - gamma^2) clamped
    to [-1, 1].
    """
    g2 = gamma * gamma
    best = min((1.0 - lam) ** 2, (-1.0 - lam) ** 2)
    a = 1.0 - g2
    if a > 0.0:
        x = min(1.0, max(-1.0, lam / a))
        best = min(best, (x - lam) ** 2 + g2 * (1.0 - x * x))
    return math.sqrt(max(best, 0.0))


def finite_min_gap_reference(n_sites: int, lam: float, gamma: float) -> float:
    """The minimum of one point's full ``mode_angle_arrays`` row: the vertex search's reference."""
    _, gap, _ = model.mode_angle_arrays(model.momentum_grid(n_sites), lam, gamma)
    return float(gap.min())


class TestContinuumMinGap:
    def test_ising_line_exact(self):
        # At gamma = 1 the squared gap is linear in cos q: min is |1 - lam|.
        for lam in (0.5, 0.9, 0.999, 1.3, 1.9):
            assert continuum_min_gap(lam, 1.0) == pytest.approx(abs(1 - lam), abs=1e-14)

    def test_xx_approach_closed_form(self):
        # Interior minimum: gamma * sqrt(1 - lam^2 / (1 - gamma^2)).
        lam = 0.5
        for gamma in (0.3, 0.1, 0.01):
            expected = gamma * np.sqrt(1 - lam**2 / (1 - gamma**2))
            assert continuum_min_gap(lam, gamma) == pytest.approx(expected, rel=1e-12)
        assert continuum_min_gap(0.5, 0.01) == pytest.approx(0.866 * 0.01, rel=1e-2)

    def test_against_grid_minimization_oracle(self):
        qs = np.linspace(0.0, np.pi, 2_000_001)
        for lam, gamma in [(0.5, 0.5), (1.2, 0.8), (0.3, 1.4), (-0.7, 0.2), (0.9, 1.0)]:
            gaps = np.sqrt((np.cos(qs) - lam) ** 2 + gamma**2 * np.sin(qs) ** 2)
            assert continuum_min_gap(lam, gamma) == pytest.approx(
                float(gaps.min()), abs=1e-9
            )

    def test_finite_dominates_continuum(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            lam = rng.uniform(-2, 2)
            gamma = rng.uniform(0, 1.6)
            n = int(rng.choice([8, 16, 50]))
            assert finite_min_gap(n, lam, gamma) >= continuum_min_gap(lam, gamma) - 1e-12


class TestContinuumMinGapArrays:
    """The vectorized continuum gap and its scalar view against the reference, with ==."""

    @staticmethod
    def assert_equals_reference(lam, gamma, view=False):
        gaps = continuum_min_gap_arrays(lam, gamma)
        points = list(zip(lam.tolist(), gamma.tolist()))
        want = np.array([continuum_min_gap_reference(l, g) for l, g in points])
        mismatches = np.flatnonzero(gaps != want)
        assert mismatches.size == 0, [(lam[i], gamma[i]) for i in mismatches[:5]]
        if view:
            assert [continuum_min_gap(l, g) for l, g in points] == want.tolist()

    def test_random_grids(self):
        # |gamma| < 1 (interior minimum), |gamma| = 1 (a = 0), |gamma| > 1
        # (a < 0), and |lam| >> 1.  The squared term misrounds in C pow about
        # once in a thousand values, so 50,000 points exercise it.
        rng = np.random.default_rng(80)
        size = 10_000
        lam = np.concatenate([
            rng.uniform(-3, 3, 4 * size),
            rng.uniform(-3, 3, size),
            rng.uniform(-3, 3, size),
            rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(0, 150, size),
        ])
        gamma = np.concatenate([
            rng.uniform(-2, 2, 4 * size),
            rng.choice([-1.0, 1.0], size),
            rng.choice([-1.0, 1.0], size) * rng.uniform(1, 1e3, size),
            rng.uniform(-2, 2, size),
        ])
        self.assert_equals_reference(lam, gamma)

    def test_grid_edges(self):
        # Signed zeros, |gamma| = 1 and one ulp either side of it, lam = +-1e6.
        ulps = [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]
        lam, gamma = model.grid_points(
            [-1e6, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1e6],
            [-2.0, -1.0, -ulps[0], -ulps[1], -0.0, 0.0, *ulps, 1.0, 3.0],
        )
        self.assert_equals_reference(lam, gamma, view=True)

    def test_broadcasts(self):
        gaps = continuum_min_gap_arrays(np.array([0.5, 1.5]), 0.5)
        assert gaps.tolist() == [
            continuum_min_gap_reference(0.5, 0.5), continuum_min_gap_reference(1.5, 0.5)
        ]

    @pytest.mark.parametrize("gamma", [1e155, 1e200, 1e300])
    def test_huge_gamma_leaves_the_endpoint_gap(self, gamma):
        # gamma^2 overflows to inf, and 1 - x^2 = 0 at the endpoints x = +-1.
        lam = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
        for g in (gamma, -gamma):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                gaps = continuum_min_gap_arrays(lam, g)
            assert gaps.tolist() == np.abs(np.abs(lam) - 1.0).tolist()
            self.assert_equals_reference(lam, np.full(lam.shape, g), view=True)

    @pytest.mark.parametrize("lam,gamma", [(np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5),
                                           (0.5, -np.inf)])
    def test_non_finite_input_raises(self, lam, gamma):
        with pytest.raises(ValueError, match="must be finite"):
            continuum_min_gap(lam, gamma)
        with pytest.raises(ValueError, match="must be finite"):
            continuum_min_gap_arrays(np.array([0.5, lam]), gamma)

    def test_overflow_raises_like_the_scalar(self):
        with pytest.raises(OverflowError):
            continuum_min_gap_reference(1e200, 0.5)
        with pytest.raises(OverflowError):
            continuum_min_gap(1e200, 0.5)
        with pytest.raises(OverflowError):
            continuum_min_gap_arrays(np.array([0.5, 1e200]), np.array([0.5, 0.5]))


def _kernel_min_gaps(lam, gamma, n_sites):
    """The reference: each point's minimum over its full row of the point-block kernel."""
    out = np.empty(len(lam))
    for rows, _, gap in mode_gap_blocks_reference(lam, gamma, n_sites):
        out[rows] = gap.min(axis=-1)
    return out


def _planted_points(rng):
    """Flat, near-critical, huge and NaN points, as (lam, gamma) arrays."""
    tiny = rng.uniform(-1e-12, 1e-12, 40)
    near = rng.uniform(-1e-9, 1e-9, 40)
    lam = np.concatenate([
        [0.0, 0.0, -0.0, 1e-17, -1e-17, 0.0, 0.0],  # flat rows
        tiny,  # flat-ish: lam ~ 0, |gamma| ~ 1
        1.0 + near, -1.0 + near,  # Ising planes
        rng.uniform(-1.5, 1.5, 40),  # gamma ~ 0: the XX segment and beyond
        [1e150, -1e200, 1e300, 0.5, 0.5, 0.3, np.nan, 0.5, 1e-300],
    ])
    gamma = np.concatenate([
        [1.0, -1.0, 1.0, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)],
        rng.choice([-1.0, 1.0], 40) + tiny[::-1],
        rng.uniform(-1.2, 1.2, 80),
        rng.uniform(-1e-12, 1e-12, 40),
        [0.5, 0.3, 0.7, 1e160, -1e200, 1e300, 0.5, np.nan, 1e-300],
    ])
    return lam, gamma


class TestFiniteMinGapArrays:
    """The vertex search against the full mode row, with ==."""

    @staticmethod
    def assert_equals_kernel(lam, gamma, n_sites):
        with np.errstate(all="ignore"):
            gaps = finite_min_gap_arrays(lam, gamma, n_sites)
            want = _kernel_min_gaps(lam, gamma, n_sites)
        same = (gaps == want) | (np.isnan(gaps) & np.isnan(want))
        mismatches = np.flatnonzero(~same)
        assert mismatches.size == 0, [(lam[i], gamma[i], n_sites) for i in mismatches[:5]]

    @staticmethod
    def count_kernel_rows(monkeypatch):
        """Rows that finite_min_gap_arrays hands to the full-row kernel, per call."""
        rows, kernel = [], scaling._mode_components

        def counting(cos_q, sines, lam):
            if np.ndim(cos_q) == 1:  # a full row; the vertex window indexes cos_q
                rows.append(len(lam))
            return kernel(cos_q, sines, lam)

        monkeypatch.setattr(scaling, "_mode_components", counting)
        return rows

    @pytest.mark.parametrize("n_sites", [4, 6, 8, 10, 12, 50, 1000, 4096])
    def test_readme_grid(self, n_sites):
        lam, gamma = model.grid_points(0.02 * np.arange(100), 0.02 * np.arange(50))
        self.assert_equals_kernel(lam, gamma, n_sites)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_grids_with_planted_points(self, seed):
        rng = np.random.default_rng(900 + seed)
        n_sites = int(rng.choice([4, 6, 8, 10, 16, 50, 128, 1000]))
        planted_lam, planted_gamma = _planted_points(rng)
        lam = np.concatenate([rng.uniform(-3, 3, 2000), planted_lam])
        gamma = np.concatenate([rng.uniform(-1.6, 1.6, 2000), planted_gamma])
        self.assert_equals_kernel(lam, gamma, n_sites)

    @pytest.mark.parametrize("n_sites", [4, 8, 64, 1000])
    def test_equals_finite_min_gap(self, n_sites):
        # The planted points hold +-0.0, |gamma| = 1 and 1 - 1 ulp, 1 + 1 ulp,
        # huge, overflowing and NaN points; the scalar view is checked too.
        rng = np.random.default_rng(n_sites)
        planted_lam, planted_gamma = _planted_points(rng)
        lam = np.concatenate([rng.uniform(-2, 2, 200), planted_lam, [1e6, -1e6]])
        gamma = np.concatenate([rng.uniform(-1.5, 1.5, 200), planted_gamma, [0.5, 0.5]])
        points = list(zip(lam.tolist(), gamma.tolist()))
        with np.errstate(all="ignore"):
            gaps = finite_min_gap_arrays(lam, gamma, n_sites)
            want = [finite_min_gap_reference(n_sites, l, g) for l, g in points]
            views = [finite_min_gap(n_sites, l, g) for l, g in points]
        np.testing.assert_array_equal(gaps, want)
        np.testing.assert_array_equal(views, want)

    def test_exactly_flat_rows_fall_back(self, monkeypatch):
        # lam = 0, |gamma| = 1: every mode's gap is 1 up to rounding, and
        # 1 - gamma^2 = 0 has no vertex, so the whole row decides.
        rows = self.count_kernel_rows(monkeypatch)
        lam = np.array([0.0, -0.0, 0.0, 0.5])
        gamma = np.array([1.0, 1.0, -1.0, 0.5])
        self.assert_equals_kernel(lam, gamma, 1000)
        assert rows == [3]

    @pytest.mark.parametrize(
        "lam,gamma", [(1e200, 0.5), (0.5, 1e200), (1e300, 1e300), (np.nan, 0.5), (0.5, np.inf)]
    )
    def test_overflow_and_nan_fall_back_without_raising(self, lam, gamma, monkeypatch):
        rows = self.count_kernel_rows(monkeypatch)
        lam, gamma = np.array([lam]), np.array([gamma])
        with np.errstate(all="raise"):
            finite_min_gap_arrays(lam, gamma, 16)
        self.assert_equals_kernel(lam, gamma, 16)
        assert rows == [1, 1]

    def test_non_convex_points_fall_back(self, monkeypatch):
        # |gamma| >= 1 makes 1 - gamma^2 <= 0: no vertex window to certify.
        rows = self.count_kernel_rows(monkeypatch)
        lam = np.array([0.3, -2.0, 0.7, 1.0, 0.5])
        gamma = np.array([1.0, -1.0, 1.5, -3.0, np.nextafter(1.0, 0.0)])
        self.assert_equals_kernel(lam, gamma, 64)
        assert rows == [4]

    @pytest.mark.parametrize("block", [1, 7, 2**14])
    def test_fallback_chunks_match_full_rows(self, monkeypatch, block):
        # Every point falls back: |gamma| >= 1, flat rows, 1e300 and NaN.
        # N = 6 has 3 modes, so chunks of 1, 2 and all 8 points.
        monkeypatch.setattr(model, "MODE_BLOCK_ELEMENTS", block)
        rows = self.count_kernel_rows(monkeypatch)
        lam = np.array([0.3, -2.0, 0.0, -0.0, 1e300, np.nan, 0.5, 0.7])
        gamma = np.array([1.0, -1.5, 1.0, -1.0, 0.5, 0.5, np.nan, 1e300])
        with np.errstate(all="ignore"):
            gaps = finite_min_gap_arrays(lam, gamma, 6)
            want = [np.min(mode_angle_arrays(model.momentum_grid(6), l, g)[1])
                    for l, g in zip(lam, gamma)]
        np.testing.assert_array_equal(gaps, want)
        step = max(1, block // 3)
        assert rows == [min(step, 8 - start) for start in range(0, 8, step)]

    def test_readme_grid_needs_no_kernel_rows(self, monkeypatch):
        rows = self.count_kernel_rows(monkeypatch)
        lam, gamma = model.grid_points(0.02 * np.arange(100), 0.02 * np.arange(50))
        finite_min_gap_arrays(lam, gamma, 1000)
        assert rows == []

    @pytest.mark.parametrize("n_sites", [256, 1000, 4096])
    def test_near_flat_rows(self, n_sites):
        # lam ~ 1e-15 and |gamma| within 4 ulps of 1: the gap varies by a few
        # ulps across the row, so rounding alone can order the modes, and a
        # certificate without its slack accepts wrong minima here.
        rng = np.random.default_rng(n_sites)
        size = 5000
        lam = rng.uniform(-1e-15, 1e-15, size)
        gamma = rng.choice([-1.0, 1.0], size) * (1.0 + rng.integers(-4, 5, size) * 2.0**-53)
        self.assert_equals_kernel(lam, gamma, n_sites)

    def test_near_flat_points_certify_only_beyond_the_slack(self, monkeypatch):
        # lam ~ 1e-17, gamma = 1 - 2^-53: a = 1 - gamma^2 = 2^-52 lifts the
        # guards far less than the rounding slack, so these rows fall back.
        rows = self.count_kernel_rows(monkeypatch)
        lam = np.array([1e-17, -1e-17, 3e-17])
        gamma = np.full(3, np.nextafter(1.0, 0.0))
        self.assert_equals_kernel(lam, gamma, 4096)
        assert rows == [3]


class TestGapSweep:
    def test_table_shape_and_values(self):
        table = gap_sweep("gamma", 0.5, 0.0, samples=8, side=+1)
        assert table.shape == (8, 2)
        assert table[:, 0].tolist() == np.geomspace(1e-3, 1e-1, 8).tolist()
        assert table[0, 1] == pytest.approx(continuum_min_gap(0.5, table[0, 0]))

    def test_finite_size_sweep(self):
        table = gap_sweep("lambda", 1.0, 1.0, (0.1, 0.5), 9, n_sites=16)
        assert table[:, 0].tolist() == (1.0 - np.geomspace(0.1, 0.5, 9)).tolist()
        assert table[0, 1] == pytest.approx(finite_min_gap(16, table[0, 0], 1.0))

    @pytest.mark.parametrize("n_sites", [None, 8, 1000])
    @pytest.mark.parametrize("vary", ["lambda", "gamma"])
    def test_rows_equal_pointwise_min_gap(self, vary, n_sites):
        g_c = 1.0 if vary == "lambda" else 0.0
        for side in (-1, +1):
            table = gap_sweep(vary, 0.6, g_c, (1e-3, 1.5), 41, side, n_sites)
            offsets = np.geomspace(1e-3, 1.5, 41)
            assert table[:, 0].tolist() == (g_c + side * offsets).tolist()
            for g, gap in table:
                lam, gamma = (g, 0.6) if vary == "lambda" else (0.6, g)
                if n_sites is None:
                    assert gap == continuum_min_gap_reference(lam, gamma)
                else:
                    assert gap == finite_min_gap_reference(n_sites, lam, gamma)

    def test_validation(self):
        with pytest.raises(ValueError, match="vary must be"):
            gap_sweep("sideways", 0.5, 0.0)
        for window in ((1e-1, 1e-3), (0.0, 1e-1), (1e-2, 1e-2)):
            with pytest.raises(ValueError, match="window must satisfy"):
                gap_sweep("gamma", 0.5, 0.0, window=window)
        for window in ((1e-3, math.inf), (math.nan, 1e-1), (-math.inf, 1e-1)):
            with pytest.raises(ValueError, match="window must be finite"):
                gap_sweep("gamma", 0.5, 0.0, window=window)
        for side in (0, 2, -2, 0.5, math.nan):
            with pytest.raises(ValueError, match="side must be -1 or \\+1"):
                gap_sweep("lambda", 1.0, 1.0, side=side)


class TestFitExponent:
    @pytest.mark.parametrize("power", [0.5, 1.0, 1.5, 2.0])
    def test_planted_power_law(self, power):
        g = 1.0 - np.geomspace(1e-3, 1e-1, 24)
        table = np.column_stack([g, np.abs(g - 1.0) ** power])
        fit = fit_exponent(table, 1.0)
        assert fit.exponent == pytest.approx(power, abs=1e-6)
        assert fit.r_squared > 1 - 1e-12

    def test_ising_approach(self):
        fit = fit_exponent(gap_sweep("lambda", 1.0, 1.0, samples=24, side=-1), 1.0)
        assert fit.exponent == pytest.approx(1.0, abs=0.02)

    def test_xx_approach(self):
        fit = fit_exponent(gap_sweep("gamma", 0.5, 0.0, samples=24, side=+1), 0.0)
        assert fit.exponent == pytest.approx(1.0, abs=0.02)

    def test_window_robustness(self):
        table = gap_sweep("lambda", 1.0, 1.0, samples=48, side=-1)
        full = fit_exponent(table, 1.0, (1e-3, 1e-1))
        half = fit_exponent(table, 1.0, (1e-3, 5e-2))
        assert abs(full.exponent - half.exponent) < 0.01

    def test_finite_size_drift(self):
        window = (1e-3, 1e-1)
        for vary, fixed, g_c, side in [("lambda", 1.0, 1.0, -1), ("gamma", 0.5, 0.0, +1)]:
            cont = fit_exponent(
                gap_sweep(vary, fixed, g_c, window, 24, side), g_c, window
            )
            fin = fit_exponent(
                gap_sweep(vary, fixed, g_c, window, 24, side, n_sites=4000), g_c, window
            )
            assert abs(fin.exponent - cont.exponent) < 0.05

    def test_nonpositive_gap_rejected(self):
        g = np.linspace(0.5, 0.95, 10)
        table = np.column_stack([g, np.zeros_like(g)])
        with pytest.raises(ValueError):
            fit_exponent(table, 1.0, (1e-3, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gap_rejected(self, bad):
        # A NaN gap passes ``gap <= 0``; the fit then read exponent=nan.
        g = np.linspace(0.5, 0.95, 10)
        table = np.column_stack([g, 1.0 - g])
        table[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite gap"):
            fit_exponent(table, 1.0, (1e-3, 1.0))

    def test_constant_gap_rejected(self):
        # ss_tot = 0 read as r_squared 1.0, a perfect fit of a gap that never closes.
        g = np.linspace(0.5, 0.95, 10)
        table = np.column_stack([g, np.full_like(g, 0.5)])
        with pytest.raises(ValueError, match="gap is constant"):
            fit_exponent(table, 1.0, (1e-3, 1.0))

    def test_too_few_points_rejected(self):
        table = np.column_stack([[0.9, 0.95], [0.1, 0.05]])
        with pytest.raises(ValueError):
            fit_exponent(table, 1.0)


def thermo_trace(gamma, lams):
    return np.array([relative_phase_thermo(lam, gamma).value for lam in lams])


class TestStepDetect:
    def test_narrow_anisotropy_locates_branch_boundary(self):
        lams = 0.005 * np.arange(400)
        lam_star = step_detect(lams, thermo_trace(0.05, lams))
        assert abs(lam_star - (1 - 0.05**2)) <= 0.005 + 1e-12

    @pytest.mark.parametrize("gamma", [0.2, 0.5])
    def test_wide_anisotropy_matches_crossing_oracle(self, gamma):
        # For larger anisotropy the pi/2 crossing sits measurably below the
        # branch boundary 1 - gamma^2; a root-finding oracle on the closed
        # form gives the true crossing.
        lams = 0.005 * np.arange(400)
        lam_star = step_detect(lams, thermo_trace(gamma, lams))
        crossing = brentq(
            lambda lam: abs(relative_phase_thermo(lam, gamma).value) - np.pi / 2,
            1e-6,
            1 - gamma**2 - 1e-9,
        )
        assert abs(lam_star - crossing) <= 0.005
        assert lam_star < 1 - gamma**2  # systematically inside the branch

    def test_boundary_drift_shrinks_with_gamma(self):
        lams = 0.005 * np.arange(400)
        drifts = [
            (1 - g**2) - step_detect(lams, thermo_trace(g, lams)) for g in (0.5, 0.2, 0.05)
        ]
        assert all(d > 0 for d in drifts)
        assert drifts[0] > drifts[1] > drifts[2]

    def test_no_crossing_raises(self):
        lams = np.linspace(1.2, 1.8, 20)
        with pytest.raises(StepDetectionError):
            step_detect(lams, thermo_trace(0.05, lams))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            step_detect([0.2, 0.1, 0.3], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            step_detect([0.1, 0.2], [1.0, 2.0, 3.0])


class TestEmitters:
    def test_step_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_step_trace_csv(([0.05], [0.9925]), path)
        assert path.read_text(encoding="utf-8") == "gamma,lambda_star\n0.05,0.9925\n"
