"""Closed-form loop phases and the phase-surface tabulation."""

import json
import math
import os
import re
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from xyberry import (
    CriticalPointError,
    XYParams,
    circular_distance,
    ground_phase,
    phase_surface,
    relative_phase_finite,
    relative_phase_thermo,
    relative_phase_thermo_arrays,
    spin_half_connection,
    spin_half_loop_phase,
    spin_half_phase,
    wrap_angle,
)
from xyberry import model, phases
from xyberry.cli import main
from xyberry.model import grid_points, mode_angle_arrays, momentum_grid
from xyberry.phases import PHASE_SURFACE_HEADER, PhaseResult, write_phase_surface_csv
from grid_reference import phase_surface_reference, write_phase_surface_reference
from mode_reference import min_gap_mode


def params(lam, gamma, n, phi=0.0):
    return XYParams(lam=lam, gamma=gamma, n_sites=n, phi=phi)


# Per-point references, independent of the package's shared reduction: the
# closed forms written out once more in Python floats or on the
# ``mode_angle_arrays`` row, with the package's operations in its order so
# that equality is exact.


def ground_phase_reference(p: XYParams) -> float:
    """pi sum_k (1 - cos theta_k) on the ``mode_angle_arrays`` row."""
    eps, gap, _ = mode_angle_arrays(momentum_grid(p.n_sites), p.lam, p.gamma)
    return float(np.pi * np.sum(1.0 - eps / gap))


def relative_phase_finite_reference(p: XYParams) -> float:
    """-pi (1 - cos theta_k0) from ``min_gap_mode``'s Bloch angles."""
    _, angles = min_gap_mode(p)
    return -math.pi * (1.0 - angles.epsilon / angles.gap)


def relative_phase_thermo_reference(lam: float, gamma: float) -> PhaseResult:
    """The large-N relative phase per point in Python floats, with its split."""
    if gamma == 0.0 and abs(lam) <= 1.0:
        raise CriticalPointError(phases._XX_SEGMENT_MESSAGE)
    if not abs(lam) < 1.0 - gamma * gamma:
        return PhaseResult.from_value(0.0)
    c = 1.0 - gamma * gamma
    geometric = math.pi * lam * gamma / math.sqrt(c * (c - lam * lam))
    return PhaseResult.from_value(-math.pi + geometric, topological_part=-math.pi)


def surface_rows(surface):
    """A ``PhaseSurface`` as rows (lam, gamma, raw, wrapped, phi_eg, status)."""
    lam, gamma = grid_points(surface.lam_values, surface.gamma_values)
    status = ["ok" if c == 0 else "critical" for c in surface.codes.tolist()]
    return list(zip(lam.tolist(), gamma.tolist(), surface.raw.tolist(),
                    surface.wrapped.tolist(), surface.phi_eg.tolist(), status))


def phase_bits(results) -> np.ndarray:
    """The float fields of PhaseResults as bit patterns, so -0.0 and NaN compare."""
    fields = [(r.value, r.wrapped, r.topological_part, r.geometric_part) for r in results]
    return np.array(fields, dtype=float).view(np.int64)


class TestWrapping:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (0.0, 0.0),
            (np.pi, np.pi),
            (-np.pi, np.pi),
            (3 * np.pi, np.pi),
            (2 * np.pi, 0.0),
            (-0.5, -0.5),
            (7.710201987629063, 7.710201987629063 - 2 * np.pi),
        ],
    )
    def test_wrap(self, x, expected):
        assert wrap_angle(x) == pytest.approx(expected, abs=1e-12)
        assert -np.pi < wrap_angle(x) <= np.pi

    def test_array_wrap_equals_wrap_angle(self):
        # Exact multiples and odd multiples of pi, one ulp either side of
        # them, signed zeros, and random values up to the N = 1000 surface's
        # raw phases and far beyond.
        two_pi = 2.0 * math.pi
        edges = [k * math.pi for k in range(-9, 10)] + [0.0, -0.0, 1e-300, -5e-324]
        edges += [np.nextafter(x, d) for x in edges for d in (math.inf, -math.inf)]
        rng = np.random.default_rng(6)
        random = rng.uniform(-1, 1, 20_000) * 10.0 ** rng.uniform(-3, 12, 20_000)
        x = np.concatenate([edges, random, rng.integers(-10**6, 10**6, 2000) * two_pi])
        wrapped = phases._wrap_angles(x)
        want = [wrap_angle(v) for v in x.tolist()]
        assert [math.copysign(1.0, w) for w in wrapped.tolist()] == [
            math.copysign(1.0, w) for w in want
        ]
        assert np.array_equal(wrapped, want)
        assert math.isnan(phases._wrap_angles(np.array([math.nan]))[0])

    def test_circular_distance(self):
        assert circular_distance(np.pi, -np.pi) == pytest.approx(0.0, abs=1e-12)
        assert circular_distance(0.1, 2 * np.pi + 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_phase_result_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = rng.uniform(-50, 50)
            topo = rng.choice([0.0, -np.pi, np.pi, 2 * np.pi])
            r = PhaseResult.from_value(v, topological_part=topo)
            assert circular_distance(r.wrapped, r.value) < 1e-12
            assert r.value == pytest.approx(r.topological_part + r.geometric_part, abs=1e-12)


class TestSpinHalf:
    def test_connection_endpoints(self):
        assert spin_half_connection(0.0) == (0.0, 0.0)
        assert spin_half_connection(np.pi / 2) == (0.0, pytest.approx(0.5))
        assert spin_half_connection(np.pi) == (0.0, pytest.approx(1.0))

    def test_connection_range(self):
        with pytest.raises(ValueError):
            spin_half_connection(-0.1)

    def test_equatorial_loop_is_pi(self):
        r = spin_half_phase(np.pi / 2)
        assert r.value == pytest.approx(np.pi)
        assert r.wrapped == pytest.approx(np.pi)

    def test_polar_loop_vanishes(self):
        assert spin_half_phase(0.0).value == 0.0

    def test_lower_branch_negates(self):
        assert spin_half_phase(1.1, "lower").value == -spin_half_phase(1.1).value

    def test_spec_validation(self):
        # One polar-angle check for the connection, the phase and the loop.
        for theta in (4.0, -0.1, math.nan):
            for check in (spin_half_connection, spin_half_phase,
                          lambda t: spin_half_loop_phase(t, 16)):
                with pytest.raises(ValueError, match="theta must lie in"):
                    check(theta)
        with pytest.raises(ValueError):
            spin_half_phase(1.0, branch="sideways")


class TestGroundPhase:
    def test_polarized_limit_wraps_to_zero(self):
        for n in (4, 8, 12):
            r = ground_phase(params(10.0, 0.5, n))
            assert abs(r.wrapped) < 0.02

    def test_rejects_critical_manifolds(self):
        with pytest.raises(CriticalPointError):
            ground_phase(params(0.0, 0.0, 4))
        with pytest.raises(CriticalPointError):
            ground_phase(params(1.0, 0.5, 6))

    def test_n4_reference_point(self):
        r = ground_phase(params(0.5, 0.5, 4))
        # Independent evaluation: sum the two pair contributions directly.
        q = momentum_grid(4)
        eps = np.cos(q) - 0.5
        gap = np.sqrt(eps**2 + 0.25 * np.sin(q) ** 2)
        expected = float(np.sum(np.pi * (1 - eps / gap)))
        assert r.value == pytest.approx(expected, abs=1e-12)
        assert r.value == pytest.approx(7.710, abs=1e-3)
        assert r.wrapped == pytest.approx(1.427, abs=1e-3)

    def test_phi_independent(self):
        a = ground_phase(params(0.5, 0.5, 6, phi=0.0))
        b = ground_phase(params(0.5, 0.5, 6, phi=1.1))
        assert a.value == b.value

    def test_even_in_gamma(self):
        a = ground_phase(params(0.3, 0.8, 8))
        b = ground_phase(params(0.3, -0.8, 8))
        assert a.value == b.value


class TestRelativePhaseFinite:
    def test_axis_polarized_gamma_zero(self):
        # gamma = 0 with |lam| > 1 is off the critical segment; every mode
        # points along the axis, so the frozen pair contributes a full turn.
        r = relative_phase_finite(params(2.0, 0.0, 6))
        assert r.value == pytest.approx(-2 * np.pi, abs=1e-12)
        assert r.wrapped == pytest.approx(0.0, abs=1e-12)

    def test_n4_brute_force_argmin(self):
        lam, gamma = 0.5, 0.5
        q = momentum_grid(4)
        eps, gap, _ = mode_angle_arrays(q, lam, gamma)
        k0 = int(np.argmin(gap))
        expected = -np.pi * (1 - eps[k0] / gap[k0])
        r = relative_phase_finite(params(lam, gamma, 4))
        assert r.value == pytest.approx(expected, abs=1e-12)
        # |lam| < 1 - gamma^2 here, so the topological split is reported
        assert r.topological_part == pytest.approx(-np.pi)
        assert r.geometric_part == pytest.approx(r.value + np.pi, abs=1e-12)

    def test_n400_near_thermo(self):
        r = relative_phase_finite(params(0.5, 0.5, 400))
        assert r.value == pytest.approx(-1.859, abs=5e-3)

    def test_phi_independent(self):
        a = relative_phase_finite(params(0.5, 0.5, 400, phi=0.0))
        b = relative_phase_finite(params(0.5, 0.5, 400, phi=0.9))
        assert a.value == b.value

    def test_convergence_envelope(self):
        # |finite(N) - thermo| is bounded by the first-order grid-offset
        # envelope pi * |d cos(theta)/dq| * (pi/N); the sequence itself
        # oscillates with the grid alignment, so only the envelope is law.
        lam, gamma = 0.5, 0.5
        thermo = relative_phase_thermo(lam, gamma).value
        q_star = math.acos(lam / (1 - gamma**2))
        gap_star = math.sqrt(
            (math.cos(q_star) - lam) ** 2 + gamma**2 * math.sin(q_star) ** 2
        )
        envelope = np.pi**2 * math.sin(q_star) / gap_star * 1.05
        for n in (100, 200, 400, 800, 2000):
            dev = abs(relative_phase_finite(params(lam, gamma, n)).value - thermo)
            assert dev <= envelope / n, (n, dev)


class TestRelativePhaseThermo:
    def test_trivial_branch(self):
        r = relative_phase_thermo(0.9, 0.5)
        assert r.value == 0.0
        assert r.topological_part == 0.0

    def test_zero_field_is_topological(self):
        r = relative_phase_thermo(0.0, 0.5)
        assert r.value == pytest.approx(-np.pi, abs=1e-15)
        assert r.topological_part == pytest.approx(-np.pi)
        assert r.geometric_part == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        r = relative_phase_thermo(0.5, 0.5)
        assert r.value == pytest.approx(-np.pi + 0.25 * np.pi / np.sqrt(0.375), abs=1e-14)

    def test_against_minimization_oracle(self):
        # Independent route: minimize the gap over q numerically, then take
        # the frozen mode's polar cosine.
        from scipy.optimize import minimize_scalar

        for lam, gamma in [(0.5, 0.5), (0.3, 0.7), (-0.6, 0.4), (0.2, 0.9)]:
            res = minimize_scalar(
                lambda q: (np.cos(q) - lam) ** 2 + gamma**2 * np.sin(q) ** 2,
                bounds=(1e-12, np.pi - 1e-12),
                method="bounded",
                options={"xatol": 1e-12},
            )
            q_star = float(res.x)
            eps = np.cos(q_star) - lam
            gap = np.sqrt(eps**2 + gamma**2 * np.sin(q_star) ** 2)
            oracle = -np.pi * (1 - eps / gap)
            # the minimizer locates q* to ~1e-9 and the phase is first-order
            # sensitive to it, so the oracle resolves ~1e-8 at best
            assert relative_phase_thermo(lam, gamma).value == pytest.approx(
                oracle, abs=1e-6
            )

    def test_xx_line_rejected(self):
        with pytest.raises(CriticalPointError):
            relative_phase_thermo(0.5, 0.0)

    def test_geometric_part_odd_in_lambda(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            gamma = rng.uniform(0.1, 0.9)
            lam = rng.uniform(0.0, 1 - gamma**2 - 1e-3)
            a = relative_phase_thermo(lam, gamma)
            b = relative_phase_thermo(-lam, gamma)
            assert a.geometric_part == pytest.approx(-b.geometric_part, abs=1e-12)
            assert a.topological_part == b.topological_part

    def test_continuity_at_branch_boundary(self):
        gamma = 0.4
        edge = 1 - gamma**2
        inner = relative_phase_thermo(edge - 1e-9, gamma).value
        assert abs(inner) < 1e-3  # rises to meet the trivial branch at 0


class TestRelativePhaseThermoArrays:
    """The array pass of step-trace and its scalar view against the reference, bit for bit."""

    @pytest.mark.parametrize(
        "gamma",
        [0.05, 0.2, 0.5, -0.3, 0.999, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
         1.5, 1e-200, -1e200],
    )
    def test_equals_scalar(self, gamma):
        rng = np.random.default_rng(17)
        c = 1 - gamma * gamma  # -inf at |gamma| = 1e200: non-finite input raises
        lam = np.concatenate([
            0.005 * np.arange(401),
            rng.uniform(-2.0, 2.0, 3000),
            [0.0, -0.0, 1.0, -1.0, 1e6, -1e6] + ([c, -c] if math.isfinite(c) else []),
        ])
        got = relative_phase_thermo_arrays(lam, gamma)
        want = [relative_phase_thermo_reference(l, gamma) for l in lam.tolist()]
        # Compared as bit patterns, so the sign of zero counts too.
        np.testing.assert_array_equal(got.view(np.int64), phase_bits(want)[:, 0])
        # The scalar view, with its topological/geometric split on both
        # branches, on the evenly spaced and edge points.
        edges = np.concatenate([lam[:401], lam[3401:]]).tolist()
        views = [relative_phase_thermo(l, gamma) for l in edges]
        np.testing.assert_array_equal(phase_bits(views), phase_bits(want[:401] + want[3401:]))

    @pytest.mark.parametrize("lam,gamma", [(np.nan, 0.5), (np.inf, 0.5), (0.5, np.nan),
                                           (-np.inf, 0.0), (np.nan, 0.0)])
    def test_non_finite_input_raises(self, lam, gamma):
        # NaN fails every comparison, so without the check it took the
        # trivial branch and read 0.
        with pytest.raises(ValueError, match="must be finite"):
            relative_phase_thermo(lam, gamma)
        with pytest.raises(ValueError, match="must be finite"):
            relative_phase_thermo_arrays(np.array([0.3, lam]), gamma)

    def test_broadcasts_over_gamma(self):
        got = relative_phase_thermo_arrays(0.3, np.array([0.2, 0.5, 2.0]))
        assert got.tolist() == [
            relative_phase_thermo_reference(0.3, g).value for g in (0.2, 0.5, 2.0)
        ]

    @pytest.mark.parametrize("lam", [[0.5], [2.0, 1.0], [-1.0], [3.0, -0.0]])
    def test_xx_segment_raises_the_scalar_error(self, lam):
        with pytest.raises(CriticalPointError) as reference:
            relative_phase_thermo_reference(lam[-1], 0.0)
        message = re.escape(str(reference.value))
        with pytest.raises(CriticalPointError, match=message):
            relative_phase_thermo(lam[-1], 0.0)
        with pytest.raises(CriticalPointError, match=message):
            relative_phase_thermo_arrays(np.array(lam), 0.0)

    def test_off_the_xx_segment_at_zero_gamma(self):
        assert relative_phase_thermo_arrays(np.array([1.5, -2.0]), 0.0).tolist() == [0.0, 0.0]


class TestLoopCriticalityWitness:
    def test_wrapped_magnitude_tracks_enclosed_criticality(self):
        # Narrow-anisotropy loops: a large wrapped relative phase iff the
        # loop encloses the critical segment (|lam| < 1).
        inside = relative_phase_finite(params(0.5, 0.05, 400))
        outside = relative_phase_finite(params(1.5, 0.05, 400))
        assert abs(inside.wrapped) > np.pi / 2
        assert abs(outside.wrapped) < np.pi / 2


class TestPhaseSurface:
    def test_rows_match_pointwise_calls(self):
        # lam = 0 exercises the exact-tie branch of the frozen-mode choice
        lams, gammas = [0.0, 0.4, 1.6], [0.3, 0.9]
        surface = phase_surface(lams, gammas, 8)
        assert len(surface) == 6
        rows = surface_rows(surface)
        for lam, gamma, raw, wrapped, phi_eg, status in rows:
            assert status == "ok"
            p = params(lam, gamma, 8)
            g = ground_phase(p)
            assert raw == pytest.approx(g.value, abs=1e-12)
            assert wrapped == pytest.approx(g.wrapped, abs=1e-12)
            assert phi_eg == pytest.approx(relative_phase_finite(p).value, abs=1e-12)

    # lam = 0 (exact ties), negative lam and gamma, and the critical planes,
    # segment and endpoints.
    GRID_LAMS = [-1.6, -1.0, -0.45, 0.0, 0.3, 1.0, 1.25]
    GRID_GAMMAS = [-0.8, -0.05, 0.0, 0.5, 1.0]

    @pytest.mark.parametrize("n", [4, 6, 10, 1000])
    def test_rows_equal_pointwise_phases_exactly(self, n):
        rows = surface_rows(phase_surface(self.GRID_LAMS, self.GRID_GAMMAS, n))
        assert len(rows) == len(self.GRID_LAMS) * len(self.GRID_GAMMAS)
        statuses = {r[5] for r in rows}
        assert statuses == {"ok", "critical"}
        for lam, gamma, raw, wrapped, phi_eg, status in rows:
            p = params(lam, gamma, n)
            try:
                g = ground_phase(p)
            except CriticalPointError:
                assert status == "critical"
                assert all(math.isnan(x) for x in (raw, wrapped, phi_eg))
                continue
            assert status == "ok"
            assert (raw, wrapped) == (g.value, g.wrapped)
            assert phi_eg == relative_phase_finite(p).value
            assert raw == ground_phase_reference(p)
            assert phi_eg == relative_phase_finite_reference(p)

    @pytest.mark.parametrize("block", [1, 15, 40, 10, 35, 50])
    def test_uneven_blocks_keep_rows(self, monkeypatch, block, tmp_path):
        # At N = 10 a point has 5 modes, so a tile holds block // 5 points of
        # the 7 x 5 grid: 3 or 2 columns (neither divides 5, so the last
        # column block is short), 8 or 7 points (one whole row of 5), or 10
        # (two rows; the last tile has one of the 7).  The writer's blocks of
        # block // 6 rows split the 35 rows unevenly too.  The bytes equal the
        # point-block reference's, written row by row.
        expected = surface_rows(phase_surface(self.GRID_LAMS, self.GRID_GAMMAS, 10))
        monkeypatch.setattr(model, "MODE_BLOCK_ELEMENTS", block)
        surface = phase_surface(self.GRID_LAMS, self.GRID_GAMMAS, 10)
        rows = surface_rows(surface)
        assert [r[:2] + r[5:] for r in rows] == [r[:2] + r[5:] for r in expected]
        assert np.array_equal(
            np.array([r[2:5] for r in rows]), np.array([r[2:5] for r in expected]), equal_nan=True
        )
        write_phase_surface_csv(surface, tmp_path / "s.csv")
        reference = phase_surface_reference(self.GRID_LAMS, self.GRID_GAMMAS, 10)
        write_phase_surface_reference(reference, tmp_path / "r.csv")
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()

    def test_all_critical_grid(self):
        rows = surface_rows(phase_surface([1.0, -1.0], [0.0, 0.7], 8))
        assert [r[5] for r in rows] == ["critical"] * 4

    def test_non_integer_sites_rejected(self):
        for bad in (6.0, 6.5):
            with pytest.raises(ValueError, match="n_sites must be an even integer"):
                phase_surface([0.5], [0.5], bad)

    def test_row_major_order(self):
        rows = surface_rows(phase_surface([0.1, 0.2], [0.5, 0.6], 8))
        assert [(r[0], r[1]) for r in rows] == [
            (0.1, 0.5),
            (0.1, 0.6),
            (0.2, 0.5),
            (0.2, 0.6),
        ]

    def test_critical_rows_flagged_not_dropped(self):
        rows = surface_rows(phase_surface([1.0], [0.0, 0.5], 8))
        assert len(rows) == 2
        for row in rows:
            assert row[5] == "critical"
            assert math.isnan(row[2])

    def test_step_along_narrow_anisotropy_row(self):
        lams = np.arange(0.1, 2.0, 0.1)
        rows = surface_rows(phase_surface(lams, [0.05], 400))
        phi_eg = {round(r[0], 2): r[4] for r in rows}
        assert abs(phi_eg[0.5] + np.pi) < 0.2
        assert abs(phi_eg[1.5] + 2 * np.pi) < 0.2  # raw value near a full turn

    def test_csv_format(self, tmp_path):
        path = tmp_path / "s.csv"
        write_phase_surface_csv(phase_surface([0.4, 1.0], [0.0, 0.3], 8), path)
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        assert lines[0] == PHASE_SURFACE_HEADER
        assert len(lines) == 6  # header + 4 rows + trailing newline
        assert "nan" in lines[1]  # (0.4, 0.0) is on the critical segment
        assert lines[1].endswith("critical")
        assert lines[2].endswith("ok")
        # 12 significant digits
        raw = float(lines[2].split(",")[2])
        assert f"{raw:.12g}" in lines[2]


def use_cpus(monkeypatch, count):
    """Make the process's affinity mask hold ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs."""
    started, start = [], threading.Thread.start

    def counting(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def float_bits(columns) -> np.ndarray:
    return np.array(columns, dtype=float).view(np.int64)


class TestSurfaceThreads:
    """The surface's tiles on 1 to 8 CPUs: the same bits, and a clean failure."""

    # (lam values, gamma values, N, MODE_BLOCK_ELEMENTS or None for the default)
    GRIDS = {
        "one point": ([0.3], [0.7], 8, None),
        # 6 modes, 4 points a tile: one tile per row, 3 tiles.
        "fewer tiles than threads": ([0.2, 0.5, 1.4], [0.3, 0.6, 0.9, 1.2], 12, 24),
        "all critical": ([1.0, -1.0, 1.0, -1.0], [0.0, 0.7, 1.3], 8, 12),
        # 2 points a tile: each row in two column blocks; lam = 0 rows tie.
        "lambda = 0 tie rows": ([0.0, 0.4, 0.0, -1.6], [0.5, 0.9, -0.7], 8, 8),
        # Critical rows at lam = -1 and 1; two column blocks, 18 tiles.
        "negative gamma": (np.linspace(-2.0, 2.0, 9), -np.linspace(0.1, 1.5, 6), 16, 40),
        # 10 modes over a bound of 8: one point a tile.
        "more modes than block": ([0.3, 1.2, -0.8], [0.5, -1.1], 20, 8),
    }

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_bits_equal_the_reference_on_any_cpu_count(
        self, monkeypatch, thread_starts, grid, cpus
    ):
        lams, gammas, n_sites, block = self.GRIDS[grid]
        if block is not None:
            monkeypatch.setattr(model, "MODE_BLOCK_ELEMENTS", block)
        tiles = len(list(model._mode_tiles(np.asarray(lams), np.asarray(gammas), n_sites)))
        use_cpus(monkeypatch, cpus)
        surface = phase_surface(lams, gammas, n_sites)
        # Two threads at most, the caller's among them, and never more
        # than CPUs or tiles.
        assert len(thread_starts) == min(2, cpus, tiles) - 1
        reference = phase_surface_reference(lams, gammas, n_sites)
        assert [r[:2] + r[5:] for r in surface_rows(surface)] == [
            r[:2] + r[5:] for r in reference
        ]
        got = float_bits([surface.raw, surface.wrapped, surface.phi_eg])
        assert np.array_equal(got, float_bits([[r[i] for r in reference] for i in (2, 3, 4)]))

    def test_more_threads_than_cores_with_frequent_switches(self, monkeypatch, thread_starts):
        # The handout with the thread cap lifted to 8, switching every
        # microsecond, over 720 one-point tiles, and a plan that lets the
        # interpreter lock go between two tiles: a tile taken twice or
        # lost, or a plan advanced by two threads at once, shows in the bits.
        monkeypatch.setattr(model, "MODE_BLOCK_ELEMENTS", 6)
        monkeypatch.setattr(phases, "_TILE_THREADS", 8)
        use_cpus(monkeypatch, 8)
        plan = phases._mode_tiles

        def yielding_plan(*args):
            for tile in plan(*args):
                time.sleep(0)
                yield tile

        monkeypatch.setattr(phases, "_mode_tiles", yielding_plan)
        lams, gammas = np.linspace(-2.0, 2.0, 240), [-0.9, 0.0, 0.6]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            surface = phase_surface(lams, gammas, 12)
        finally:
            sys.setswitchinterval(interval)
        assert len(thread_starts) == 7
        assert not any(thread.is_alive() for thread in thread_starts)
        reference = phase_surface_reference(lams, gammas, 12)
        got = float_bits([surface.raw, surface.wrapped, surface.phi_eg])
        assert np.array_equal(got, float_bits([[r[i] for r in reference] for i in (2, 3, 4)]))

    def test_cpu_count_stands_in_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert phases._usable_cpus() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert phases._usable_cpus() == 3

    @staticmethod
    def fail_on_call(monkeypatch, call, error):
        """Make the surface's mode kernel raise ``error`` on its ``call``-th tile."""
        calls, lock, kernel = [], threading.Lock(), phases._mode_components

        def failing(*args):
            with lock:
                calls.append(None)
                if len(calls) == call:
                    raise error
            return kernel(*args)

        monkeypatch.setattr(phases, "_mode_components", failing)
        return calls

    @pytest.mark.parametrize("threads", [2, 4])
    def test_tile_error_is_raised_after_every_thread_stops(self, monkeypatch, threads):
        # 40 rows, one tile each.  The first helper thread to reach the
        # kernel raises.  Every other kernel call waits until that thread
        # has recorded its error and ended, so each other thread can finish
        # the one tile it holds and then must stop: no timing decides it.
        monkeypatch.setattr(model, "MODE_BLOCK_ELEMENTS", 8)
        monkeypatch.setattr(phases, "_TILE_THREADS", threads)
        use_cpus(monkeypatch, threads)
        baseline = threading.active_count()
        caller, kernel = threading.get_ident(), phases._mode_components
        lock, failed, calls = threading.Lock(), threading.Event(), []
        failer = []

        def failing(*args):
            with lock:
                calls.append(threading.get_ident())
                fail = threading.get_ident() != caller and not failed.is_set()
                if fail:
                    failer.append(threading.current_thread())
                    failed.set()
            if fail:
                raise MemoryError("helper tile")
            assert failed.wait(10.0), "no helper thread reached the kernel"
            failer[0].join(10.0)
            assert not failer[0].is_alive()
            return kernel(*args)

        monkeypatch.setattr(phases, "_mode_components", failing)
        with pytest.raises(MemoryError, match="helper tile"):
            phase_surface(np.linspace(0.1, 2.0, 40), [0.5, 0.9], 8)
        assert threading.active_count() == baseline
        # The failing thread made one call; each other thread at most one
        # (none if the error was recorded before it took a tile).
        assert calls.count(failer[0].ident) == 1
        assert 1 <= len(calls) <= threads
        assert all(calls.count(ident) == 1 for ident in calls)

    def test_cli_tile_error_exits_one_and_writes_nothing(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(model, "MODE_BLOCK_ELEMENTS", 8)
        use_cpus(monkeypatch, 2)
        self.fail_on_call(monkeypatch, 5, MemoryError("no room"))
        argv = ["phase-surface", "--lambda", "0:2:0.1", "--gamma", "0.1:1:0.3", "--n", "8"]
        assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "MemoryError", "message": "no room"}
        assert list(tmp_path.iterdir()) == []

    def test_zero_gaps_warn_in_no_thread(self, monkeypatch):
        # Each row holds (cos q_0, 0), on the XX segment, whose first mode
        # has eps = 0 and gap = 0: 0/0 in every tile.  Each thread's first
        # tile waits at a barrier until the other thread holds one too, so
        # neither can take every tile and both threads divide by zero.
        monkeypatch.setattr(model, "MODE_BLOCK_ELEMENTS", 8)
        use_cpus(monkeypatch, 2)
        lam0 = float(np.cos(momentum_grid(8)[0]))
        kernel = phases._mode_components
        workers, both_in = set(), threading.Barrier(2, timeout=10.0)

        def gated(*args):
            if threading.get_ident() not in workers:
                workers.add(threading.get_ident())
                both_in.wait()
            return kernel(*args)

        monkeypatch.setattr(phases, "_mode_components", gated)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            surface = phase_surface([lam0] * 8, [0.0, 0.5], 8)
        assert len(workers) == 2
        assert [c != 0 for c in surface.codes.tolist()] == [True, False] * 8
        assert not np.isnan(surface.raw[1::2]).any()
