"""Acceptance suite: one test per criterion, one printed line each.

Each criterion pins its tolerances and runtime budget.  The ninth
criterion's plateau-flatness bound (mean |phi_eg + pi| < 0.2 over
|lambda| < 1 - gamma^2 - 0.05 with gamma < 0.3) is retained exactly as
specified even though the exact closed form for the relative phase makes it
unattainable (the mean evaluates to ~0.32; the plateau is that flat only
for gamma below ~0.1).  It is expected to fail honestly rather than be
loosened; see the assertion message.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from xyberry import (
    XYParams,
    circular_distance,
    discrete_loop_phase,
    ed_ground_energy,
    effective_xy,
    fit_exponent,
    gap_sweep,
    ground_energy,
    ground_phase,
    loop_states,
    magnetization_analytic,
    magnetization_ed,
    pancharatnam_phase,
    phase_magnetization_identity,
    relative_phase_finite,
    relative_phase_thermo,
    solve_for_targets,
    spin_half_loop_phase,
    spin_half_phase,
    step_detect,
)
from xyberry.cli import draw_noncritical_points, main

SEED = 7
DRAWS = 10


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} exceeded its runtime budget: "
            f"{elapsed:.1f}s >= {budget_seconds}s"
        )
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number}] {status} ({elapsed:.1f}s): {description}")


def seeded_points():
    rng = np.random.default_rng(SEED)
    pts = []
    while len(pts) < DRAWS:
        lam = rng.uniform(-2.0, 2.0)
        gamma = rng.uniform(0.1, 1.5)
        from xyberry import classify_criticality

        if classify_criticality(lam, gamma).distance > 0.05:
            pts.append((lam, gamma))
    return pts


def test_criterion_1_spin_half_reference():
    with criterion(1, "spin-1/2 equatorial loop: closed form pi, discrete within 1e-4", 1.0):
        closed = spin_half_phase(np.pi / 2)
        # exact up to the one-ulp dust of cos(pi/2) in IEEE doubles
        assert closed.value == pytest.approx(np.pi, abs=1e-15)
        discrete = spin_half_loop_phase(np.pi / 2, steps=2000)
        assert circular_distance(discrete.wrapped, closed.wrapped) < 1e-4


def test_criterion_2_ground_phase_oracle_equivalence():
    with criterion(2, "discrete loop phase vs closed form, N in {4,6}, 10 draws", 120.0):
        steps = 2000
        worst = 0.0
        for lam, gamma in seeded_points():
            for n in (4, 6):
                p = XYParams(lam=lam, gamma=gamma, n_sites=n)
                d = discrete_loop_phase(p, "ground", steps)
                a = ground_phase(p)
                worst = max(worst, circular_distance(d.wrapped, a.wrapped))
        assert worst < 1e-3, f"worst phase discrepancy {worst:.3e}"


def test_criterion_3_energy_and_magnetization_oracle_equivalence():
    with criterion(3, "energy & magnetization vs oracle at N <= 8; identity in its bound", 60.0):
        for lam, gamma in seeded_points():
            for n in (4, 6, 8):
                p = XYParams(lam=lam, gamma=gamma, n_sites=n)
                assert abs(ground_energy(p) - ed_ground_energy(p)) < 1e-8
                magnetization = magnetization_analytic(p)
                assert abs(magnetization - magnetization_ed(p)) < 1e-8
                # The closed-form M_z predicts the oracle loop phase.
                predicted, bound = phase_magnetization_identity(p, 2000, magnetization)
                loop_phase = discrete_loop_phase(p, "ground", 2000).wrapped
                assert circular_distance(loop_phase, predicted) < bound


def test_criterion_4_thermodynamic_limit():
    with criterion(4, "relative phase: N=2000 within 5e-3 of the closed form; O(1/N)", 5.0):
        lam, gamma = 0.5, 0.5
        thermo = relative_phase_thermo(lam, gamma)
        assert thermo.value == pytest.approx(-np.pi + 0.25 * np.pi / np.sqrt(0.375), abs=1e-14)
        at2000 = relative_phase_finite(XYParams(lam=lam, gamma=gamma, n_sites=2000))
        assert abs(at2000.value - thermo.value) < 5e-3
        # O(1/N) convergence: the deviation obeys the first-order
        # grid-offset envelope pi^2 |d cos(theta)/dq| / N.
        q_star = math.acos(lam / (1 - gamma**2))
        gap_star = math.sqrt((math.cos(q_star) - lam) ** 2 + gamma**2 * math.sin(q_star) ** 2)
        envelope = np.pi**2 * math.sin(q_star) / gap_star * 1.05
        for n in (100, 200, 400, 800):
            dev = abs(relative_phase_finite(XYParams(lam=lam, gamma=gamma, n_sites=n)).value - thermo.value)
            assert dev <= envelope / n, (n, dev, envelope / n)


def test_criterion_5_step_function_witness():
    with criterion(5, "relative-phase step at gamma=0.05; boundary within one 0.005 step", 5.0):
        gamma = 0.05
        lams = 0.005 * np.arange(401)  # 0 .. 2
        trace = np.array([relative_phase_thermo(lam, gamma).value for lam in lams])
        # plateau near -pi on the enclosed side (trace-level check: mean
        # deviation, since the exact closed form leaves the plateau near
        # the branch edge where the geometric term peaks at 0.327)
        plateau = trace[lams <= 0.9]
        assert np.mean(np.abs(plateau + np.pi)) < 0.15
        # exactly zero once outside
        assert np.all(trace[lams >= 1.01] == 0.0)
        lam_star = step_detect(lams, trace)
        assert abs(lam_star - (1 - gamma**2)) <= 0.005 + 1e-9


def test_criterion_6_critical_exponents():
    with criterion(6, "gap exponents: Ising and XX approaches give z*nu = 1.00 +- 0.02", 5.0):
        window = (1e-3, 1e-1)
        ising = fit_exponent(gap_sweep("lambda", 1.0, 1.0, window, 24, side=-1), 1.0, window)
        assert abs(ising.exponent - 1.0) < 0.02, f"ising exponent {ising.exponent}"
        xx = fit_exponent(gap_sweep("gamma", 0.5, 0.0, window, 24, side=+1), 0.0, window)
        assert abs(xx.exponent - 1.0) < 0.02, f"xx exponent {xx.exponent}"


def test_criterion_7_gauge_invariance():
    with criterion(7, "loop phase invariant under 100 random gauge kicks (< 1e-12)", 60.0):
        trace = loop_states(XYParams(lam=0.5, gamma=0.5, n_sites=4), "ground", 2000)
        base = pancharatnam_phase(trace.vectors)
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            k = int(rng.integers(1, len(trace.vectors)))
            perturbed = list(trace.vectors)
            perturbed[k] = perturbed[k] * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            assert abs(pancharatnam_phase(perturbed) - base) < 1e-12


def test_criterion_8_lattice_round_trip():
    with criterion(8, "100 coupling targets round-trip through the lattice map to 1e-12", 1.0):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            g = rng.uniform(1e-3, 1.0)
            lam = rng.uniform(0.0, 3.0)
            u_ab = rng.uniform(0.5, 20.0)
            delta = rng.uniform(0.2, 5.0)
            eff = effective_xy(solve_for_targets(g, lam, u_ab=u_ab, delta=delta))
            assert abs(eff.gamma - g) < 1e-12
            assert abs(eff.lam - lam) < 1e-12


def test_criterion_9_figure_data_products(tmp_path):
    with criterion(9, "deterministic surface/gap CSVs, flagged rows, plateau bound", 30.0):
        surface_args = [
            "phase-surface", "--lambda", "0:2:0.02", "--gamma", "0:1:0.02",
            "--n", "1000",
        ]
        gap_args = ["gap-map", "--lambda", "0:2:0.02", "--gamma", "0:1:0.02"]
        paths = {}
        for name, argv in (("surface", surface_args), ("gap", gap_args)):
            a = tmp_path / f"{name}_a.csv"
            b = tmp_path / f"{name}_b.csv"
            assert main(argv + ["--out", str(a)]) == 0
            assert main(argv + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), f"{name} CSV not byte-identical"
            paths[name] = a

        lines = paths["surface"].read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "lambda,gamma,phi_g_raw,phi_g_wrapped,phi_eg,status"
        assert len(lines) == 1 + 100 * 50
        flagged = [l for l in lines[1:] if l.endswith("critical")]
        assert flagged, "critical rows must be flagged"

        gap_lines = paths["gap"].read_text(encoding="utf-8").strip().split("\n")
        assert gap_lines[0] == "lambda,gamma,min_gap,tag,distance,status"
        assert any(l.split(",")[5] == "critical" for l in gap_lines[1:])

        # Plateau structure of the phi_eg column.
        devs = []
        for line in lines[1:]:
            lam_s, gamma_s, _, _, phi_eg_s, status = line.split(",")
            lam, gamma = float(lam_s), float(gamma_s)
            if status != "ok" or not (0.0 < gamma < 0.3):
                continue
            if abs(lam) < 1 - gamma**2 - 0.05:
                devs.append(abs(float(phi_eg_s) + np.pi))
        mean_dev = float(np.mean(devs))
        assert mean_dev < 0.2, (
            f"plateau bound unattainable as stated: mean |phi_eg + pi| = "
            f"{mean_dev:.3f} over the region (gamma < 0.3), but the exact "
            f"relative-phase closed form already gives 0.319 there in the "
            f"large-N limit; the bound holds only for gamma < 0.1 (closed-"
            f"form mean 0.113). Kept as stated instead of being loosened."
        )
