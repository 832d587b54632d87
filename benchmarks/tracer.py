"""Per-layer spans recorded from outside the program.

The tracer replaces a layer's public functions with timing wrappers at every
binding inside the ``xyberry`` package where a caller resolves them (for
example ``mode_angle_arrays`` as imported into ``phases``, ``scaling`` and
``observables``, and scipy's ``eigh`` as bound in ``oracle``), and puts the
originals back on exit.  Spans nest: a span's self time is its duration
minus the time of the spans it caused.  Counters that are "computed" are
derived from argument sizes, not measured.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np


class Stat:
    __slots__ = ("calls", "self_s", "counts", "peaks", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self.keys = set()


def _eigensolve_counts(stat, args, kwargs, result):
    dim = np.shape(args[0])[0]
    stat.counts["flops"] += float(dim) ** 3
    stat.peaks["dim_max"] = max(stat.peaks["dim_max"], dim)


def _loop_counts(stat, args, kwargs, result):
    stat.counts["steps"] += len(result.vectors)


def _assembly_counts(stat, args, kwargs, result):
    n_sites = args[0] if args else kwargs["n_sites"]
    stat.counts["bytes"] += 3 * 4**n_sites * 16
    stat.keys.add(tuple(args) + tuple(sorted(kwargs.items())))


def _mode_counts(stat, args, kwargs, result):
    stat.counts["modes"] += np.size(args[0])


def _surface_counts(stat, args, kwargs, result):
    stat.counts["points"] += len(result)


def _write_counts(path_index):
    def count(stat, args, kwargs, result):
        path = args[path_index] if len(args) > path_index else kwargs["path"]
        stat.counts["bytes"] += os.path.getsize(path)

    return count


def layer_targets():
    """(span name, module, function name, counter) for every traced layer function.

    ``lattice`` is not traced: it is microsecond-scale algebra that no
    workload spends a measurable share of its time in.
    """
    from xyberry import cli, model, observables, oracle, phases, scaling

    return [
        ("oracle.eigensolve", oracle, "eigh", _eigensolve_counts),
        ("oracle.loop_states", oracle, "loop_states", _loop_counts),
        ("oracle.loop_phase", oracle, "pancharatnam_phase", None),
        ("oracle.assembly", oracle, "hamiltonian_phi_parts", _assembly_counts),
        ("model.mode_kernel", model, "mode_angle_arrays", _mode_counts),
        ("model.classify", model, "classify_criticality", None),
        ("phases.phase_surface", phases, "phase_surface", _surface_counts),
        ("phases.point_phase", phases, "ground_phase", None),
        ("phases.point_phase", phases, "relative_phase_finite", None),
        ("phases.point_phase", phases, "relative_phase_thermo", None),
        ("observables.magnetization", observables, "magnetization_analytic", None),
        ("scaling.min_gap", scaling, "finite_min_gap", None),
        ("scaling.min_gap", scaling, "continuum_min_gap", None),
        ("scaling.fit", scaling, "fit_exponent", None),
        ("scaling.fit", scaling, "step_detect", None),
        ("cli.parse", cli, "parse_config", None),
        ("cli.write", cli, "_atomic_write", _write_counts(0)),
        ("cli.write", cli, "write_phase_surface_csv", _write_counts(1)),
        ("cli.write", cli, "write_step_trace_csv", _write_counts(1)),
    ]


class Tracer:
    """Span statistics per layer name, kept in memory for one traced window."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.enabled = True  # cleared while the benchmark checks outputs
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, count=None):
        stat = self.stats[name]
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.self_s += dt - frame[0]
            if count is not None:
                count(stat, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "xyberry" or key.startswith("xyberry.")]
        for name, module, attr, count in layer_targets():
            fn = getattr(module, attr)
            wrapper = self.wrap(name, fn, count)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, binding, fn))
                        setattr(mod, binding, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, binding, fn in reversed(self._undo):
            setattr(mod, binding, fn)
        self._undo.clear()
        return False

    def end_job(self):
        """Close a job: distinct assembly keys are counted per job."""
        stat = self.stats["oracle.assembly"]
        stat.counts["unique"] += len(stat.keys)
        stat.keys.clear()

    def per_layer(self, jobs: int) -> dict:
        """Per-job averages of the traced window, keyed by metric name."""
        s = self.stats
        per = lambda x: x / jobs  # noqa: E731
        assembly = s["oracle.assembly"]
        return {
            "oracle.eigensolve.calls": per(s["oracle.eigensolve"].calls),
            "oracle.eigensolve.self_s": per(s["oracle.eigensolve"].self_s),
            "oracle.eigensolve.dim_max": s["oracle.eigensolve"].peaks["dim_max"],
            "oracle.eigensolve.flops": per(s["oracle.eigensolve"].counts["flops"]),
            "oracle.loop_states.self_s": per(s["oracle.loop_states"].self_s),
            "oracle.loop.steps": per(s["oracle.loop_states"].counts["steps"]),
            "oracle.loop_phase.calls": per(s["oracle.loop_phase"].calls),
            "oracle.loop_phase.self_s": per(s["oracle.loop_phase"].self_s),
            "oracle.assembly.calls": per(assembly.calls),
            "oracle.assembly.self_s": per(assembly.self_s),
            "oracle.assembly.bytes": per(assembly.counts["bytes"]),
            "oracle.assembly.unique_ratio": (
                assembly.counts["unique"] / assembly.calls if assembly.calls else 1.0
            ),
            "model.mode_kernel.calls": per(s["model.mode_kernel"].calls),
            "model.mode_kernel.self_s": per(s["model.mode_kernel"].self_s),
            "model.mode_kernel.modes": per(s["model.mode_kernel"].counts["modes"]),
            "model.classify.calls": per(s["model.classify"].calls),
            "model.classify.self_s": per(s["model.classify"].self_s),
            "phases.phase_surface.self_s": per(s["phases.phase_surface"].self_s),
            "phases.phase_surface.points": per(s["phases.phase_surface"].counts["points"]),
            "phases.point_phase.calls": per(s["phases.point_phase"].calls),
            "phases.point_phase.self_s": per(s["phases.point_phase"].self_s),
            "observables.magnetization.calls": per(s["observables.magnetization"].calls),
            "observables.magnetization.self_s": per(s["observables.magnetization"].self_s),
            "scaling.min_gap.calls": per(s["scaling.min_gap"].calls),
            "scaling.min_gap.self_s": per(s["scaling.min_gap"].self_s),
            "scaling.fit.self_s": per(s["scaling.fit"].self_s),
            "cli.parse.self_s": per(s["cli.parse"].self_s),
            "cli.write.self_s": per(s["cli.write"].self_s),
            "cli.write.bytes": per(s["cli.write"].counts["bytes"]),
        }
