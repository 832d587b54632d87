"""Every package name the benchmark harness reads still resolves.

``benchmarks/tracer.py`` wraps the functions named by ``layer_targets()``
with ``getattr``, and ``benchmarks/workloads.py`` calls package functions
and reads package constants.  Deleting or renaming one of them breaks a
benchmark run while every other test still passes, and the harness's own
self-test is too slow for this suite.  The tracer's spans are not
thread-safe, so the phase surface's worker threads must reach none of them.
The files are read and executed from source, never imported from their
directory, so nothing is written there.
"""

import ast
import importlib
import os
import sys
import types
from pathlib import Path

import numpy as np

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    path = BENCHMARKS / name
    module = types.ModuleType(f"benchmark_{path.stem}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_traced_names_resolve():
    targets = _load("tracer.py").layer_targets()
    assert targets
    for span, module, name, _ in targets:
        assert callable(getattr(module, name, None)), (span, module.__name__, name)


def test_workload_names_resolve():
    # Module-level imports resolve on load; attribute reads such as
    # ``oracle.ed_ground_energy`` inside functions are checked from the source.
    workloads = _load("workloads.py")
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text(encoding="utf-8"))
    packages = {
        alias.asname or alias.name: importlib.import_module(f"xyberry.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "xyberry"
        for alias in node.names
    }
    assert packages
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = packages.get(node.value.id)
            if module is not None and getattr(workloads, node.value.id) is module:
                assert hasattr(module, node.attr), f"{node.value.id}.{node.attr}"


def test_surface_threads_reach_no_traced_name(monkeypatch):
    # The tracer's span stack is shared and not thread-safe, so the tiles
    # that phase_surface hands to its threads may call no traced function.
    from xyberry import model, phases

    monkeypatch.setattr(model, "MODE_BLOCK_ELEMENTS", 40)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    lam, gamma = np.linspace(-2.0, 2.0, 21), np.linspace(0.0, 1.5, 16)
    with _load("tracer.py").Tracer() as tracer:
        phases.phase_surface(lam, gamma, 20)
    stats = tracer.stats
    assert stats["phases.phase_surface"].counts["points"] == lam.size * gamma.size
    assert {name: stat.calls for name, stat in stats.items() if stat.calls} == {
        "phases.phase_surface": 1
    }
