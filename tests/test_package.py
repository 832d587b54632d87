"""The package's top-level names and each module's ``__all__``.

``xyberry.__all__`` is derived from the imports of ``xyberry/__init__.py``,
so an import added or dropped there changes it; this pins the list.  Each
module's own ``__all__`` is written by hand, so it is checked against what
the module defines, and each name in it against a reader outside the tests.
"""

import ast
import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import xyberry
from xyberry import errors

TOP_LEVEL_NAMES = {
    "__version__",
    # errors
    "XYBerryError",
    "CriticalPointError",
    "ResourceLimitError",
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
    "magnetization_analytic",
    "phase_magnetization_identity",
    # oracle
    "LoopTrace",
    "ed_ground_energy",
    "magnetization_ed",
    "sz_cumulants",
    "pancharatnam_phase",
    "loop_states",
    "discrete_loop_phase",
    "spin_half_loop_phase",
    # scaling
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
    assert len(TOP_LEVEL_NAMES) == 51
    assert len(xyberry.__all__) == len(set(xyberry.__all__))
    assert set(xyberry.__all__) == TOP_LEVEL_NAMES


def test_every_name_resolves():
    namespace = {}
    exec("from xyberry import *", namespace)
    for name in TOP_LEVEL_NAMES:
        assert getattr(xyberry, name) is namespace[name], name


MODULES = [
    module
    for module in (
        importlib.import_module(f"xyberry.{info.name}")
        for info in pkgutil.iter_modules(xyberry.__path__)
    )
    if hasattr(module, "__all__")
]


def test_every_module_with_all_is_checked():
    assert {m.__name__ for m in MODULES} >= {"xyberry.cli", "xyberry.oracle", "xyberry.phases"}


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_module_all_is_consistent(module):
    listed = module.__all__
    assert len(listed) == len(set(listed)), "a name is listed twice"
    for name in listed:
        assert hasattr(module, name), f"{module.__name__}.{name} does not resolve"
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(listed) <= set(namespace)
    defined = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert defined <= set(listed), f"public but not listed: {sorted(defined - set(listed))}"


ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def _package_reads() -> frozenset:
    """Every name the package's own code reads: load-context names and attributes.

    An import or a string in ``__all__`` is not a read.
    """
    reads = set()
    for path in Path(xyberry.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return frozenset(reads)


def _private_definitions() -> dict:
    """(module file, name) of each private function and class at a module's top
    level, mapped to the names read anywhere else in the package's code."""
    definitions, reads = [], []  # reads: (name, the top-level definition it sits in)
    for path in sorted(Path(xyberry.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                owner = (path.name, statement.name)
                if statement.name.startswith("_") and not statement.name.startswith("__"):
                    definitions.append(owner)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.append((node.id, owner))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.append((node.attr, owner))
    return {
        definition: {name for name, owner in reads if owner != definition}
        for definition in definitions
    }


def _raised_names() -> set:
    """Names the package's code raises, or passes to ``warnings.warn`` as the category."""
    named = set()
    for path in Path(xyberry.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                targets = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "warnings.warn":
                targets = node.args[1:2] + [k.value for k in node.keywords if k.arg == "category"]
            else:
                continue
            named.update(t.id if isinstance(t, ast.Name) else t.attr for t in targets
                         if isinstance(t, (ast.Name, ast.Attribute)))
    return named


def test_every_error_type_is_raised():
    # An error type that nothing raises guards against no input.
    kinds = [v for v in vars(errors).values()
             if inspect.isclass(v) and v.__module__ == errors.__name__]
    used = [kind for kind in kinds if kind.__name__ in _raised_names()]
    unused = [kind.__name__ for kind in kinds
              if not any(issubclass(other, kind) for other in used)]
    assert not unused, f"never raised or warned: {unused}"


@functools.cache
def _user_text() -> str:
    """README.md, the demos and the benchmark harness, as one text.

    Read as text, not parsed: the benchmark tracer names its targets in strings.
    """
    paths = [ROOT / "README.md"] + sorted(
        path for folder in ("demos", "benchmarks") for path in (ROOT / folder).rglob("*")
        if path.suffix in (".py", ".md")
    )
    return "\n".join(path.read_text(encoding="utf-8") for path in paths)


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_every_public_name_has_a_reader(module):
    # A public name that only the tests read is dead code with a test.
    reads, text = _package_reads(), _user_text()
    unread = [
        name for name in module.__all__
        if name not in reads and not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert not unread, f"read only by the tests: {unread}"


def test_every_private_helper_has_a_reader():
    # A private function or class that no other package code reads is left
    # behind: dead code, or code that only the tests still call.
    unread = [
        f"{module}:{name}" for (module, name), reads in _private_definitions().items()
        if name not in reads
    ]
    assert not unread, f"read by no other package code: {unread}"
