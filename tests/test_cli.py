"""Command-line surface: parsing, artifacts, determinism, error paths."""

import contextlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from xyberry import (
    CriticalPointError,
    LoopDiscretization,
    PhaseResult,
    XYParams,
    classify_criticality,
    cli,
    continuum_min_gap,
    discrete_loop_phase,
    finite_min_gap,
    gap_map,
    ground_phase,
    magnetization_ed,
    model,
    phases,
    relative_phase_finite,
    scaling,
    sz_cumulants,
    tables,
)
from xyberry.cli import MAX_RANGE_POINTS, main, parse_config, parse_range
from xyberry.model import grid_points
from xyberry.cli import UsageError


class TestRangeParsing:
    def test_basic_grid(self):
        vals = parse_range("0:2:0.5")
        assert vals == pytest.approx([0.0, 0.5, 1.0, 1.5])

    def test_max_excluded_on_exact_grid(self):
        vals = parse_range("0:1:0.02")
        assert len(vals) == 50
        assert vals[0] == 0.0
        assert vals[-1] == pytest.approx(0.98)

    def test_single_point(self):
        assert parse_range("0.3:0.3:0.1") == pytest.approx([0.3])

    @pytest.mark.parametrize("bad", ["0:1", "a:b:c", "0:1:-0.1", "1:0:0.1", "0:1:0"])
    def test_malformed(self, bad):
        with pytest.raises(UsageError):
            parse_range(bad)

    @pytest.mark.parametrize("bad", ["nan:1:0.1", "0:inf:0.1", "0:1:nan", "-inf:0:1"])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(UsageError, match="finite"):
            parse_range(bad)

    @pytest.mark.parametrize("bad", ["0:1e9:1e-9", "0:1:1e-320", "-1e308:1e308:1"])
    def test_point_cap_checked_before_allocating(self, bad):
        with pytest.raises(UsageError, match="more than"):
            parse_range(bad)

    def test_point_cap_is_inclusive(self):
        assert len(parse_range(f"0:{MAX_RANGE_POINTS}:1")) == MAX_RANGE_POINTS


class TestParseConfig:
    def test_phase_surface_flags(self):
        cfg = parse_config(
            ["phase-surface", "--lambda", "0:2:0.5", "--gamma", "0:1:0.5",
             "--n", "8", "--out", "s.csv"]
        )
        assert cfg.command == "phase-surface"
        assert cfg.output_path == "s.csv"
        assert cfg.parameters["n_sites"] == 8
        assert len(cfg.parameters["lam_values"]) == 4

    def test_verify_flags(self):
        cfg = parse_config(["verify", "--n", "6", "--steps", "2000", "--draws", "10", "--seed", "7"])
        assert cfg.parameters["n_sites"] == [6]
        assert cfg.parameters["steps"] == 2000
        assert cfg.seed == 7

    def test_odd_sites_usage_error(self):
        with pytest.raises(UsageError, match="even"):
            parse_config(["verify", "--n", "7"])

    def test_missing_required(self):
        with pytest.raises(UsageError):
            parse_config(["phase-surface", "--lambda", "0:1:0.5"])

    def test_unknown_command(self):
        with pytest.raises(UsageError):
            parse_config(["frobnicate"])

    def test_config_file_fills_missing(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(
            json.dumps({"lambda": "0:2:0.5", "gamma": "0.2:0.8:0.2", "n": "8", "out": "x.csv"})
        )
        cfg = parse_config(["phase-surface", "--config", str(cfgfile)])
        assert cfg.parameters["n_sites"] == 8
        assert cfg.output_path == "x.csv"

    def test_explicit_flags_override_config(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"lambda": "0:2:0.5", "gamma": "0:1:0.5", "n": "8", "out": "x.csv"}))
        cfg = parse_config(["phase-surface", "--config", str(cfgfile), "--n", "16"])
        assert cfg.parameters["n_sites"] == 16

    def test_unknown_config_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"frob": 1}))
        with pytest.raises(UsageError, match="unknown config key"):
            parse_config(["verify", "--config", str(cfgfile)])

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(UsageError, match="unreadable"):
            parse_config(["verify", "--config", str(tmp_path / "missing.json")])

    def test_cached_parser_keeps_calls_apart(self, tmp_path):
        # One parser serves every call; no value may leak into the next call,
        # whether it came from a flag, a config file or another command.
        assert cli._build_parser() is cli._build_parser()
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"lambda": "0:2:0.5", "gamma": "0:1:0.5", "n": "8",
                                       "critical-tol": "0.01", "out": "x.csv"}))
        for _ in range(2):
            cfg = parse_config(["phase-surface", "--config", str(cfgfile)])
            assert (cfg.parameters["n_sites"], cfg.parameters["tol"]) == (8, 0.01)
            assert cfg.output_path == "x.csv"
            cfg = parse_config(["verify", "--n", "8", "--seed", "3", "--draws", "2"])
            assert (cfg.parameters["n_sites"], cfg.seed, cfg.parameters["draws"]) == ([8], 3, 2)
            cfg = parse_config(["phase-surface", "--lambda", "0:1:0.5", "--gamma", "0:1:0.5",
                                "--out", "y.csv"])
            assert cfg.parameters["n_sites"] == 1000
            assert cfg.parameters["tol"] == cli.DEFAULT_CRITICAL_TOL
            assert cfg.output_path == "y.csv"
            cfg = parse_config(["verify"])
            assert (cfg.parameters["n_sites"], cfg.seed, cfg.parameters["draws"]) == ([4, 6], 0, 10)
            assert cfg.output_path is None
            cfg = parse_config(["scaling-fit", "xx"])
            assert cfg.parameters["approach"] == "xx" and cfg.parameters["n_sites"] is None
            cfg = parse_config(["scaling-fit", "ising", "--n", "8"])
            assert cfg.parameters["approach"] == "ising" and cfg.parameters["n_sites"] == 8
            with pytest.raises(UsageError):
                parse_config(["scaling-fit"])

    def test_count_bounds_are_inclusive(self):
        # N = 2 * MAX_RANGE_POINTS has MAX_RANGE_POINTS momentum pairs.
        top = str(MAX_RANGE_POINTS)
        cfg = parse_config(["scaling-fit", "ising", "--samples", top, "--n", str(2 * MAX_RANGE_POINTS)])
        assert cfg.parameters["samples"] == MAX_RANGE_POINTS
        assert cfg.parameters["n_sites"] == 2 * MAX_RANGE_POINTS
        cfg = parse_config(["verify", "--steps", top, "--draws", top])
        assert (cfg.parameters["steps"], cfg.parameters["draws"]) == (MAX_RANGE_POINTS, MAX_RANGE_POINTS)

    def test_huge_seed_is_an_integer(self):
        # Too large for a float, but a valid seed for the generator.
        assert parse_config(["verify", "--seed", "9" * 400]).seed == int("9" * 400)

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 100_000, b'{"n": ' + b"9" * 5000 + b"}"],
        ids=["not-utf-8", "deep-nesting", "huge-integer"],
    )
    def test_undecodable_config_is_a_usage_error(self, content, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_bytes(content)
        with pytest.raises(UsageError, match="unreadable"):
            parse_config(["verify", "--config", str(cfgfile)])


class TestMainErrorSurface:
    def test_usage_error_json_on_stderr(self, capsys):
        code = main(["verify", "--n", "7"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert "even" in err["message"]

    @pytest.mark.parametrize("sites", ["4,4", "6,4,6"])
    def test_repeated_chain_length_is_a_usage_error(self, sites, tmp_path, capsys):
        # verify would solve every point of a repeated N twice and keep one.
        out = tmp_path / "summary.json"
        argv = ["verify", "--n", sites, "--draws", "1", "--steps", "8", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "usage" and "repeated" in err["message"]
        assert captured.out == "" and not out.exists()

    def test_unknown_flag(self, capsys):
        code = main(["verify", "--frobnicate", "1"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"

    def test_runtime_error_json_and_no_partial_artifact(self, tmp_path, capsys):
        # A trace entirely inside one branch has no step: the command fails
        # and must not leave a partial file behind.
        out = tmp_path / "trace.csv"
        code = main(
            ["step-trace", "--gamma", "0.05", "--lambda", "1.2:1.8:0.1", "--out", str(out)]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "StepDetectionError"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--steps", "abc"],
            ["verify", "--seed", "1.5"],
            ["verify", "--seed", "-1"],
            ["gap-map", "--lambda", "0:1:0.5", "--gamma", "0:1:0.5", "--critical-tol", "x"],
            ["gap-map", "--lambda", "0:1:0.5", "--gamma", "0:1:0.5", "--critical-tol", "nan"],
            ["scaling-fit", "ising", "--samples", "q"],
            ["scaling-fit", "xx", "--window", "1e-3:inf"],
            ["gap-map", "--lambda=nan:1:0.1", "--gamma", "0:1:0.5"],
            ["gap-map", "--lambda", "0:1e9:1e-9", "--gamma", "0:1:0.5"],
            ["gap-map", "--lambda", "0:1:0.5", "--gamma=--"],
            ["gap-map", "--config=--"],
            ["verify", "--draws", "1000001"],
            ["verify", "--draws", "100000000000000000000000"],
            ["lattice-map", "--input", "lp.json", "--threshold", "inf"],
            ["phase-surface", "--lambda", "0:1:0.5", "--gamma", "0:1:0.5", "--n", ","],
            ["gap-map", "--lambda", "0:1:0.5", "--gamma", "0:1:0.5", "--n", ","],
            ["scaling-fit", "ising", "--n", ","],
            ["phase-surface", "--lambda", "0:1:0.5", "--gamma", "0.5:1:0.5", "--n", "4,6"],
            ["gap-map", "--lambda", "0:1:0.5", "--gamma", "0:1:0.5", "--n", "4,6"],
            ["scaling-fit", "ising", "--n", "4,6"],
            ["verify", "--n", ",", "--draws", "1", "--steps", "8"],
            ["step-trace", "--gamma", ","],
            ["step-trace", "--gamma", "nan"],
            ["step-trace", "--gamma", "0.5,inf"],
            ["scaling-fit", "ising", "--samples", "10000000000000"],
            ["scaling-fit", "ising", "--samples", "1000001"],
            ["verify", "--steps", "1000001"],
            ["phase-surface", "--lambda", "0:1:0.5", "--gamma", "0:1:0.5", "--n", "2000000000"],
            ["gap-map", "--lambda", "0:1:0.5", "--gamma", "0:1:0.5", "--n", "2000002"],
            ["scaling-fit", "xx", "--n", "2000002"],
        ],
    )
    def test_malformed_values_are_usage_errors(self, argv, tmp_path, capsys):
        out = tmp_path / "x.out"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"] == "usage"
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "module,argv",
        [
            (scaling, ["gap-map"]),
            (scaling, ["gap-map", "--n", "8"]),
            (phases, ["phase-surface", "--n", "8"]),
        ],
    )
    def test_memory_error_is_a_runtime_error(self, module, argv, tmp_path, monkeypatch, capsys):
        # A grid within the per-axis cap can still be too large to allocate;
        # numpy raises a private MemoryError subclass there.  Classifying the
        # grid is the first whole-grid array either command makes.
        class ArrayMemoryError(MemoryError):
            pass

        def no_memory(*args):
            raise ArrayMemoryError("Unable to allocate 1.16 TiB for an array")

        monkeypatch.setattr(module, "classify_criticality_arrays", no_memory)
        out = tmp_path / "g.csv"
        grid = ["--lambda", "0:1:0.5", "--gamma", "0:1:0.5", "--out", str(out)]
        assert main(argv + grid) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "MemoryError"
        assert err["message"] == "Unable to allocate 1.16 TiB for an array"
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_files(self, tmp_path, monkeypatch, capsys):
        def partial_then_fail(rows, path):
            with open(path, "w") as fh:
                fh.write("lambda,gam")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_phase_surface_csv", partial_then_fail)
        out = tmp_path / "s.csv"
        argv = ["phase-surface", "--lambda", "0.5:0.6:0.1", "--gamma", "0.5:0.6:0.1", "--n", "8"]
        assert main(argv + ["--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "OSError"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", [OSError("disk full"), MemoryError("no room")])
    @pytest.mark.parametrize(
        "argv",
        [
            ["phase-surface", "--lambda", "0.5:0.8:0.1", "--gamma", "0.5:0.6:0.1", "--n", "8"],
            ["gap-map", "--lambda", "0.5:0.8:0.1", "--gamma", "0.5:0.6:0.1"],
            ["gap-map", "--lambda", "0.5:0.8:0.1", "--gamma", "0.5:0.6:0.1", "--n", "8"],
            ["step-trace", "--gamma", "0.05,0.2,0.5", "--lambda", "0:2:0.25"],
        ],
    )
    def test_failure_after_the_first_block_leaves_no_files(
        self, argv, error, tmp_path, monkeypatch, capsys
    ):
        # Four cells a block: one row of the six-column grids, two of the
        # step trace's two columns, so every artifact takes two blocks or more.
        monkeypatch.setattr(model, "MODE_BLOCK_ELEMENTS", 4)
        format_rows, blocks = tables._format_rows, []

        def fail_after_first(*args):
            if blocks:
                raise error
            blocks.append(format_rows(*args))
            return blocks[-1]

        monkeypatch.setattr(tables, "_format_rows", fail_after_first)
        assert main(argv + ["--out", str(tmp_path / "a.csv")]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": type(error).__name__, "message": str(error)
        }
        assert len(blocks) == 1 and blocks[0]
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_uses_a_fresh_temporary_file(self, tmp_path):
        out = tmp_path / "a.txt"
        out.write_text("old")
        seen = []

        def write(tmp):
            seen.append(tmp)
            with open(tmp, "w") as fh:
                fh.write("new")

        cli._atomic_write(str(out), write)
        cli._atomic_write(str(out), write)
        assert out.read_text() == "new"
        assert seen[0] != seen[1] and all(t != str(out) + ".tmp" for t in seen)
        assert list(tmp_path.iterdir()) == [out]

    def test_atomic_write_leaves_the_umask_alone(self, tmp_path, monkeypatch):
        # Flipping the process umask, even briefly, would let a file another
        # thread creates meanwhile come out world-writable.
        def no_umask(mask):
            raise AssertionError("os.umask called")

        umask = 0o027
        old = os.umask(umask)
        monkeypatch.setattr(os, "umask", no_umask)
        out = tmp_path / "a.txt"
        try:
            cli._atomic_write(str(out), cli._text_writer("new"))
        finally:
            monkeypatch.undo()
            os.umask(old)
        assert out.read_text() == "new"
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask
        assert list(tmp_path.iterdir()) == [out]


# One valid value per flag of each command, none of them its default.
FLAG_VALUES = {
    "phase-surface": {"lambda": "0:2:0.5", "gamma": "0:1:0.5", "critical-tol": "0.01",
                      "out": "s.csv", "n": "8"},
    "gap-map": {"lambda": "0:2:0.5", "gamma": "0:1:0.5", "critical-tol": "0.01",
                "out": "g.csv", "n": "8"},
    "verify": {"n": "4,8", "steps": "100", "draws": "2", "seed": "3", "out": "v.json"},
    "scaling-fit": {"approach": "xx", "window": "1e-3:5e-2", "samples": "16", "n": "8",
                    "out": "f.json"},
    "step-trace": {"gamma": "0.05,0.2", "lambda": "0:2:0.25", "out": "t.csv"},
    "lattice-map": {"input": "lp.json", "threshold": "0.5", "out": "e.json"},
}


def _argv(command, values):
    specs = cli._FLAG_SPECS[command]
    return [command] + [v if specs[k].positional else f"--{k}={v}" for k, v in values.items()]


def _value(cfg, key):
    return getattr(cfg, key) if key in ("output_path", "seed") else cfg.parameters[key]


def _assert_same_config(got, expected):
    assert (got.command, got.output_path, got.seed) == (
        expected.command, expected.output_path, expected.seed
    )
    assert list(got.parameters) == list(expected.parameters)
    for key, value in expected.parameters.items():
        other = got.parameters[key]
        assert type(other) is type(value), key
        if isinstance(value, np.ndarray):
            assert np.array_equal(other, value), key
        else:
            assert other == value, key


class TestFlagTable:
    """Every flag of ``cli._FLAG_SPECS``, through argv, the config file and its default."""

    def test_every_flag_has_a_sample_value(self):
        assert {c: set(v) for c, v in FLAG_VALUES.items()} == {
            c: set(flags) for c, flags in cli._FLAG_SPECS.items()
        }

    @pytest.mark.parametrize(
        "command,name", [(c, name) for c, values in FLAG_VALUES.items() for name in values]
    )
    def test_config_value_parses_like_argv(self, command, name, tmp_path):
        values = FLAG_VALUES[command]
        expected = parse_config(_argv(command, values))
        rest = _argv(command, {k: v for k, v in values.items() if k != name})
        text = values[name]
        forms = [(name, text), (name.replace("-", "_"), text)]
        with contextlib.suppress(ValueError):
            forms.append((name, json.loads(text)))  # "8" as 8, "0.01" as 0.01
        for key, value in forms:
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({key: value}))
            _assert_same_config(parse_config(rest + ["--config", str(cfgfile)]), expected)

    @pytest.mark.parametrize("command", sorted(FLAG_VALUES))
    def test_defaults_show_in_help_and_parse_like_explicit_values(
        self, command, capsys, monkeypatch
    ):
        monkeypatch.setenv("COLUMNS", "400")  # no help text is wrapped
        with pytest.raises(SystemExit):
            parse_config([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for name, flag in cli._FLAG_SPECS[command].items():
            label = name if flag.positional else f"--{name}"
            shown = flag.metavar if flag.positional else f"{label} {flag.metavar or name.upper()}"
            entry = f"{shown} {flag.help}"
            rest = {k: v for k, v in FLAG_VALUES[command].items() if k != name}
            if flag.default is cli._REQUIRED:
                assert f"{entry} (required)" in text
                with pytest.raises(UsageError, match=f"{command} needs {label}$"):
                    parse_config(_argv(command, rest))
            elif flag.default is None:
                assert entry in text and f"{entry} (" not in text
                assert _value(parse_config(_argv(command, rest)), flag.key) is None
            else:
                assert f"{entry} (default {flag.default})" in text
                explicit = parse_config(_argv(command, {**rest, name: flag.default}))
                _assert_same_config(parse_config(_argv(command, rest)), explicit)

    def test_config_approach_is_checked_like_argv(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"approach": "sideways"}))
        out = tmp_path / "fit.json"
        assert main(["scaling-fit", "--config", str(cfgfile), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "usage" and "sideways" in err["message"]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "value", ["null", "true", "false", "[1]", '{"a": 1}', "NaN", "Infinity", "1e400"]
    )
    def test_config_values_are_strings_or_finite_numbers(self, value, tmp_path, monkeypatch,
                                                         capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text('{"lambda": "0:1:0.5", "gamma": "0:1:0.5", "out": %s}' % value)
        monkeypatch.chdir(tmp_path)
        assert main(["gap-map", "--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "usage" and "'out'" in err["message"]
        assert captured.out == "" and list(tmp_path.iterdir()) == [cfgfile]

    def test_import_leaves_scipy_linalg_unloaded(self):
        # Only the oracle's eigensolve needs scipy.linalg; the closed-form
        # commands must not pay for importing it.
        code = "import sys, xyberry.cli; print('scipy.linalg' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, check=True)
        assert result.stdout.strip() == "False"


class TestPhaseSurfaceCommand:
    def test_artifact_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["phase-surface", "--lambda", "0:2:0.25", "--gamma", "0:1:0.25", "--n", "8"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        text = b1.decode("utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "lambda,gamma,phi_g_raw,phi_g_wrapped,phi_eg,status"
        assert len(lines) == 1 + 8 * 4
        assert any(line.endswith(",critical") for line in lines[1:])  # gamma = 0 rows
        assert any(line.endswith(",ok") for line in lines[1:])

    def test_summary_line(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        main(["phase-surface", "--lambda", "0.5:0.6:0.1", "--gamma", "0.5:0.6:0.1",
              "--n", "8", "--out", str(out)])
        assert "1 rows" in capsys.readouterr().out


class TestGapMapCommand:
    def test_artifact(self, tmp_path):
        out = tmp_path / "g.csv"
        code = main(["gap-map", "--lambda", "0.5:1.75:0.25", "--gamma", "0:1:0.5",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "lambda,gamma,min_gap,tag,distance,status"
        rows = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
        row = rows[("1", "0.5")]
        assert row[3] == "IsingPlane" and row[5] == "critical"
        row = rows[("0.5", "0")]
        assert row[3] == "XXLine" and row[5] == "critical"
        row = rows[("1.5", "0.5")]
        assert row[3] == "NonCritical" and row[5] == "ok"
        assert float(row[2]) == pytest.approx(0.5, abs=1e-12)

    def test_finite_size_gap_map(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["gap-map", "--lambda", "0.5:0.75:0.25", "--gamma", "0.5:0.75:0.25",
                     "--n", "8", "--out", str(out)]) == 0
        line = out.read_text().strip().split("\n")[1]
        assert float(line.split(",")[2]) == pytest.approx(finite_min_gap(8, 0.5, 0.5))

    def test_finite_size_rows_equal_pointwise_min_gap(self, tmp_path):
        # The unformatted gap column, so the comparison is exact, not to 12 digits.
        lams, gammas = parse_range("-1.25:1.5:0.25"), parse_range("-0.5:1:0.25")
        data = gap_map(lams, gammas, 8)
        lam, gamma = grid_points(data.lam_values, data.gamma_values)
        gap = data.gap
        assert len(data) == len(gap) == 11 * 6
        for l, g, m in zip(lam.tolist(), gamma.tolist(), gap.tolist()):
            assert m == finite_min_gap(8, l, g)
        out = tmp_path / "g.csv"
        assert main(["gap-map", "--lambda=-1.25:1.5:0.25", "--gamma=-0.5:1:0.25",
                     "--n", "8", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 11 * 6
        assert {r[5] for r in rows} == {"ok", "critical"}


def _g(x) -> str:
    return format(float(x), ".12g")


class TestGridArtifactsAgainstScalarFunctions:
    """Whole CSVs, byte for byte, against rows built from the scalar functions."""

    LAMBDA, GAMMA = "-1.5:1.5:0.125", "-1:1:0.125"

    @pytest.mark.parametrize("n_sites", [None, 8])
    def test_gap_map_bytes(self, n_sites, tmp_path, capsys):
        out = tmp_path / "g.csv"
        argv = ["gap-map", f"--lambda={self.LAMBDA}", f"--gamma={self.GAMMA}", "--out", str(out)]
        assert main(argv + ([] if n_sites is None else ["--n", str(n_sites)])) == 0
        lines = ["lambda,gamma,min_gap,tag,distance,status"]
        for lam in parse_range(self.LAMBDA).tolist():
            for gamma in parse_range(self.GAMMA).tolist():
                c = classify_criticality(lam, gamma)
                gap = (continuum_min_gap(lam, gamma) if n_sites is None
                       else finite_min_gap(n_sites, lam, gamma))
                status = "ok" if c.tag.value == "NonCritical" else "critical"
                lines.append(f"{_g(lam)},{_g(gamma)},{_g(gap)},{c.tag.value},"
                             f"{_g(c.distance)},{status}")
        assert {line.split(",")[3] for line in lines[1:]} == {"NonCritical", "XXLine", "IsingPlane"}
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize("n_sites", [6, 8])
    def test_phase_surface_bytes(self, n_sites, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["phase-surface", f"--lambda={self.LAMBDA}", f"--gamma={self.GAMMA}",
                     "--n", str(n_sites), "--out", str(out)]) == 0
        lines = ["lambda,gamma,phi_g_raw,phi_g_wrapped,phi_eg,status"]
        for lam in parse_range(self.LAMBDA).tolist():
            for gamma in parse_range(self.GAMMA).tolist():
                xp = XYParams(lam=lam, gamma=gamma, n_sites=n_sites)
                try:
                    g = ground_phase(xp)
                except CriticalPointError:
                    lines.append(f"{_g(lam)},{_g(gamma)},nan,nan,nan,critical")
                    continue
                phi_eg = relative_phase_finite(xp).value
                lines.append(f"{_g(lam)},{_g(gamma)},{_g(g.value)},{_g(g.wrapped)},{_g(phi_eg)},ok")
        assert {line.split(",")[5] for line in lines[1:]} == {"ok", "critical"}
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


class TestRowFormatting:
    """The CSV row formatter prints each number as format(x, '.12g') does."""

    @staticmethod
    def values():
        rng = np.random.default_rng(12)
        special = [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1e-310, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
        random = (rng.uniform(-1, 1, 5000) * 10.0 ** rng.integers(-320, 308, 5000)).tolist()
        return special + random + rng.uniform(-10, 10, 5000).tolist()

    @staticmethod
    def expected(x) -> str:
        return "nan" if math.isnan(x) else format(x, ".12g")

    def columns(self):
        """A grid of every value by three of them, and three shuffled columns."""
        values = self.values()
        lam_values, gamma_values = np.array(values), np.array(values[:3])
        lam, gamma = grid_points(lam_values, gamma_values)
        rng = np.random.default_rng(13)
        c1, c2, c3 = (rng.permutation(np.concatenate([lam, lam])[:lam.size]) for _ in range(3))
        codes = (np.arange(lam.size) % 3).astype(np.int8)
        return lam_values, gamma_values, lam, gamma, c1, c2, c3, codes

    def test_phase_surface_rows(self, tmp_path):
        lam_values, gamma_values, lam, gamma, raw, wrapped, phi_eg, codes = self.columns()
        surface = phases.PhaseSurface(lam_values, gamma_values, codes, raw, wrapped, phi_eg)
        path = tmp_path / "s.csv"
        phases.write_phase_surface_csv(surface, path)
        lines = path.read_text(encoding="utf-8").split("\n")[1:-1]
        status = ["ok", "critical", "critical"]
        assert lines == [
            ",".join(map(self.expected, row[:5])) + "," + status[row[5]]
            for row in zip(lam, gamma, raw, wrapped, phi_eg, codes.tolist())
        ]

    def test_gap_map_rows(self, tmp_path):
        # The distance column repeats values, -0.0 and 0.0 and both NaN signs.
        lam_values, gamma_values, lam, gamma, gap, distance, _, codes = self.columns()
        distance = np.concatenate([distance[:50], distance[:50], distance[100:]])
        path = tmp_path / "g.csv"
        scaling.write_gap_map_csv(
            scaling.GapMap(lam_values, gamma_values, gap, codes, distance), path
        )
        lines = path.read_text(encoding="utf-8").split("\n")[1:-1]
        want = []
        for l, g, m, c, d in zip(lam, gamma, gap, codes.tolist(), distance):
            tag = model.CRITICALITY_TAGS[c].value
            status = "ok" if c == 0 else "critical"
            want.append(",".join(map(self.expected, (l, g, m))) + f",{tag},{self.expected(d)},{status}")
        assert lines == want


class TestScalingFitCommand:
    def test_ising_json(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main(["scaling-fit", "ising", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["approach"] == "ising"
        assert abs(payload["exponent"] - 1.0) < 0.02
        # stdout carries the same JSON
        assert json.loads(capsys.readouterr().out)["exponent"] == payload["exponent"]

    def test_xx_custom_window(self, capsys):
        code = main(["scaling-fit", "xx", "--window", "1e-3:5e-2", "--samples", "16"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["exponent"] - 1.0) < 0.02

    def test_missing_approach(self, capsys):
        assert main(["scaling-fit"]) == 2


class TestJsonEmitter:
    """Every JSON product prints and writes the same sorted, indented text."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "4", "--draws", "1", "--steps", "100"],
            ["scaling-fit", "xx", "--samples", "16"],
            ["lattice-map", "--input", "lattice.json"],
        ],
    )
    def test_file_equals_stdout(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "lattice.json").write_text('{"j_a": 1.0, "j_b": 0.7, "j_c": 0.2, '
                                               '"u_ab": 8.0, "omega": 0.5, "delta": 0.1}')
        assert main(argv + ["--out", "out.json"]) == 0
        text = (tmp_path / "out.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == text
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestStepTraceCommand:
    def test_trace_artifact(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(["step-trace", "--gamma", "0.05,0.2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "gamma,lambda_star"
        stars = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert abs(stars[0.05] - 0.9975) <= 0.005 + 1e-9

    def test_zero_gamma_rejected(self, capsys):
        assert main(["step-trace", "--gamma", "0.0", "--out", "x.csv"]) == 2

    def test_xx_segment_is_a_runtime_error(self, tmp_path, monkeypatch, capsys):
        # The parser refuses gamma = 0; a configuration that gets past it
        # still fails at the XX segment with the scalar's error and exit 1.
        out = tmp_path / "t.csv"
        cfg = cli.RunConfig(
            "step-trace",
            {"gammas": [0.2, 0.0], "lam_values": parse_range("0:2:0.005")},
            str(out),
        )
        monkeypatch.setattr(cli, "parse_config", lambda argv=None: cfg)
        assert main([]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CriticalPointError"
        with pytest.raises(CriticalPointError) as scalar:
            phases.relative_phase_thermo(0.0, 0.0)
        assert err["message"] == str(scalar.value)
        assert list(tmp_path.iterdir()) == []


class TestLatticeMapCommand:
    def test_round_trip_artifact(self, tmp_path, capsys):
        inp = tmp_path / "lp.json"
        inp.write_text(
            json.dumps(
                {"j_a": 1.0, "j_b": 1.0, "j_c": 1.0, "u_ab": 10.0, "omega": 0.5,
                 "delta": 1.0, "phase": 0.4}
            )
        )
        out = tmp_path / "eff.json"
        code = main(["lattice-map", "--input", str(inp), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["gamma"] == pytest.approx(0.2)
        assert payload["energy_scale"] == pytest.approx(0.25)
        assert payload["lambda"] == pytest.approx(1.0)
        assert payload["lambda_raw"] == pytest.approx(0.25)
        assert payload["phi"] == pytest.approx(0.4)
        assert payload["mott_regime"]["ok"] is False  # j/u = 0.1 boundary is strict

    def test_bad_input_keys(self, tmp_path, capsys):
        inp = tmp_path / "lp.json"
        inp.write_text(json.dumps({"j_a": 1.0, "frob": 2.0}))
        assert main(["lattice-map", "--input", str(inp)]) == 2

    @pytest.mark.parametrize(
        "value",
        ["[1]", "null", "true", '"abc"', "NaN", "Infinity", "-Infinity", "1e400",
         pytest.param("9" * 400, id="huge-integer")],
    )
    def test_bad_input_values(self, value, tmp_path, capsys):
        # Only finite JSON numbers: no bool, null, string or list, and no
        # NaN or Infinity token, which would otherwise reach the output.
        inp = tmp_path / "lp.json"
        inp.write_text('{"j_a": %s, "j_b": 1, "j_c": 0.2, "u_ab": 100, "omega": 0.5, "delta": 1}'
                       % value)
        out = tmp_path / "eff.json"
        assert main(["lattice-map", "--input", str(inp), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"] == "usage"
        assert captured.out == "" and not out.exists()

    def test_overflowing_couplings_are_a_runtime_error(self, tmp_path, capsys):
        # Finite inputs whose energy scale overflows: exit 1, no Infinity token.
        inp = tmp_path / "lp.json"
        inp.write_text(json.dumps({"j_a": 1e200, "j_b": 1e200, "j_c": 0.2, "u_ab": 100.0,
                                   "omega": 0.5, "delta": 1.0}))
        out = tmp_path / "eff.json"
        assert main(["lattice-map", "--input", str(inp), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"] == "ValueError"
        assert captured.out == "" and not out.exists()

    def test_missing_required_keys_are_usage_errors(self, tmp_path, capsys):
        inp = tmp_path / "lp.json"
        inp.write_text(json.dumps({"j_a": 1.0}))
        out = tmp_path / "eff.json"
        assert main(["lattice-map", "--input", str(inp), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "usage"
        for key in ("j_b", "j_c", "u_ab", "omega", "delta"):
            assert key in err["message"]
        assert "j_a" not in err["message"] and "phase" not in err["message"]
        assert captured.out == "" and not out.exists()

    def test_phase_is_optional(self, tmp_path, capsys):
        inp = tmp_path / "lp.json"
        inp.write_text(json.dumps({"j_a": 1.0, "j_b": 1.0, "j_c": 1.0, "u_ab": 10.0,
                                   "omega": 0.5, "delta": 1.0}))
        assert main(["lattice-map", "--input", str(inp)]) == 0
        assert json.loads(capsys.readouterr().out)["phi"] == 0.0

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["lattice-map", "--input", str(tmp_path / "nope.json")]) == 2


class TestVerifyCommand:
    def test_small_verify_passes_and_is_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "v1.json"
        out2 = tmp_path / "v2.json"
        argv = ["verify", "--n", "4,6", "--steps", "600", "--draws", "2", "--seed", "7"]
        assert main(argv + ["--out", str(out1)]) == 0
        capsys.readouterr()
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["pass"] is True
        assert payload["max_discrepancy"]["phase"] < 1e-3
        assert payload["max_discrepancy"]["energy"] < 1e-8
        assert payload["max_discrepancy"]["identity"] < 1.0
        assert payload["thresholds"]["identity"] == 1.0
        assert len(payload["points"]) == 2
        assert set(payload["per_n"]) == {"4", "6"}
        # each worst discrepancy above the rounding floor names the point and
        # N where it occurred
        for key, worst in payload["max_discrepancy"].items():
            at = payload["max_discrepancy_at"][key]
            if at is None:
                assert key in ("energy", "magnetization")
                assert worst < cli.VERIFY_LOCATION_FLOOR
                continue
            assert [at["lambda"], at["gamma"]] in payload["points"]
            assert payload["per_n"][str(at["n"])][key] == worst

    @pytest.mark.parametrize("n", ["4,12", "10,12", "12,4"])
    def test_cap_is_checked_before_the_first_point(self, n, monkeypatch, capsys):
        monkeypatch.delenv("XYBERRY_MAX_N", raising=False)
        calls = []
        monkeypatch.setattr(cli, "discrete_loop_phase", lambda *args: calls.append(args))
        assert main(["verify", "--n", n, "--draws", "1", "--steps", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ResourceLimitError",
            "message": "n_sites=12 exceeds the dense-matrix cap of 10 "
                       "(set XYBERRY_MAX_N to raise it)",
        }
        assert calls == []

    def test_twelve_sites_under_a_raised_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("XYBERRY_MAX_N", "12")
        assert main(["verify", "--n", "12", "--draws", "2", "--steps", "200"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert set(payload["per_n"]) == {"12"}

    def test_nan_discrepancy_fails_the_run(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "magnetization_ed", lambda params: math.nan)
        assert main(["verify", "--n", "4", "--steps", "100", "--draws", "2"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["pass"] is False
        assert json.loads(captured.err) == {
            "error": "VerificationFailed",
            "message": "discrepancy at or above threshold: magnetization, identity",
        }
        assert math.isnan(payload["max_discrepancy"]["magnetization"])
        assert math.isnan(payload["per_n"]["4"]["magnetization"])
        first = payload["points"][0]
        assert payload["max_discrepancy_at"]["magnetization"] == {
            "lambda": first[0], "gamma": first[1], "n": 4
        }
        assert payload["max_discrepancy"]["energy"] < 1e-8

    @pytest.mark.parametrize("seed", [1, 3, 4, 5])
    def test_no_location_below_the_rounding_floor(self, seed, capsys):
        # README defaults: energy and magnetization agree to rounding, so the
        # summary names no point for them; phase and identity keep theirs.
        argv = ["verify", "--n", "4,6", "--steps", "2000", "--draws", "10", "--seed", str(seed)]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("energy", "magnetization"):
            assert payload["max_discrepancy"][key] < cli.VERIFY_LOCATION_FLOOR
            assert payload["max_discrepancy_at"][key] is None
        for key in ("phase", "identity"):
            at = payload["max_discrepancy_at"][key]
            assert [at["lambda"], at["gamma"]] in payload["points"]

    def test_location_reported_above_the_rounding_floor(self, monkeypatch, capsys):
        ed_energy = cli.ed_ground_energy
        monkeypatch.setattr(cli, "ed_ground_energy", lambda xp: ed_energy(xp) + 1e-10)
        assert main(["verify", "--n", "4", "--steps", "100", "--draws", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        at = payload["max_discrepancy_at"]["energy"]
        assert [at["lambda"], at["gamma"]] in payload["points"]
        assert payload["max_discrepancy_at"]["magnetization"] is None

    def test_identity_row_catches_what_the_phase_row_cannot(self, monkeypatch, capsys):
        # A 1e-9 rad error in the oracle loop phase passes the closed-form
        # phase row (tolerance 1e-3) but not the derived kappa_3 bound.
        loop_phase = cli.discrete_loop_phase

        def shifted(*args, **kwargs):
            r = loop_phase(*args, **kwargs)
            return PhaseResult.from_value(r.value + 1e-9, winding=r.winding)

        monkeypatch.setattr(cli, "discrete_loop_phase", shifted)
        assert main(["verify", "--n", "4,6", "--steps", "2000", "--draws", "3"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_discrepancy"]["phase"] < cli.VERIFY_PHASE_TOL
        assert payload["max_discrepancy"]["identity"] > 1.0

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_identity_bound_holds_across_loop_grids(self, n):
        rng = np.random.default_rng(90 + n)
        for lam, gamma in cli.draw_noncritical_points(rng, 4):
            xp = XYParams(lam=lam, gamma=gamma, n_sites=n)
            magnetization = magnetization_ed(xp)
            _, _, k3, _, _ = sz_cumulants(xp)
            for steps in (8, 50, 2000, 20000):
                loop_phase = discrete_loop_phase(xp, "ground", LoopDiscretization(steps)).wrapped
                assert cli._identity_ratio(xp, steps, loop_phase, magnetization) < 1.0
                # Without its kappa_3 term the target misses by more than the
                # bound wherever kappa_3 is not negligible.
                plain = math.pi * (n + magnetization) / 2
                if steps in (50, 2000) and abs(k3) > 1e-3:
                    drop = cli._identity_ratio(xp, steps, plain, magnetization)
                    assert drop > 1.0

    def test_seed_changes_points(self, capsys):
        assert main(["verify", "--n", "4", "--steps", "600", "--draws", "1", "--seed", "1"]) == 0
        p1 = json.loads(capsys.readouterr().out)["points"]
        assert main(["verify", "--n", "4", "--steps", "600", "--draws", "1", "--seed", "2"]) == 0
        p2 = json.loads(capsys.readouterr().out)["points"]
        assert p1 != p2
