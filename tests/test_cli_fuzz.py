"""Argv fuzz: every command line ends in exit 0, 1 or 2, and errors are JSON.

Command lines are built from ``cli._FLAG_SPECS``: a subcommand, a subset of
its flags and ``--config``, and for each flag a token that is malformed, non-finite,
negative, huge, or a small valid value (chains of at most 8 sites, ranges
of at most 10 points), so an accepted command line stays cheap to run.
Unless ``--config`` itself is drawn, about half the values go into a config
file instead of argv, some of them replaced by a JSON value that is not a
string.  An argv value is written as ``--flag=value`` or as ``--flag value``;
a line that uses the second form must end as the first form of it does.  A
list of two or more valid chain lengths must be a usage error on the
commands that take one.
"""

import contextlib
import io
import json
import math
import os

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from xyberry import cli

MALFORMED = ["", ",", "abc", "1:2", "::", "1,,x", "0x10", "1e", "--", "1:2:3:4", "4,six"]
NON_FINITE = ["nan", "inf", "-inf", "1e400", "nan:1:0.1", "0:inf:0.1", "0:1:nan", "nan:1e-3"]
NEGATIVE = ["-1", "-4", "-0.5", "-1:-0.5:0.1", "0:1:-0.1", "1:0:0.1", "-4,-6", "-1e-3:1e-1"]
HUGE = [
    "1e308",
    "99999999999999999999999",
    "100000000000000000000000",
    "-1e308:1e308:1",
    "0:1e308:1e-300",
    "1e-3:1e308",
    "4,100000000000000000000000",
]

# Small valid values per flag; "{dir}" is the example's own directory.
VALID = {
    "lambda": ["0:1:0.25", "-1:1:0.5", "0.5:0.6:0.1", "0:2:0.25", "1.2:1.8:0.1"],
    "gamma": ["0:1:0.25", "-1:1:0.5", "0.2", "0.05,0.5", "0.5:0.6:0.1"],
    "n": ["4", "6", "8", "4,6", "6,4,8", "8,8", "4,"],
    "critical-tol": ["1e-9", "0.05"],
    "steps": ["8", "16"],
    "draws": ["1", "2"],
    "seed": ["0", "3"],
    "window": ["1e-3:1e-1", "1e-3:5e-2"],
    "samples": ["8", "10"],
    "threshold": ["0.1", "0.5"],
    "input": [
        "{dir}/lattice.json",
        "{dir}/missing.json",
        "{dir}/broken.json",
        "{dir}/lattice_list.json",
        "{dir}/lattice_null.json",
        "{dir}/lattice_nan.json",
        "{dir}/lattice_partial.json",
    ],
    "out": ["{dir}/out.dat", "{dir}/no/such/dir/out.dat"],
    "config": ["{dir}/config.json", "{dir}/missing.json", "{dir}/broken.json"],
}

LATTICE = {"j_a": 1.0, "j_b": 1.0, "j_c": 0.2, "u_ab": 100.0, "omega": 0.5, "delta": 1.0}
SINGLE_N_COMMANDS = ("phase-surface", "gap-map", "scaling-fit")
SITE_LISTS = {"--n=4,6", "--n=6,4,8", "--n=8,8"}

# Config-file values that are not JSON strings.
JSON_VALUES = [None, True, False, [4], {"n": 4}, 8, 0.5, -1, 10**30, 1e308, math.nan, math.inf]

# Lattice files whose "j_a" is not a finite number.
BAD_LATTICE = {"list": [1], "null": None, "nan": math.nan}


@st.composite
def command_lines(draw):
    """An argv and the values of the config file it names, if any."""
    command = draw(st.sampled_from(sorted(cli._FLAG_SPECS)))
    specs = cli._FLAG_SPECS[command]
    drawn = {}
    if command == "scaling-fit":
        approach = draw(st.sampled_from(["ising", "xx", "sideways", None]))
        if approach:
            drawn["approach"] = approach
    flags = [name for name, flag in specs.items() if not flag.positional] + ["config"]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        drawn[flag] = draw(st.sampled_from(VALID[flag] + MALFORMED + NON_FINITE + NEGATIVE + HUGE))
    argv, config = [command], {}
    for flag, value in drawn.items():
        if "config" not in drawn and draw(st.booleans()):
            config[flag] = draw(st.sampled_from(JSON_VALUES)) if draw(st.integers(0, 3)) == 0 else value
        elif flag == "approach":
            argv.append(value)
        else:
            argv += [f"--{flag}", value] if draw(st.booleans()) else [f"--{flag}={value}"]
    if config:
        argv.append("--config={dir}/drawn.json")
    return argv, config


def _joined(argv):
    """``argv`` with every ``--flag value`` pair written as ``--flag=value``."""
    tokens, joined = iter(argv), []
    for token in tokens:
        bare_flag = token.startswith("--") and "=" not in token
        joined.append(f"{token}={next(tokens)}" if bare_flag else token)
    return joined


def _run(argv, work):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` run in ``work``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)  # a malformed --out token is a relative path
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue(), stderr.getvalue()


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(line=command_lines())
@example(
    line=(["gap-map", "--lambda=0:1:0.25", "--gamma=0:1:0.25", "--n=4,6", "--out={dir}/out.dat"],
          {})
)
@example(line=(["lattice-map", "--input={dir}/lattice_partial.json"], {}))
@example(line=(["scaling-fit", "--config={dir}/drawn.json"], {"approach": "sideways"}))
@example(
    line=(["gap-map", "--lambda=0:1:0.25", "--gamma=0:1:0.25", "--config={dir}/drawn.json"],
          {"out": None})
)
@example(line=(["gap-map", "--lambda", "-1:1:0.5", "--gamma", "0:1:0.25", "--n", "4,6"], {}))
@example(line=(["step-trace", "--gamma", "-0.5", "--out", "{dir}/out.dat"], {}))
@example(line=(["gap-map", "--lambda", "--", "--gamma", "0:1:0.25"], {}))
@example(line=(["verify", "--draws=1", "--out", "{dir}/no/such/dir/out.dat"], {}))
def test_exit_codes_and_json_errors(tmp_path_factory, line):
    work = tmp_path_factory.mktemp("argv")
    (work / "lattice.json").write_text(json.dumps(LATTICE))
    for name, value in BAD_LATTICE.items():
        (work / f"lattice_{name}.json").write_text(json.dumps({**LATTICE, "j_a": value}))
    (work / "lattice_partial.json").write_text(json.dumps({"j_a": 1.0}))
    (work / "broken.json").write_text("{not json")
    (work / "config.json").write_text(json.dumps({"seed": 1}))
    argv, config = line
    config = {k: v.replace("{dir}", str(work)) if isinstance(v, str) else v
              for k, v in config.items()}
    (work / "drawn.json").write_text(json.dumps(config))
    argv = [token.replace("{dir}", str(work)) for token in argv]
    joined = _joined(argv)
    code, out, err = _run(argv, work)
    assert code in (0, 1, 2), (argv, code)
    if argv[0] in SINGLE_N_COMMANDS and SITE_LISTS & {*joined, f"--n={config.get('n')}"}:
        assert code == 2, (argv, config)
    if code != 0:
        error = json.loads(err)
        assert isinstance(error, dict) and "error" in error, (argv, config, err)
    if joined != argv:
        got, want = (code, out, err), _run(joined, work)
        if "--" in argv:  # argparse's separator: the two messages differ, the exit codes not
            got, want = got[0], want[0]
        assert got == want, (argv, joined)
