"""Argv fuzz: every command line ends in exit 0, 1 or 2, and errors are JSON.

Command lines are built from ``cli._FLAG_SPECS``: a subcommand, a subset of
its flags and ``--config``, and for each flag a token that is malformed, non-finite,
negative, huge, or a small valid value (chains of at most 8 sites, ranges
of at most 10 points), so an accepted command line stays cheap to run.
"""

import contextlib
import io
import json
import math
import os

from hypothesis import HealthCheck, given, settings
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
    "n": ["4", "6", "8", "4,6"],
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
    ],
    "out": ["{dir}/out.dat", "{dir}/no/such/dir/out.dat"],
    "config": ["{dir}/config.json", "{dir}/missing.json", "{dir}/broken.json"],
}

LATTICE = {"j_a": 1.0, "j_b": 1.0, "j_c": 0.2, "u_ab": 100.0, "omega": 0.5, "delta": 1.0}
# Lattice files whose "j_a" is not a finite number.
BAD_LATTICE = {"list": [1], "null": None, "nan": math.nan}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(cli._FLAG_SPECS)))
    argv = [command]
    if command == "scaling-fit":
        approach = draw(st.sampled_from(["ising", "xx", "sideways", None]))
        argv += [approach] if approach else []
    flags = draw(st.lists(st.sampled_from(sorted(cli._FLAG_SPECS[command]) + ["config"]),
                          unique=True))
    for flag in flags:
        pool = VALID[flag] + MALFORMED + NON_FINITE + NEGATIVE + HUGE
        argv.append(f"--{flag}={draw(st.sampled_from(pool))}")
    return argv


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=command_lines())
def test_exit_codes_and_json_errors(tmp_path_factory, argv):
    work = tmp_path_factory.mktemp("argv")
    (work / "lattice.json").write_text(json.dumps(LATTICE))
    for name, value in BAD_LATTICE.items():
        (work / f"lattice_{name}.json").write_text(json.dumps({**LATTICE, "j_a": value}))
    (work / "broken.json").write_text("{not json")
    (work / "config.json").write_text(json.dumps({"seed": 1}))
    argv = [token.replace("{dir}", str(work)) for token in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)  # a malformed --out token is a relative path
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code)
    if code != 0:
        error = json.loads(stderr.getvalue())
        assert isinstance(error, dict) and "error" in error, (argv, stderr.getvalue())
