"""The README's command-line examples, run as written.

Each ``xyberry`` line of the ``sh`` block under "## Command line" runs
through ``cli.main`` with its ``--out`` moved into a temporary directory,
so a flag, range or command renamed in the code but not in the README
fails here.
"""

import json
import shlex
from pathlib import Path

import pytest

from xyberry import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The argv after ``xyberry`` of each command in the README's command-line block."""
    text = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("xyberry ")]


COMMANDS = readme_commands()


def test_the_block_holds_every_command():
    assert {argv[0] for argv in COMMANDS} == set(cli._FLAG_SPECS)


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv[:2]) for argv in COMMANDS])
def test_command_runs_and_writes_its_artifact(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lattice.json").write_text(json.dumps(
        {"j_a": 1.0, "j_b": 0.6, "j_c": 0.4, "u_ab": 20.0, "omega": 0.3, "delta": 0.5}
    ))
    argv = list(argv)
    outs = [k + 1 for k, token in enumerate(argv) if token == "--out"]
    for k in outs:
        argv[k] = str(tmp_path / argv[k])
    assert cli.main(argv) == 0, capsys.readouterr().err
    for k in outs:
        assert Path(argv[k]).is_file()
