"""The README's quick start and library example run as written."""

import re
import shlex
from pathlib import Path

from tickrng.cli import main

README = Path(__file__).parents[1] / "README.md"


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def commands() -> list[list[str]]:
    """The argv of every ``tickrng`` line in the sh blocks, in order, with
    backslash continuations joined."""
    lines = "\n".join(blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("tickrng ")]


def test_readme_commands_run_as_documented(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    argvs = commands()
    assert [argv[0] for argv in argvs] == [
        "simulate", "extract", "test", "bias", "protocol", "eve", "replay",
    ]
    stdout = {}
    for argv in argvs:
        rc = main(argv)
        captured = capsys.readouterr()
        # `test` exits 3 when some run fails the battery, as the README says.
        assert rc in ((0, 3) if argv[0] == "test" else (0,)), (argv, captured.err)
        stdout[argv[0]] = captured.out
    assert stdout["eve"].splitlines()[1] == "1,0.500000"
    assert (tmp_path / "rerun" / "events.txt").read_bytes() == (tmp_path / "events.txt").read_bytes()


def test_readme_library_example_runs(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (example,) = blocks("python")
    exec(compile(example, str(README), "exec"), {})
    assert capsys.readouterr().out.count("\n") == 3
