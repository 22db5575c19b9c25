"""The argument parser is built once per process and shared by every
cli.main call; no call may see another's flags or errors."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from macgame import cli

SRC = Path(__file__).resolve().parents[1] / "src"

DOC = {"kind": "single_receiver", "task": "analyze", "users": 3, "power": 25.0,
       "gain": 1.0, "noise": 0.1}


@pytest.fixture(scope="module")
def analyze_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "s.json"
    path.write_text(json.dumps(DOC), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def fresh_output(analyze_file):
    """Exit code and stdout of `macgame analyze` on the file in a new process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "macgame.cli", "analyze", str(analyze_file)],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout


def run_main(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("--seed", "7"), ("--tol", "1e-3"),
                                         ("--log-base", "e")])
def test_a_flag_does_not_carry_to_the_next_call(flag, value, analyze_file, fresh_output,
                                                capsys):
    flagged = run_main(["analyze", str(analyze_file), flag, value], capsys)
    assert flagged != fresh_output
    assert run_main(["analyze", str(analyze_file)], capsys) == fresh_output


@pytest.mark.parametrize("argv", [["frobnicate", "{file}"], ["analyze"],
                                  ["analyze", "{file}", "--seed", "x"],
                                  ["verify", "{file}", "--log-base", "10"]])
def test_an_argparse_error_leaves_the_parser_usable(argv, analyze_file, fresh_output, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(file=analyze_file) for arg in argv])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_main(["analyze", str(analyze_file)], capsys) == fresh_output


def test_the_parser_is_built_once_over_three_calls(monkeypatch, analyze_file, capsys):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    try:
        for argv in (["analyze", str(analyze_file)], ["analyze", str(analyze_file), "--seed", "3"],
                     ["verify", str(analyze_file)]):
            cli.main(argv)
    finally:
        cli._build_parser.cache_clear()
    capsys.readouterr()
    assert progs == ["macgame", "macgame analyze", "macgame simulate", "macgame verify"]
