"""The README's examples run, print what their comments say, and name the
CLI grammar the code accepts."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from hwl import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the ``## heading`` line."""
    match = re.search(rf"^## {re.escape(heading)}\n.*?^```{lang}\n(.*?)^```", README,
                      re.S | re.M)
    assert match, f"README has no {lang} block under {heading!r}"
    return match.group(1)


def test_library_quick_start_prints_its_comments():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("Quick start (library)", "python"), {})
    gap, vanishing, exponent = out.getvalue().split()
    assert 1e-7 < float(gap) < 1e-6  # "~5e-7"
    assert int(vanishing) == 4
    assert float(exponent) == pytest.approx(4.648, abs=5e-4)


def test_cli_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = _block("Quick start (CLI)", "sh").replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in text.splitlines()]
    assert commands and all(c[0] == "hwl" for c in commands)
    for command in commands:
        assert cli.main(command[1:]) == 0, command
    assert json.loads((tmp_path / "decay.json").read_text(encoding="utf-8"))["pass"] is True


def test_wavelet_names_match_the_generator_table():
    listed = re.search(r"^\* Wavelet names: (.*?)\.\s", README, re.S | re.M).group(1)
    counts = {}
    for item in re.findall(r"`([^`]+)`", listed):
        name, *params = item.split(",")
        counts[name] = len(params)
    assert counts == {name: count for name, (_, count) in cli.GENERATORS.items()}
