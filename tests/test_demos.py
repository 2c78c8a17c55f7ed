"""Every demo under ``demos/`` runs to the end and prints its narrative, and
``calibrate.py`` still imports and parses its arguments."""

import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_calibrate_help(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["calibrate.py", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(ROOT / "calibrate.py"), run_name="__main__")
    assert exit_info.value.code == 0
    assert "usage: calibrate.py" in capsys.readouterr().out
