"""Smoke test: demos 01-05 run to completion against the current API.

Demo 06 is left out: it runs the verification suites, which
``test_acceptance.py`` already covers.
"""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("0[1-5]_*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a demo saves its figure
    runpy.run_path(str(path), run_name="__main__")
