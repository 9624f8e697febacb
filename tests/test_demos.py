"""Smoke test of the walkthrough scripts under demos/.

Demo 00 is left out: it rewrites the fixture corpus under data/, whose
agreement with the generator test_shipped_fixtures_match_generator
already guards.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("0[1-6]_*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_and_prints(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
