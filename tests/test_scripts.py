"""Smoke tests for the experiment scripts under ``scripts/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, cwd=ROOT,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_certificate_sweep_certifies_every_small_presentation():
    out = _run_script("certificate_sweep.py", "--n", "2", "3", "--verify-k", "4")
    row = next(line for line in out.splitlines() if line.startswith("n=3 "))
    assert "total=15226 " in row
    assert "uncertified=0 invalid=0 witness_failures=0 " in row


def test_nilpotency_survey_reports_the_tower_n5_row():
    out = _run_script("nilpotency_survey.py", "--max-n", "5")
    rows = {int(line.split()[0]): line.split()
            for line in out.splitlines()[1:] if re.match(r"\s*\d", line)}
    assert sorted(rows) == [1, 2, 3, 4, 5]
    _n, _rels, verdict, nilp, total, _time = rows[5]
    assert (verdict, nilp, total) == ("regular:10", "11", "507")
