"""Smoke tests for the experiment scripts under ``scripts/``."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str, returncode: int = 0) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, cwd=ROOT,
    )
    assert run.returncode == returncode, run.stderr
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


def test_nilpotency_survey_rejects_non_positive_values():
    # argparse exits 2 with a usage error; a value that reached EngineLimits
    # or build_regular_qhs would end in a traceback and exit 1
    for flag in ("--min-n", "--cap", "--max-class-size"):
        assert _run_script("nilpotency_survey.py", flag, "0", returncode=2) == ""


def test_scripts_reject_sizes_they_cannot_use(tmp_path):
    # the engine takes at most 255 generators, enumerate_qhs at most
    # census.QHS_ENUM_CAP, a tower witness at least 5, and a sampling step
    # is at least 0: anything else is a usage error before any work starts
    assert _run_script("nilpotency_survey.py", "--min-n", "256", "--max-n", "256",
                       returncode=2) == ""
    out = tmp_path / "out.json"
    for args in (("--max-n", "6"), ("--max-n", "-1"), ("--towers", "4"),
                 ("--towers", "256"), ("--n5-every", "-1")):
        assert _run_script("capped_answers.py", "write", str(out), *args, returncode=2) == ""
    assert not out.exists()


def test_certificate_sweep_rejects_out_of_range_values():
    # n runs from 1 to census.GENERAL_ENUM_CAP and k from 1; anything else
    # is an argparse usage error (exit 2) rather than a traceback (exit 1)
    for args in (("--n", "0"), ("--n", "-1"), ("--n", "4"), ("--verify-k", "0")):
        assert _run_script("certificate_sweep.py", *args, returncode=2) == ""
    # n = 1 allows no relation at all, so only the empty presentation is swept
    out = _run_script("certificate_sweep.py", "--n", "1", "--verify-k", "2")
    assert out.startswith("n=1 d_max=0 total=1 se_pair=1 zero_sum=0 uncertified=0 invalid=0 ")


def test_capped_answers_writes_and_compares(tmp_path):
    old = tmp_path / "old.json"
    out = _run_script("capped_answers.py", "write", str(old),
                      "--max-n", "2", "--towers", "5", "--n5-every", "0")
    # 15 + 5 regularity answers at the class-size caps, 9 + 3 at the width
    # caps, as many Hilbert answers, and 6 witness answers for the tower
    assert out.startswith("70 answers written")
    data = json.loads(old.read_text())
    answers = data["answers"]
    assert {label for label, _answer, _detail in answers.values()} == {"n1", "n2", "tower5"}
    assert all(isinstance(detail, str) for _label, _answer, detail in answers.values())
    witness = {key.split("@")[1]: answer for key, (_label, answer, _detail) in answers.items()
               if key.endswith(":witness")}
    assert witness == {f"{cap}:witness": "inconclusive:0" for cap in (3, 10, 30, 100)} | {
        f"{cap}:witness": "found:x5*x1*x1*x3*x2*x5*x5*x5" for cap in (1000, 5000000)}
    # the class quotient walks no class, so every class-size cap gives the
    # exact profile; the width caps cut it, at the degree that outgrows them
    hilbert = {key.split("@")[1]: answer for key, (label, answer, _detail) in answers.items()
               if key.endswith(":hilbert") and label == "tower5"}
    assert hilbert == {f"{cap}:hilbert": "finite:11" for cap in (3, 10, 30, 100, 1000)} | {
        "w2:hilbert": "inconclusive:2", "w5:hilbert": "inconclusive:2",
        "w30:hilbert": "inconclusive:3"}
    assert _run_script("capped_answers.py", "compare", str(old), str(old)).endswith(
        "70 answers, 0 moved, 0 bad\n")
    new = tmp_path / "new.json"

    def compare_with(key, answer, returncode):
        saved = answers[key][1]
        answers[key][1] = answer
        new.write_text(json.dumps(data))
        answers[key][1] = saved
        out = _run_script("capped_answers.py", "compare", str(old), str(new),
                          returncode=returncode)
        assert out.endswith("70 answers, 1 moved, %d bad\n" % returncode)
        return out

    # a detail that moves under an unchanged answer is listed, not failed
    key = next(iter(answers))
    answers[key][2] = "coset class of x1*x1 exceeded 3 members"
    new.write_text(json.dumps(data))
    out = _run_script("capped_answers.py", "compare", str(old), str(new))
    assert f"{key} (n" in out and "detail" in out
    assert out.endswith("70 answers, 1 moved, 0 bad\n")
    answers[key][2] = json.loads(old.read_text())["answers"][key][2]
    # an answer that falls back to inconclusive must fail the comparison
    key = next(k for k, (_label, a, _detail) in answers.items() if a.startswith("regular:"))
    out = compare_with(key, "inconclusive:0", 1)
    assert f"{key} (n" in out and "LESS CONCLUSIVE" in out
    # a found witness that moves, turns into none or into inconclusive fails
    found = next(k for k in answers if k.endswith("@1000:witness"))
    assert "DISAGREES" in compare_with(found, "found:x5*x1*x1*x3*x2*x5*x5*x4", 1)
    assert "DISAGREES" in compare_with(found, "none:", 1)
    assert "LESS CONCLUSIVE" in compare_with(found, "inconclusive:0", 1)
    # a witness found where the old run was inconclusive is more conclusive
    capped = next(k for k in answers if k.endswith("@100:witness"))
    assert "more conclusive" in compare_with(capped, "found:x5*x1*x1*x3*x2*x5*x5*x5", 0)
    # a profile ranks like regularity: finite and open above inconclusive,
    # and a finite profile that turns open disagrees
    profile = next(k for k in answers if k.endswith("@3:hilbert") and answers[k][0] == "tower5")
    assert "LESS CONCLUSIVE" in compare_with(profile, "inconclusive:7", 1)
    assert "DISAGREES" in compare_with(profile, "open:12", 1)
    answers[profile][1] = "inconclusive:7"
    old.write_text(json.dumps(data))
    assert "more conclusive" in compare_with(profile, "finite:11", 0)
    assert "more conclusive" in compare_with(profile, "inconclusive:8", 0)


def test_capped_answers_are_frozen(tmp_path):
    # the default answer set (every QHS with n <= 4, towers 5 and 6, every
    # 97th n = 5 QHS) pinned by the digest of the file ``write`` makes; a
    # change of spec updates the digest and lists the answers that moved
    out = tmp_path / "answers.json"
    assert _run_script("capped_answers.py", "write", str(out)).startswith(
        "11804 answers written")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ec26bcb3d3f80311878eae97d212591efc5b31cb5855dd4d19ff4bac272c6e7e")
