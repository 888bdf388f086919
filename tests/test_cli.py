import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import quadsemi
from quadsemi.analysis import hilbert_profile, profile_to_json
from quadsemi.census import CENSUS_LIMITS, census_csv, census_records
from quadsemi.cli import main
from quadsemi.textio import render_presentation

from test_acceptance import CENSUS_OPEN

M2_TEXT = "generators 2\nx2*x2 = x1*x1\nx2*x1 = 0\n"
FREE2_TEXT = "generators 2\n"
M1_TEXT = "generators 1\nx1*x1 = 0\n"


@pytest.fixture
def m2_file(tmp_path):
    path = tmp_path / "m2.txt"
    path.write_text(M2_TEXT)
    return str(path)


@pytest.fixture
def free2_file(tmp_path):
    path = tmp_path / "free2.txt"
    path.write_text(FREE2_TEXT)
    return str(path)


@pytest.fixture
def wide_file(tmp_path):
    # with no binomial every class is one word, so the quotient's width
    # grows about 2.7x per degree
    path = tmp_path / "wide.txt"
    path.write_text("generators 3\nx1*x1 = 0\n")
    return str(path)


@pytest.fixture
def tower5_file(tmp_path, tower5):
    path = tmp_path / "tower5.txt"
    path.write_text(render_presentation(tower5))
    return str(path)


class TestValidate:
    def test_valid(self, m2_file, capsys):
        assert main(["validate", m2_file]) == 0
        out = capsys.readouterr().out
        assert "valid QHS: 2 generators, 2 relations" in out

    def test_invalid_exits_one(self, free2_file, capsys):
        assert main(["validate", free2_file]) == 1
        out = capsys.readouterr().out
        assert "invalid QHS:" in out
        assert "coverage_gap" in out

    def test_json_report(self, free2_file, capsys):
        assert main(["validate", "--json", free2_file]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["valid"] is False
        kinds = {v["kind"] for v in data["violations"]}
        assert "missing_top_monomial" in kinds

    def test_a_large_alphabet_gives_a_short_report(self, tmp_path, capsys):
        # ten gaps, one line counting the other 5,000,049,990, and the top
        path = tmp_path / "wide.txt"
        path.write_text("generators 100000\n")
        start = time.process_time()
        assert main(["validate", str(path)]) == 1
        assert time.process_time() - start < 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) <= 13
        assert "  coverage_gap: no support covers 5000049990 more lower pairs" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.txt")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_carries_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("generators 2\nwhat\n")
        assert main(["validate", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("name, data, where", [
        ("long.txt", b"generators 2\nx" + b"9" * 5000 + b"*x1 = 0\n", "line 2: "),
        ("long.json", b'{"n": ' + b"9" * 5000 + b', "relations": []}', "line 1: invalid JSON: "),
        ("latin1.txt", b"generators 2\nx2*x1 = 0 # caf\xe9\n", "line 2: not UTF-8"),
        ("n.json", b'{"n": "' + b"9" * 5000 + b'", "relations": []}', "alphabet needs"),
        ("letter.json", b'{"n": 2, "relations": [{"zero": ["' + b"9" * 5000 + b'", 1]}]}',
         "left monomial"),
    ], ids=["long-text", "long-json", "latin1", "long-string-n", "long-string-letter"])
    def test_unreadable_input_names_the_file(self, tmp_path, capsys, name, data, where):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {where}") and len(err.splitlines()) == 1
        assert len(err) < len(f"error: {path}: ") + 120


class TestBuildExtend:
    def test_build_text(self, capsys):
        assert main(["build", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("generators 5\n")
        assert "x5*x1 = 0" in out

    def test_build_json(self, capsys):
        assert main(["build", "--n", "6", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 6
        assert len(data["relations"]) == 11

    def test_build_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "t.txt"
        assert main(["build", "--n", "5", "--out", str(out_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert out_path.read_text().startswith("generators 5\n")

    def test_unwritable_out_is_an_error_line(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "t.txt"
        assert main(["build", "--n", "5", "--out", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_extend_matches_build(self, tmp_path, capsys):
        m1_path = tmp_path / "m1.txt"
        m1_path.write_text(M1_TEXT)
        assert main(["extend", str(m1_path)]) == 0
        extended = capsys.readouterr().out
        assert main(["build", "--n", "5"]) == 0
        assert extended == capsys.readouterr().out

    def test_extend_rejects_non_qhs(self, free2_file, capsys):
        assert main(["extend", free2_file]) == 1
        assert "valid QHS" in capsys.readouterr().err

    def test_extend_rejects_a_large_alphabet_quickly(self, tmp_path, capsys):
        # the QHS check builds no report of the 500500 uncovered pairs
        path = tmp_path / "big.txt"
        path.write_text("generators 1000\n")
        start = time.perf_counter()
        assert main(["extend", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "error: extension requires a valid QHS inner presentation" in err

    def test_build_of_a_large_tower_is_quick(self, capsys):
        # the 255-letter tower is built in one pass, not one level at a time
        start = time.perf_counter()
        assert main(["build", "--n", "255"]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out.startswith("generators 255\n")

    def test_lemma_m1_rejects_a_large_alphabet_quickly(self, capsys):
        # refused before the n = 300 tower is built, which takes seconds
        start = time.perf_counter()
        assert main(["lemma-m1", "--n", "300"]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err == "error: the coset engine supports at most 255 generators\n"


def _cli_in_limited_memory(argv, limit):
    """Run the CLI in a child process whose address space is capped at limit bytes."""
    resource = pytest.importorskip("resource")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(quadsemi.__file__))
    env = {key: value for key, value in os.environ.items()
           if key != "QUADSEMI_CACHE_DIR"}
    env["PYTHONPATH"] = src
    return subprocess.run([sys.executable, "-m", "quadsemi.cli", *argv],
                          env=env, preexec_fn=cap_memory, capture_output=True,
                          text=True, timeout=300)


class TestHilbert:
    def test_text_output(self, m2_file, capsys):
        assert main(["hilbert", m2_file]) == 0
        out = capsys.readouterr().out
        assert "degree 0: 1" in out
        assert "nilpotency index 3, total dimension 5" in out

    def test_csv_output(self, m2_file, capsys):
        assert main(["hilbert", m2_file, "--csv"]) == 0
        assert capsys.readouterr().out == (
            "degree,dimension\n0,1\n1,2\n2,2\n3,0\n"
        )

    def test_json_output(self, m2_file, capsys):
        assert main(["hilbert", m2_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dims"] == [1, 2, 2, 0]
        assert data["verdict"] == "finite:3"

    def test_open_profile_is_inconclusive(self, free2_file, capsys):
        assert main(["hilbert", free2_file, "--max-degree", "3"]) == 2
        assert "open" in capsys.readouterr().out

    def test_csv_and_json_exclusive(self, m2_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["hilbert", m2_file, "--csv", "--json"])
        assert err.value.code == 1

    def test_out_of_memory_is_inconclusive(self, wide_file):
        # a width cap past reach lets the quotient grow until memory runs out
        run = _cli_in_limited_memory(
            ["--max-classes", str(10 ** 9), "hilbert", wide_file], 400 << 20)
        assert run.returncode == 2, run.stderr
        assert run.stderr == "inconclusive: out of memory\n"

    def test_width_cap_is_inconclusive(self, wide_file, capsys):
        assert main(["--max-classes", "1000", "hilbert", wide_file]) == 2
        out = capsys.readouterr().out
        assert out.endswith("degree 6: 448\n"
                            "inconclusive at degree 7: degree 7 has more than 1000 classes\n")

    def test_default_width_cap_ends_the_run_before_memory(self, wide_file):
        # the default width cap stops the quotient at degree 14, after
        # 508,992 classes at degree 13; the address space limit only turns
        # a runaway into a failure
        run = _cli_in_limited_memory(["nilpotency", wide_file], 1536 << 20)
        assert run.returncode == 2, run.stderr
        assert run.stdout == ("inconclusive at degree 14: "
                              "degree 14 has more than 1000000 classes\n")

    def test_width_cap_is_part_of_the_cache_key(self, m2_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["--cache", cache, "--max-classes", "1", "hilbert", m2_file]) == 2
        assert "degree 2 has more than 1 classes" in capsys.readouterr().out
        assert main(["--cache", cache, "hilbert", m2_file]) == 0
        assert "nilpotency index 3" in capsys.readouterr().out
        assert main(["--cache", cache, "--max-classes", "1", "regularity", m2_file]) == 0
        assert main(["--cache", cache, "regularity", m2_file]) == 0
        records = (tmp_path / "cache" / "runs.jsonl").read_text().splitlines()
        assert [json.loads(line)["parameters"]["max_classes"] for line in records] == [
            1, 1_000_000, 1, 1_000_000]

    def test_class_size_cap_is_not_part_of_the_cache_key(self, m2_file, tmp_path, capsys):
        # the class quotient walks no class, so the profile at one class-size
        # cap is the profile at every other
        cache = str(tmp_path / "cache")
        assert main(["--cache", cache, "--max-class-size", "3", "hilbert", m2_file]) == 0
        first = capsys.readouterr().out
        stored = (tmp_path / "cache" / "runs.jsonl").read_text()
        assert len(stored.splitlines()) == 1
        assert "max_class_size" not in json.loads(stored)["parameters"]
        assert main(["--cache", cache, "hilbert", m2_file]) == 0
        assert capsys.readouterr().out == first
        assert (tmp_path / "cache" / "runs.jsonl").read_text() == stored


class TestNilpotency:
    def test_finite(self, m2_file, capsys):
        assert main(["nilpotency", m2_file]) == 0
        assert "nilpotency index: 3" in capsys.readouterr().out

    def test_open(self, free2_file, capsys):
        assert main(["nilpotency", free2_file, "--cap", "3"]) == 2
        assert "inconclusive" in capsys.readouterr().out

    def test_width_cap_names_the_degree(self, wide_file, capsys):
        assert main(["--max-classes", "1000", "nilpotency", wide_file]) == 2
        assert capsys.readouterr().out == (
            "inconclusive at degree 7: degree 7 has more than 1000 classes\n")


class TestSingularRegularity:
    def test_singular_listing(self, tmp_path, m3, capsys):
        path = tmp_path / "m3.txt"
        path.write_text(render_presentation(m3))
        assert main(["singular", str(path), "--degree", "2"]) == 0
        out = capsys.readouterr().out
        assert "# degree 2: 2 singular" in out
        assert "x1*x1" in out
        assert "x1*x2" in out

    def test_singular_json(self, tmp_path, m3, capsys):
        path = tmp_path / "m3.txt"
        path.write_text(render_presentation(m3))
        assert main(["singular", str(path), "--degree", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"degree": 3, "singular": []}

    def test_singular_rejects_non_qhs(self, free2_file, capsys):
        assert main(["singular", free2_file, "--degree", "2"]) == 1
        assert "valid QHS" in capsys.readouterr().err

    def test_regularity_verdict(self, tower5_file, capsys):
        assert main(["regularity", tower5_file]) == 0
        assert "regular at degree 10" in capsys.readouterr().out

    def test_regularity_json(self, tower5_file, capsys):
        assert main(["regularity", tower5_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "regular"
        assert data["degree"] == 10
        assert data["nilpotency_bound"] == 11

    def test_regularity_cap_exits_two(self, tower5_file, capsys):
        assert main(["regularity", tower5_file, "--cap", "3"]) == 2
        assert "persist through degree 3" in capsys.readouterr().out

    def test_regularity_names_the_repeat(self, tmp_path, capsys):
        path = tmp_path / "open.txt"
        path.write_text(CENSUS_OPEN)
        assert main(["regularity", str(path), "--cap", "12"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "singular monomials persist through degree 12",
            "full class quotient repeats at degree 8: the algebra is infinite, "
            "with singular words in every degree",
        ]
        assert main(["regularity", str(path), "--cap", "12", "--json"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"status", "degree", "nilpotency_bound", "detail"}
        assert (data["status"], data["degree"]) == ("irregular_up_to", 12)

    def test_regularity_class_cap_exits_two(self, tower5_file, capsys):
        assert main(["--max-class-size", "1", "regularity", tower5_file]) == 2
        assert "inconclusive" in capsys.readouterr().out

    def test_singular_class_cap_exits_two(self, tower5_file, capsys):
        assert main(["--max-class-size", "1", "singular", tower5_file, "--degree", "3"]) == 2
        err = capsys.readouterr().err
        assert "inconclusive: coset class of x1*x1 exceeded 1 members" in err

    @pytest.mark.parametrize("args", [["regularity"], ["singular", "--degree", "2"]])
    def test_too_many_generators_fail_before_the_qhs_check(self, tmp_path, args, capsys):
        # the alphabet is checked before the QHS
        path = tmp_path / "big.txt"
        path.write_text("generators 1000\n")
        assert main([*args, str(path)]) == 1
        assert "error: the coset engine supports at most 255 generators" in capsys.readouterr().err

    def test_regularity_rejects_non_qhs(self, free2_file, capsys):
        assert main(["regularity", free2_file]) == 1
        err = capsys.readouterr().err
        assert "error: singular sets are defined for valid QHS presentations only" in err


class TestCertify:
    def test_found(self, free2_file, capsys):
        assert main(["certify", free2_file]) == 0
        assert "certificate: se_pair (1, 1)" in capsys.readouterr().out

    def test_verified_witness(self, free2_file, capsys):
        assert main(["certify", free2_file, "--verify-k", "3"]) == 0
        assert "witness power 3: nonzero" in capsys.readouterr().out

    def test_zero_sum(self, tmp_path, capsys):
        # every pair of letters meets a relation, and both relations are
        # binomials
        path = tmp_path / "binomial.txt"
        path.write_text("generators 2\nx1*x1 = x2*x2\nx1*x2 = x2*x1\n")
        assert main(["certify", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "certificate: zero_sum"

    def test_none_exits_two(self, tower5_file, capsys):
        assert main(["certify", tower5_file]) == 2
        assert "no certificate:" in capsys.readouterr().out

    def test_json(self, free2_file, capsys):
        assert main(["certify", free2_file, "--json", "--verify-k", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "type": "se_pair",
            "a": 1,
            "b": 1,
            "witness_power": 2,
            "witness_nonzero": True,
        }


class TestLemmaM1:
    def test_n5(self, capsys):
        assert main(["lemma-m1", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "power 8: witness " in out
        assert out.rstrip().endswith("x5")

    def test_json(self, capsys):
        assert main(["lemma-m1", "--n", "5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["q"] == 8
        assert data["witness"][-1] == 5

    def test_power_override_fails_gracefully(self, capsys):
        assert main(["lemma-m1", "--n", "5", "--power", "1"]) == 2
        assert "no class member ends in x5" in capsys.readouterr().out

    def test_exhaustion_on_a_long_power_is_one_short_line(self, capsys):
        argv = ["--max-class-size", "1", "lemma-m1", "--n", "5", "--power", "80000"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200
        assert "*... (80000 letters) exceeded 1 members" in err

    def test_small_n_is_input_error(self, capsys):
        assert main(["lemma-m1", "--n", "4"]) == 1
        assert "n >= 5" in capsys.readouterr().err

    def test_cap_hit_is_inconclusive_and_not_cached(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["--cache", str(cache_dir), "--max-class-size", "100", "lemma-m1", "--n", "6"]
        assert main(argv) == 2
        power = "*".join(["x1"] * 11)
        assert capsys.readouterr().err == (
            f"inconclusive: coset class of {power} exceeded 100 members\n")
        assert not (cache_dir / "runs.jsonl").exists()

    def test_cache_hit_prints_what_the_miss_printed(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["--cache", str(cache_dir), "lemma-m1", "--n", "5", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert len((cache_dir / "runs.jsonl").read_text().splitlines()) == 1


class TestEnumerate:
    def test_qhs_count(self, capsys):
        assert main(["enumerate", "--n", "3", "--count"]) == 0
        assert capsys.readouterr().out.strip() == "13"

    def test_qhs_listing_is_json_lines(self, capsys):
        assert main(["enumerate", "--n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert json.loads(line)["n"] == 2

    def test_presentations_count(self, capsys):
        assert main(["enumerate", "--n", "2", "--presentations", "--d-max", "1", "--count"]) == 0
        assert capsys.readouterr().out.strip() == "10"

    def test_d_max_past_the_relation_universe(self, capsys):
        # n = 1 has one relation, so no size past 1 is tried
        start = time.perf_counter()
        assert main(["enumerate", "--n", "1", "--presentations", "--d-max", "320000", "--count"]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "1\n"
        # n = 2 has ten, so every d_max from 10 on counts all 2^10 - 1 subsets
        for d_max in ("10", "12"):
            assert main(["enumerate", "--n", "2", "--presentations", "--d-max", d_max, "--count"]) == 0
            assert capsys.readouterr().out == "1023\n"

    def test_presentations_need_d_max(self, capsys):
        assert main(["enumerate", "--n", "2", "--presentations"]) == 1

    def test_d_max_needs_presentations(self, capsys):
        assert main(["enumerate", "--n", "2", "--d-max", "2"]) == 1

    def test_cap_is_input_error(self, capsys):
        assert main(["enumerate", "--n", "9", "--count"]) == 1


class TestTables:
    def test_delta_table(self, capsys):
        assert main(["delta-table", "--max-n", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,delta,wisliceny,(n^2+n)/4,gap"
        assert len(lines) == 6
        assert lines[5] == "5,8,9,7.5,1"
        assert lines[1] == "1,1,1,0.5,0"

    def test_census_stdout(self, capsys):
        assert main(["census", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("id,d,qhs,all_pure,verdict,certificate\n")
        assert len(out.strip().splitlines()) == 3

    def test_census_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "census.csv"
        assert main(["census", "--n", "2", "--out", str(out_path)]) == 0
        assert "wrote 2 records" in capsys.readouterr().out
        assert out_path.read_text().startswith("id,d,")

    def test_census_cap(self, capsys):
        assert main(["census", "--n", "7"]) == 1

    def test_census_honours_max_class_size(self, capsys):
        assert main(["--max-class-size", "1", "census", "--n", "3"]) == 0
        out = capsys.readouterr().out
        limits = replace(CENSUS_LIMITS, max_class_size=1)
        assert out == census_csv(census_records(3, limits))
        verdicts = [line.split(",")[4] for line in out.splitlines()[1:]]
        # the cap bounds the regularity walks; the profiles walk no class
        assert sum("inconclusive" in v for v in verdicts) == 9
        assert not any("inconclusive" in v.split("/")[1] for v in verdicts)


class TestCacheFlow:
    def test_second_run_hits_cache(self, tmp_path, m2_file, m4, capsys):
        # the plain query, then the served workload's three cached operations
        m4_file = tmp_path / "m4.txt"
        m4_file.write_text(render_presentation(m4))
        queries = [
            ("hilbert", m2_file),
            ("hilbert", str(m4_file), "--max-degree", "8"),
            ("regularity", str(m4_file), "--cap", "8"),
            ("singular", str(m4_file), "--degree", "3"),
        ]
        for i, query in enumerate(queries):
            cache_dir = tmp_path / f"cache{i}"
            argv = ["--cache", str(cache_dir), *query, "--json"]
            assert main(argv) == 0, query
            first = capsys.readouterr().out
            stored = (cache_dir / "runs.jsonl").read_text()
            assert len(stored.splitlines()) == 1, query
            assert main(argv) == 0, query
            assert capsys.readouterr().out == first, query
            # a hit must not append another record
            assert (cache_dir / "runs.jsonl").read_text() == stored, query

    def test_a_rewritten_file_is_answered_afresh(self, tmp_path, m2, m3, capsys):
        cache_dir = tmp_path / "cache"
        path = tmp_path / "p.txt"
        path.write_text(render_presentation(m2))
        argv = ["--cache", str(cache_dir), "hilbert", str(path), "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2
        path.write_text(render_presentation(m3))
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second == profile_to_json(hilbert_profile(m3))
        assert len((cache_dir / "runs.jsonl").read_text().splitlines()) == 2

    def test_env_variable_is_honoured(self, tmp_path, m2_file, capsys, monkeypatch):
        cache_dir = tmp_path / "envcache"
        monkeypatch.setenv("QUADSEMI_CACHE_DIR", str(cache_dir))
        assert main(["nilpotency", m2_file]) == 0
        capsys.readouterr()
        assert (cache_dir / "runs.jsonl").exists()

    def test_nilpotency_and_hilbert_share_entries(self, tmp_path, m2_file, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["--cache", str(cache_dir), "hilbert", m2_file]) == 0
        assert main(["--cache", str(cache_dir), "nilpotency", m2_file]) == 0
        capsys.readouterr()
        assert len((cache_dir / "runs.jsonl").read_text().splitlines()) == 1

    def test_undecodable_cache_line_is_skipped(self, tmp_path, m2_file, capsys):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "runs.jsonl").write_bytes(b"\xff\xfe\n")
        argv = ["--cache", str(cache_dir), "hilbert", m2_file, "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert len((cache_dir / "runs.jsonl").read_bytes().splitlines()) == 2

    def test_unusable_cache_file_is_an_error_line(self, tmp_path, m2_file, capsys):
        cache_dir = tmp_path / "cache"
        (cache_dir / "runs.jsonl").mkdir(parents=True)
        assert main(["--cache", str(cache_dir), "hilbert", m2_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestParsing:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["validate", "--frobnicate", "x"])
        assert err.value.code == 1

    def test_missing_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_nonpositive_numeric_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--max-class-size", "0", "enumerate", "--n", "2", "--count"])
        assert err.value.code == 1


class TestRuntimeFailures:
    """main's answer when a handler's callee fails mid-run."""

    @staticmethod
    def _raise(exc):
        def raiser(*args):
            raise exc
        return raiser

    def test_out_of_memory_is_inconclusive(self, capsys, monkeypatch):
        monkeypatch.setattr("quadsemi.cli.delta", self._raise(MemoryError()))
        assert main(["delta-table", "--max-n", "3"]) == 2
        assert capsys.readouterr().err == "inconclusive: out of memory\n"

    def test_a_closed_stdout_is_not_an_error(self, capsys, monkeypatch):
        monkeypatch.setattr("quadsemi.cli.delta", self._raise(BrokenPipeError()))
        assert main(["delta-table", "--max-n", "3"]) == 0
        assert capsys.readouterr().err == ""


class TestParserReuse:
    """main builds its parser once per process; no call may leak into the next."""

    def test_usage_error_then_valid_call(self, m2_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["hilbert", m2_file, "--frobnicate"])
        assert err.value.code == 1
        capsys.readouterr()
        assert main(["hilbert", m2_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["dims"] == [1, 2, 2, 0]

    def test_flags_do_not_leak_between_calls(self, m2_file, capsys):
        assert main(["--max-class-size", "7", "hilbert", m2_file, "--json"]) == 0
        json.loads(capsys.readouterr().out)
        assert main(["hilbert", m2_file]) == 0
        out = capsys.readouterr().out
        assert "nilpotency index 3, total dimension 5" in out
        assert not out.lstrip().startswith("{")

    def test_version_after_other_calls(self, m2_file, capsys):
        assert main(["validate", m2_file]) == 0
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.strip() == "0.1.0"


class TestFrozenBehaviour:
    """One digest over what the CLI prints, returns and caches for a fixed
    command matrix: any change a user or the cache would see moves it."""

    QUERIES = [
        ["hilbert", "m2.txt"],
        ["hilbert", "free2.txt"],
        ["hilbert", "m3.txt", "--csv"],
        ["hilbert", "m4.txt", "--json"],
        ["hilbert", "free2.txt", "--max-degree", "3"],
        ["hilbert", "wide.txt", "--max-degree", "4", "--json"],
        ["nilpotency", "m2.txt"],
        ["nilpotency", "free2.txt", "--cap", "3"],
        ["nilpotency", "m4.txt", "--cap", "5"],
        ["regularity", "m3.txt"],
        ["regularity", "m4.txt", "--cap", "2"],
        ["regularity", "m4.txt", "--json"],
        ["regularity", "m3.txt", "--cap", "3", "--json"],
        ["regularity", "free2.txt"],
        ["singular", "m3.txt", "--degree", "2"],
        ["singular", "m4.txt", "--degree", "3", "--json"],
        ["lemma-m1", "--n", "3", "--power", "3"],
        ["lemma-m1", "--n", "4", "--power", "3", "--json"],
        ["lemma-m1", "--n", "4"],
        ["census", "--n", "2"],
        ["census", "--n", "2", "--out", "census.csv"],
        ["--max-classes", "2", "hilbert", "wide.txt"],
        ["--max-classes", "3", "nilpotency", "wide.txt", "--cap", "6"],
        ["--max-classes", "3", "regularity", "m4.txt", "--json"],
        ["--max-class-size", "2", "regularity", "m4.txt"],
        ["--max-class-size", "2", "singular", "m4.txt", "--degree", "3"],
        ["--max-class-size", "2", "hilbert", "m4.txt", "--max-degree", "6"],
        ["--max-class-size", "3", "lemma-m1", "--n", "4", "--power", "4"],
        ["--max-class-size", "1", "census", "--n", "2", "--out", "census.csv"],
    ]

    def test_outputs_and_records_are_frozen(self, tmp_path, m3, m4, capsys, monkeypatch):
        # relative paths keep tmp_path out of argv and output; the matrix runs
        # without a cache, then twice with one (misses that store, then hits)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("QUADSEMI_CACHE_DIR", raising=False)
        for name, text in (("m2.txt", M2_TEXT), ("free2.txt", FREE2_TEXT),
                           ("wide.txt", "generators 3\nx1*x1 = 0\n"),
                           ("m3.txt", render_presentation(m3)),
                           ("m4.txt", render_presentation(m4))):
            (tmp_path / name).write_text(text)
        digest = hashlib.sha256()
        for prefix in ([], ["--cache", "cache"], ["--cache", "cache"]):
            for query in self.QUERIES:
                argv = prefix + query
                code = main(argv)
                captured = capsys.readouterr()
                written = (tmp_path / "census.csv").read_text() if "--out" in argv else None
                digest.update(json.dumps([argv, code, captured.out, captured.err,
                                          written]).encode("utf-8") + b"\n")
        records = [json.loads(line) for line in
                   (tmp_path / "cache" / "runs.jsonl").read_text().splitlines()]
        for record in records:
            digest.update(json.dumps([record[key] for key in (
                "presentation_hash", "operation", "parameters", "result")],
                sort_keys=True).encode("utf-8") + b"\n")
        assert len(records) == 20
        assert digest.hexdigest() == "fac3a27d13cfdf5c513b8c8df9222ce42aa23444de16f9b8d7d058a8e7718572"
