import json
import multiprocessing
import os

from quadsemi.cache import ENV_VAR, RunCache, resolve_cache
from quadsemi.engine import ENGINE_VERSION

HASH = "ab" * 8
PARAMS = {"max_degree": 12, "max_class_size": 100}
RESULT = {"dims": [1, 2, 0], "verdict": "finite:2"}


def test_miss_on_empty_directory(tmp_path):
    cache = RunCache(tmp_path)
    assert cache.lookup(HASH, "hilbert", PARAMS) is None
    assert not cache.path.exists()


def test_round_trip(tmp_path):
    cache = RunCache(tmp_path)
    cache.store(HASH, "hilbert", PARAMS, RESULT, 0.25)
    assert cache.lookup(HASH, "hilbert", PARAMS) == RESULT


def test_parameter_order_does_not_matter(tmp_path):
    cache = RunCache(tmp_path)
    cache.store(HASH, "hilbert", PARAMS, RESULT, 0.0)
    flipped = {"max_class_size": 100, "max_degree": 12}
    assert cache.lookup(HASH, "hilbert", flipped) == RESULT


def test_mismatches_miss(tmp_path):
    cache = RunCache(tmp_path)
    cache.store(HASH, "hilbert", PARAMS, RESULT, 0.0)
    assert cache.lookup("cd" * 8, "hilbert", PARAMS) is None
    assert cache.lookup(HASH, "regularity", PARAMS) is None
    assert cache.lookup(HASH, "hilbert", {**PARAMS, "max_degree": 13}) is None


def test_engine_version_gates_hits(tmp_path):
    cache = RunCache(tmp_path)
    cache.store(HASH, "hilbert", PARAMS, RESULT, 0.0)
    line = json.loads(cache.path.read_text())
    assert line["engine_version"] == ENGINE_VERSION
    line["engine_version"] = "0.0.0"
    cache.path.write_text(json.dumps(line) + "\n")
    assert cache.lookup(HASH, "hilbert", PARAMS) is None


def test_last_matching_line_wins(tmp_path):
    cache = RunCache(tmp_path)
    cache.store(HASH, "hilbert", PARAMS, {"dims": [1]}, 0.0)
    cache.store(HASH, "hilbert", PARAMS, RESULT, 0.0)
    assert cache.lookup(HASH, "hilbert", PARAMS) == RESULT
    assert len(cache.path.read_text().splitlines()) == 2


def test_corrupt_lines_are_skipped(tmp_path):
    cache = RunCache(tmp_path)
    cache.store(HASH, "hilbert", PARAMS, RESULT, 0.0)
    with cache.path.open("a", encoding="utf-8") as fh:
        fh.write("{truncated\n")
        fh.write('{"presentation_hash": "zz"}\n')
        fh.write("\n")
    assert cache.lookup(HASH, "hilbert", PARAMS) == RESULT


def test_store_creates_directory(tmp_path):
    cache = RunCache(tmp_path / "deep" / "nested")
    cache.store(HASH, "op", {}, {}, 0.0)
    assert cache.path.exists()


def test_resolve_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert resolve_cache(None) is None
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "env"))
    assert resolve_cache(None).directory == tmp_path / "env"
    assert resolve_cache(str(tmp_path / "flag")).directory == tmp_path / "flag"
    monkeypatch.setenv(ENV_VAR, "")
    assert resolve_cache(None) is None


def test_undecodable_line_is_skipped(tmp_path):
    cache = RunCache(tmp_path)
    cache.path.write_bytes(b"\xff\xfe\n")
    cache.store(HASH, "hilbert", PARAMS, RESULT, 0.0)
    with cache.path.open("ab") as fh:
        fh.write(b"\xff\xfe\n")
    assert cache.lookup(HASH, "hilbert", PARAMS) == RESULT
    assert cache.lookup(HASH, "regularity", PARAMS) is None


def test_non_object_result_is_skipped(tmp_path):
    cache = RunCache(tmp_path)
    cache.store(HASH, "hilbert", PARAMS, RESULT, 0.0)
    for bad in (5, [], None, "finite:2"):
        cache.store(HASH, "hilbert", PARAMS, bad, 0.0)
        assert cache.lookup(HASH, "hilbert", PARAMS) == RESULT
    cache.store(HASH, "regularity", PARAMS, [], 0.0)
    assert cache.lookup(HASH, "regularity", PARAMS) is None


# -- the per-process index ------------------------------------------------


def test_truncate_and_rewrite_under_live_index(tmp_path):
    cache = RunCache(tmp_path)
    cache.store(HASH, "hilbert", PARAMS, RESULT, 0.0)
    warm = cache.path.read_bytes()
    cache.store(HASH, "regularity", PARAMS, {"degree": 4}, 0.0)
    assert cache.lookup(HASH, "regularity", PARAMS) == {"degree": 4}
    cache.path.write_bytes(warm)
    assert cache.lookup(HASH, "regularity", PARAMS) is None
    assert cache.lookup(HASH, "hilbert", PARAMS) == RESULT
    cache.store(HASH, "regularity", PARAMS, {"degree": 5}, 0.0)
    assert cache.lookup(HASH, "regularity", PARAMS) == {"degree": 5}


def test_same_size_rewrite_is_seen(tmp_path):
    cache = RunCache(tmp_path)
    cache.store(HASH, "hilbert", PARAMS, {"dims": [1, 2]}, 0.0)
    assert cache.lookup(HASH, "hilbert", PARAMS) == {"dims": [1, 2]}
    data = cache.path.read_bytes()
    cache.path.write_bytes(data.replace(b"[1,2]", b"[1,3]"))
    assert cache.lookup(HASH, "hilbert", PARAMS) == {"dims": [1, 3]}
    stale = data.replace(ENGINE_VERSION.encode(), b"9" * len(ENGINE_VERSION))
    cache.path.write_bytes(stale)
    assert cache.path.stat().st_size == len(data)
    assert cache.lookup(HASH, "hilbert", PARAMS) is None


def test_replaced_file_is_seen(tmp_path):
    cache = RunCache(tmp_path)
    cache.store(HASH, "hilbert", PARAMS, RESULT, 0.0)
    assert cache.lookup(HASH, "hilbert", PARAMS) == RESULT
    other = RunCache(tmp_path / "other")
    other.store(HASH, "regularity", PARAMS, {"degree": 4}, 0.0)
    other.store(HASH, "hilbert", {}, RESULT, 0.0)
    assert other.path.stat().st_size > cache.path.stat().st_size
    os.replace(other.path, cache.path)
    assert cache.lookup(HASH, "hilbert", PARAMS) is None
    assert cache.lookup(HASH, "regularity", PARAMS) == {"degree": 4}
    assert cache.lookup(HASH, "hilbert", {}) == RESULT


def test_torn_tail_is_not_indexed(tmp_path):
    cache = RunCache(tmp_path)
    cache.store(HASH, "hilbert", PARAMS, RESULT, 0.0)
    whole = cache.path.read_bytes()
    cache.store(HASH, "regularity", PARAMS, {"degree": 4}, 0.0)
    record = cache.path.read_bytes()[len(whole):]
    torn = record[:len(record) // 2]
    cache.path.write_bytes(whole + torn)
    assert cache.lookup(HASH, "regularity", PARAMS) is None
    assert cache.lookup(HASH, "hilbert", PARAMS) == RESULT
    # the next store ends the torn line first, so its own record is served
    cache.store(HASH, "regularity", PARAMS, {"degree": 5}, 0.0)
    assert cache.lookup(HASH, "regularity", PARAMS) == {"degree": 5}
    lines = cache.path.read_bytes().splitlines()
    assert len(lines) == 3
    assert lines[1] == torn
    # the torn half stays unserved, also by an index rebuilt from scratch
    cache.path.write_bytes(b"\n".join(lines[:2]) + b"\n")
    assert cache.lookup(HASH, "regularity", PARAMS) is None
    assert cache.lookup(HASH, "hilbert", PARAMS) == RESULT


def test_deleted_file_misses(tmp_path):
    cache = RunCache(tmp_path)
    cache.store(HASH, "hilbert", PARAMS, RESULT, 0.0)
    assert cache.lookup(HASH, "hilbert", PARAMS) == RESULT
    cache.path.unlink()
    assert cache.lookup(HASH, "hilbert", PARAMS) is None


def test_hits_are_fresh_objects(tmp_path):
    cache = RunCache(tmp_path)
    cache.store(HASH, "hilbert", PARAMS, RESULT, 0.0)
    hit = cache.lookup(HASH, "hilbert", PARAMS)
    hit["dims"].append(99)
    hit["verdict"] = "open"
    assert cache.lookup(HASH, "hilbert", PARAMS) == RESULT


def test_store_from_second_instance_is_seen(tmp_path):
    first = RunCache(tmp_path)
    second = RunCache(tmp_path)
    first.store(HASH, "hilbert", PARAMS, RESULT, 0.0)
    assert first.lookup(HASH, "regularity", PARAMS) is None
    second.store(HASH, "regularity", PARAMS, {"degree": 4}, 0.0)
    assert first.lookup(HASH, "regularity", PARAMS) == {"degree": 4}


# -- concurrent appends ---------------------------------------------------


def _append_records(directory, tag, barrier):
    cache = RunCache(directory)
    barrier.wait()
    for i in range(200):
        # every fifth record is well past 8 KB, a typical buffer size
        dims = list(range(3000)) if i % 5 == 0 else [i]
        cache.store(f"{tag}{i:04d}", "hilbert", PARAMS, {"dims": dims, "i": i}, 0.0)


def test_concurrent_appends_do_not_interleave(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    workers = [ctx.Process(target=_append_records, args=(tmp_path, tag, barrier))
               for tag in ("a", "b")]
    for w in workers:
        w.start()
    try:
        for w in workers:
            w.join(60)
            assert w.exitcode == 0
    finally:
        for w in workers:
            if w.is_alive():
                w.kill()
    cache = RunCache(tmp_path)
    lines = cache.path.read_bytes().split(b"\n")
    assert lines.pop() == b""
    assert len(lines) == 400
    assert max(len(line) for line in lines) > 8192
    for line in lines:
        json.loads(line)
    for tag in ("a", "b"):
        for i in range(200):
            dims = list(range(3000)) if i % 5 == 0 else [i]
            hit = cache.lookup(f"{tag}{i:04d}", "hilbert", PARAMS)
            assert hit == {"dims": dims, "i": i}
