"""The result store shared by local runs and the sweep service:
wire-payload admission, the code fingerprint its entries are stamped
with, and the directory lock that serialises concurrent invocations on
one cache directory.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.experiments.cache import (
    DirLock,
    PayloadIntegrityError,
    ResultCache,
    encode,
    payload_sha,
)
from repro.experiments.cells import eval_cell_key
from repro.sim.runner import CoreResult

CFG = SystemConfig()


def _key(policy: str = "HF-RF"):
    return eval_cell_key("4MEM-1", policy, 7, 300, 200, 256, CFG, 200)


def _result() -> CoreResult:
    return CoreResult(app="art", code="E", core_id=0, ipc=0.5,
                      finish_cycle=1000, committed=300, reads=10,
                      avg_read_latency=200.0, bytes_total=640,
                      bw_gbps=1.25)


def test_admit_verifies_stores_and_decodes(tmp_path):
    store = ResultCache(root=tmp_path, mode="rw")
    payload = encode(_result())
    decoded = store.admit(_key(), payload, payload_sha(payload))
    assert decoded == _result()
    # the entry is a regular cache entry, readable by a plain ResultCache
    assert ResultCache(root=tmp_path, mode="rw").get(_key()) == _result()


def test_admit_rejects_sha_mismatch_without_writing(tmp_path):
    store = ResultCache(root=tmp_path, mode="rw")
    payload = encode(_result())
    with pytest.raises(PayloadIntegrityError, match="SHA mismatch"):
        store.admit(_key(), payload, "0" * 64)
    assert store.get(_key()) is None
    assert list(tmp_path.glob("*.json")) == []


def test_admit_rejects_undecodable_payload(tmp_path):
    store = ResultCache(root=tmp_path, mode="rw")
    junk = {"type": "RunResult", "mix_name": "4MEM-1"}  # missing fields
    with pytest.raises(PayloadIntegrityError, match="does not decode"):
        store.admit(_key(), junk, payload_sha(junk))
    assert list(tmp_path.glob("*.json")) == []


def test_an_entry_that_is_not_a_json_object_is_a_corrupt_miss(tmp_path):
    store = ResultCache(root=tmp_path, mode="rw")
    store.put(_key(), _result())
    store._path(_key()).write_text("[1, 2]\n")
    assert store.get(_key()) is None
    assert (store.stats.corrupt, store.stats.misses) == (1, 1)


def test_store_is_interchangeable_with_the_local_cache(tmp_path):
    """A directory warmed by the local runner is warm for the service
    and vice versa: an admitted wire payload and a locally computed
    result land in one entry format."""
    local = ResultCache(root=tmp_path, mode="rw")
    local.put(_key("RR"), _result())
    assert ResultCache(root=tmp_path, mode="rw").get(_key("RR")) == _result()

    payload = encode(_result())
    local.admit(_key("LREQ"), payload, payload_sha(payload))
    assert ResultCache(root=tmp_path, mode="rw").get(_key("LREQ")) \
        == _result()


# -- code fingerprint -------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def _fingerprint(src: Path) -> str:
    """``code_fingerprint()`` of the package under ``src``, in a fresh
    process with no override."""
    env = {k: v for k, v in os.environ.items()
           if k != "REPRO_CODE_FINGERPRINT"}
    env["PYTHONPATH"] = str(src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import repro; from repro.experiments.cache import "
         "code_fingerprint; print(repro.__file__, code_fingerprint())"],
        env=env, cwd=src, capture_output=True, text=True, check=True)
    path, fp = out.stdout.split()
    assert Path(path).is_relative_to(src)
    return fp


@pytest.fixture()
def copy_of_src(tmp_path) -> Path:
    copy = tmp_path / "copy" / "src"
    shutil.copytree(SRC / "repro", copy / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def test_code_fingerprint_of_a_copy_equals_the_checkouts(copy_of_src):
    """A worker running an installed copy of the same sources agrees
    with a coordinator running from a checkout."""
    assert _fingerprint(copy_of_src) == _fingerprint(SRC)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_an_uncommitted_edit_changes_the_code_fingerprint(copy_of_src):
    """The fingerprint reads the files on disk, not a git index, and
    covers the C kernels."""
    git = ["git", "-C", str(copy_of_src.parent), "-c", "user.name=t",
           "-c", "user.email=t@example.invalid"]
    for args in (["init", "-q"], ["add", "-A"],
                 ["commit", "-q", "-m", "sources"]):
        subprocess.run(git + args, check=True, capture_output=True)
    committed = _fingerprint(copy_of_src)
    with open(copy_of_src / "repro" / "cpu" / "_core.c", "a") as f:
        f.write("/* an uncommitted edit */\n")
    assert _fingerprint(copy_of_src) != committed


# -- DirLock ----------------------------------------------------------------------


def _locked_increments(root: str, counter: str, iters: int) -> None:
    lock = DirLock(root)
    for _ in range(iters):
        with lock.held():
            # Rewrite in place: the count only grows, so the new digits
            # always cover the old ones (a truncating rewrite is flushed
            # on close on ext4, which costs ~70 ms per increment).
            with open(counter, "r+") as f:
                value = int(f.read())
                f.seek(0)
                f.write(str(value + 1))


def test_dirlock_serialises_concurrent_processes(tmp_path):
    """A read-modify-write cycle under the lock must never lose an
    update across processes — the property the cache-entry writes of
    concurrent invocations rely on."""
    counter = tmp_path / "counter"
    counter.write_text("0")
    procs = [
        multiprocessing.Process(
            target=_locked_increments,
            args=(str(tmp_path), str(counter), 50),
        )
        for _ in range(4)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    assert int(counter.read_text()) == 4 * 50


def _put_many(root: str, n: int) -> None:
    cache = ResultCache(root=root, mode="rw")
    for i in range(n):
        # a result that differs each round, so every put replaces
        cache.put(_key(f"P{i % 5}"), replace(_result(), finish_cycle=1000 + i))


def test_concurrent_cache_writers_leave_only_valid_entries(tmp_path):
    """Two invocations hammering the same five entries: every surviving
    file must parse and verify (no interleaved/torn writes), and no
    temp files leak."""
    procs = [multiprocessing.Process(target=_put_many,
                                     args=(str(tmp_path), 40))
             for _ in range(3)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    entries = list(tmp_path.glob("*.json"))
    assert len(entries) == 5
    for path in entries:
        doc = json.loads(path.read_text())
        assert payload_sha(doc["payload"]) == doc["sha"]
    assert not list(tmp_path.glob("*.tmp.*"))
    assert (tmp_path / DirLock.LOCK_NAME).exists()


def test_a_put_of_the_same_result_leaves_the_entry_untouched(tmp_path):
    cache = ResultCache(root=tmp_path, mode="rw")
    cache.put(_key(), _result())
    before = os.stat(cache._path(_key()))
    cache.put(_key(), _result())
    after = os.stat(cache._path(_key()))
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)
    assert cache.stats.writes == 2
    assert cache.get(_key()) == _result()


def test_lockfile_is_not_mistaken_for_an_entry(tmp_path):
    cache = ResultCache(root=tmp_path, mode="rw")
    cache.put(_key(), _result())
    assert (tmp_path / ".lock").exists()
    assert cache.get(_key()) == _result()
    assert os.path.basename(cache._path(_key())) != DirLock.LOCK_NAME
