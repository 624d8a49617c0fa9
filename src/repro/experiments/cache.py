"""On-disk result cache for simulation cells (``.repro-cache/``).

Each completed :class:`~repro.experiments.cells.Cell` is stored as one
JSON file named by the cell key's digest.  Three safety properties:

* **Bit-exactness** — floats are serialised via ``float.hex()`` and
  restored with ``float.fromhex``, so a cache hit returns *exactly* the
  object the simulation produced (the golden-stats contract extends to
  cached results).
* **Code invalidation** — every entry records a fingerprint of the
  git-tracked simulator sources; entries written by a different revision
  of the code are silently treated as misses, never trusted.
* **Corruption detection** — the payload carries its own SHA-256; a
  truncated or bit-flipped entry fails verification, is counted in
  ``stats.corrupt`` and recomputed, never returned.

Writes are atomic (``os.replace`` of a temp file) so an interrupted run
leaves either a complete entry or none — which is what makes
``--resume`` safe.  On POSIX hosts every write additionally holds an
advisory ``flock`` on ``<dir>/.lock`` (:class:`DirLock`), so two
*concurrent invocations* sharing one cache directory serialise their
writes instead of racing on the same entry.

This module is the single implementation of the content-addressed
result format and the single result store: the distributed sweep
service (:mod:`repro.service`) stores into a :class:`ResultCache` too,
so a directory written by a local ``--jobs`` run is a warm store for a
coordinator and vice versa.  Payloads that arrive over the wire pass
:func:`verify_payload` (SHA-256 against the sender's claim, then a
decode) before anyone trusts them; :meth:`ResultCache.admit` is that
check plus the write.

Cache *modes* separate the two read policies callers want (callers
that want no cache pass ``cache=None``):

* ``"rw"``    — read existing entries and write new ones (``--resume`` /
  incremental regeneration);
* ``"write"`` — record results but never read pre-existing entries (a
  fresh full regeneration that still leaves a resumable trail).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

try:  # POSIX only; Windows falls back to atomic-rename-only semantics
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.experiments.cells import CellKey
from repro.metrics.memory_efficiency import MeProfile
from repro.sim.runner import CoreResult, RunResult

__all__ = ["CacheStats", "DirLock", "PayloadIntegrityError", "ResultCache",
           "code_fingerprint", "encode_payload", "decode_payload",
           "payload_sha", "verify_payload"]

DEFAULT_CACHE_DIR = ".repro-cache"

_FP_CACHE: dict[str, str] = {}


def code_fingerprint() -> str:
    """Fingerprint of the simulator sources, for cache invalidation.

    Uses ``git ls-files -s -- src`` (mode + blob hash per tracked file)
    when the package lives in a git checkout; falls back to hashing the
    installed package sources.  ``REPRO_CODE_FINGERPRINT`` overrides both
    (tests use it to simulate a code change).
    """
    override = os.environ.get("REPRO_CODE_FINGERPRINT")
    if override:
        return override
    hit = _FP_CACHE.get("fp")
    if hit is not None:
        return hit
    import repro

    pkg_dir = Path(repro.__file__).resolve().parent
    repo_root = pkg_dir.parent.parent  # src/repro -> repo root
    blob = b""
    try:
        out = subprocess.run(
            ["git", "-C", str(repo_root), "ls-files", "-s", "--", "src"],
            capture_output=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            blob = out.stdout
    except (OSError, subprocess.SubprocessError):
        blob = b""
    if not blob:
        parts = []
        for p in sorted(pkg_dir.rglob("*.py")):
            parts.append(str(p.relative_to(pkg_dir)).encode())
            parts.append(hashlib.sha256(p.read_bytes()).digest())
        blob = b"\0".join(parts)
    fp = hashlib.sha256(blob).hexdigest()[:16]
    _FP_CACHE["fp"] = fp
    return fp


# -- payload codec (exact) -------------------------------------------------------


def _f(x: float) -> str:
    return float(x).hex()


def _uf(s: str) -> float:
    return float.fromhex(s)


def _enc_core(c: CoreResult) -> dict:
    return {
        "app": c.app, "code": c.code, "core_id": c.core_id,
        "ipc": _f(c.ipc), "finish_cycle": c.finish_cycle,
        "committed": c.committed, "reads": c.reads,
        "avg_read_latency": _f(c.avg_read_latency),
        "bytes_total": c.bytes_total, "bw_gbps": _f(c.bw_gbps),
    }


def _dec_core(d: dict) -> CoreResult:
    return CoreResult(
        app=d["app"], code=d["code"], core_id=d["core_id"],
        ipc=_uf(d["ipc"]), finish_cycle=d["finish_cycle"],
        committed=d["committed"], reads=d["reads"],
        avg_read_latency=_uf(d["avg_read_latency"]),
        bytes_total=d["bytes_total"], bw_gbps=_uf(d["bw_gbps"]),
    )


def _enc_service(s) -> dict:
    return {
        "code": s.code, "name": s.name, "core_id": s.core_id, "slo": s.slo,
        "latencies": list(s.latencies), "viol_count": s.viol_count,
        "viol_latency_sum": s.viol_latency_sum,
        "viol_components": list(s.viol_components),
    }


def _dec_service(d: dict):
    from repro.experiments.cloud import ServiceStats

    return ServiceStats(
        code=d["code"], name=d["name"], core_id=d["core_id"], slo=d["slo"],
        latencies=tuple(d["latencies"]), viol_count=d["viol_count"],
        viol_latency_sum=d["viol_latency_sum"],
        viol_components=tuple(d["viol_components"]),
    )


def encode_payload(obj) -> dict:
    """Serialise a cell result to a JSON-safe dict (floats exact)."""
    from repro.experiments.cloud import CloudResult

    if isinstance(obj, CloudResult):
        return {
            "type": "CloudResult",
            "mix_name": obj.mix_name, "policy_name": obj.policy_name,
            "services": [_enc_service(s) for s in obj.services],
            "batch": [_enc_core(c) for c in obj.batch],
            "end_cycle": obj.end_cycle,
            "row_hit_rate": _f(obj.row_hit_rate),
        }
    if isinstance(obj, MeProfile):
        return {"type": "MeProfile", "app": obj.app, "code": obj.code,
                "ipc": _f(obj.ipc), "bw_gbps": _f(obj.bw_gbps),
                "me": _f(obj.me),
                "avg_read_latency": _f(obj.avg_read_latency)}
    if isinstance(obj, CoreResult):
        return {"type": "CoreResult", **_enc_core(obj)}
    if isinstance(obj, RunResult):
        return {
            "type": "RunResult",
            "mix_name": obj.mix_name, "policy_name": obj.policy_name,
            "per_core": [_enc_core(c) for c in obj.per_core],
            "end_cycle": obj.end_cycle,
            "row_hit_rate": _f(obj.row_hit_rate),
            "drain_entries": obj.drain_entries,
        }
    raise TypeError(f"cannot cache payload of type {type(obj).__name__}")


def decode_payload(doc: dict):
    kind = doc.get("type")
    if kind == "MeProfile":
        return MeProfile(app=doc["app"], code=doc["code"],
                         ipc=_uf(doc["ipc"]), bw_gbps=_uf(doc["bw_gbps"]),
                         me=_uf(doc["me"]),
                         avg_read_latency=_uf(doc["avg_read_latency"]))
    if kind == "CoreResult":
        return _dec_core(doc)
    if kind == "RunResult":
        return RunResult(
            mix_name=doc["mix_name"], policy_name=doc["policy_name"],
            per_core=tuple(_dec_core(c) for c in doc["per_core"]),
            end_cycle=doc["end_cycle"],
            row_hit_rate=_uf(doc["row_hit_rate"]),
            drain_entries=doc["drain_entries"],
        )
    if kind == "CloudResult":
        from repro.experiments.cloud import CloudResult

        return CloudResult(
            mix_name=doc["mix_name"], policy_name=doc["policy_name"],
            services=tuple(_dec_service(s) for s in doc["services"]),
            batch=tuple(_dec_core(c) for c in doc["batch"]),
            end_cycle=doc["end_cycle"],
            row_hit_rate=_uf(doc["row_hit_rate"]),
        )
    raise ValueError(f"unknown cached payload type {kind!r}")


def payload_sha(payload: dict) -> str:
    """SHA-256 of the canonical JSON rendering of an encoded payload.

    The wire protocol and the on-disk entries both carry this digest, so
    a payload can be verified end to end without decoding it.
    """
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class PayloadIntegrityError(ValueError):
    """A wire payload failed SHA-256 verification or would not decode."""


def verify_payload(key: CellKey, payload: dict, sha: str):
    """Check a wire payload against the sender's SHA-256, then decode it.

    Raises :class:`PayloadIntegrityError` on a mismatch or a payload
    that does not decode; the caller treats that as a failed attempt.
    """
    if payload_sha(payload) != sha:
        raise PayloadIntegrityError(
            f"payload SHA mismatch for {key.key_str()}"
        )
    try:
        return decode_payload(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise PayloadIntegrityError(
            f"payload for {key.key_str()} does not decode: {exc}"
        ) from exc


# -- locking ---------------------------------------------------------------------


class DirLock:
    """Advisory inter-process lock serialising writers of one directory.

    Two concurrent ``run_all_experiments.py --jobs`` invocations (or a
    coordinator plus a local run) sharing one cache directory take this
    lock around each entry write, so the temp-file + ``os.replace``
    sequence of different processes never interleaves on one entry.
    Readers never take the lock — ``os.replace`` keeps reads atomic.

    Implemented with ``flock`` on ``<dir>/.lock``; on platforms without
    ``fcntl`` the lock degrades to a no-op (rename atomicity still
    holds).
    """

    LOCK_NAME = ".lock"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @contextmanager
    def held(self):
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.root / self.LOCK_NAME, os.O_CREAT | os.O_RDWR,
                     0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)


# -- the cache -------------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    stale: int = 0  # entries from a different code fingerprint

    def line(self) -> str:
        return (f"cache: {self.hits} hits, {self.misses} misses, "
                f"{self.writes} writes, {self.corrupt} corrupt, "
                f"{self.stale} stale")

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "corrupt": self.corrupt,
                "stale": self.stale}


class ResultCache:
    """Content-addressed store of cell results under one directory."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR,
                 mode: str = "rw", fingerprint: str | None = None) -> None:
        if mode not in ("rw", "write"):
            raise ValueError(f"unknown cache mode {mode!r}")
        self.root = Path(root)
        self.mode = mode
        self.fingerprint = fingerprint or code_fingerprint()
        self.stats = CacheStats()
        self._lock = DirLock(self.root)

    def _path(self, key: CellKey) -> Path:
        return self.root / f"{key.digest()}.json"

    def get(self, key: CellKey):
        """Return the cached payload for ``key``, or None.

        Only ``"rw"`` mode reads; every miss (absent, stale revision,
        corrupted) is counted and returns None.
        """
        if self.mode != "rw":
            return None
        path = self._path(key)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        try:
            if doc.get("fingerprint") != self.fingerprint:
                self.stats.stale += 1
                self.stats.misses += 1
                return None
            if doc.get("key") != key.canonical():
                self.stats.corrupt += 1
                self.stats.misses += 1
                return None
            payload = doc["payload"]
            if payload_sha(payload) != doc.get("sha"):
                self.stats.corrupt += 1
                self.stats.misses += 1
                return None
            result = decode_payload(payload)
        except (KeyError, TypeError, ValueError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, key: CellKey, result) -> None:
        """Store one result atomically."""
        self.put_payload(key, encode_payload(result))

    def admit(self, key: CellKey, payload: dict, sha: str):
        """:func:`verify_payload` one wire payload, then store it.

        Returns the decoded result; a payload that fails the check is
        never written.
        """
        result = verify_payload(key, payload, sha)
        self.put_payload(key, payload)
        return result

    def put_payload(self, key: CellKey, payload: dict) -> None:
        """Store an already-encoded payload atomically, under the lock.

        This is the write path shared with the sweep service: the
        coordinator stores verified wire payloads without a decode /
        re-encode round trip.  The directory lock serialises writers
        from *different invocations* sharing the directory; the temp
        file is pid-suffixed so same-host writers never collide even on
        platforms where the lock is a no-op.
        """
        doc = {
            "v": 1,
            "fingerprint": self.fingerprint,
            "key": key.canonical(),
            "key_str": key.key_str(),
            "sha": payload_sha(payload),
            "payload": payload,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with self._lock.held():
            tmp.write_text(json.dumps(doc, sort_keys=True) + "\n")
            os.replace(tmp, path)
        self.stats.writes += 1
