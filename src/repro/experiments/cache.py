"""On-disk result cache for simulation cells (``.repro-cache/``).

Each completed :class:`~repro.experiments.cells.Cell` is stored as one
JSON file named by the cell key's digest.  Three safety properties:

* **Bit-exactness** — entries are written by :func:`encode`, which
  tags every float with its ``float.hex()`` form, so a cache hit returns
  *exactly* the object the simulation produced (the golden-stats
  contract extends to cached results).
* **Code invalidation** — every entry records a fingerprint of the
  simulator sources (:func:`code_fingerprint`); entries written by
  different code are silently treated as misses, never trusted.
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
result format and the single result store.  Its codec,
:func:`encode` / :func:`decode`, walks a dataclass's own fields, so a
result, config, cell key or cell field is written once, in its
dataclass; the sweep service (:mod:`repro.service`) ships cells and
payloads in the same encoding and stores into a :class:`ResultCache`
too, so a directory written by a local ``--jobs`` run is a warm store
for a coordinator and vice versa.  Payloads that arrive over the wire
pass :func:`verify_payload` (SHA-256 against the sender's claim, then a
decode to one of the four result types) before anyone trusts them;
:meth:`ResultCache.admit` is that check plus the write.

Cache *modes* separate the two read policies callers want (callers
that want no cache pass ``cache=None``):

* ``"rw"``    — read existing entries and write new ones (``--resume`` /
  incremental regeneration);
* ``"write"`` — record results but never read pre-existing entries (a
  fresh full regeneration that still leaves a resumable trail).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING

try:  # POSIX only; Windows falls back to atomic-rename-only semantics
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.cells import CellKey

__all__ = ["CacheStats", "DirLock", "PayloadIntegrityError", "ResultCache",
           "code_fingerprint", "decode", "encode", "payload_sha",
           "verify_payload"]

DEFAULT_CACHE_DIR = ".repro-cache"


def code_fingerprint() -> str:
    """Fingerprint of the simulator sources, for cache invalidation.

    Hashes every ``*.py`` and ``*.c`` file under the package by relative
    path and content, so the value depends on the files alone: a
    checkout, an uncommitted edit of it and an installed copy each read
    what their sources say.  ``REPRO_CODE_FINGERPRINT`` overrides it
    (tests use it to simulate a code change).
    """
    return os.environ.get("REPRO_CODE_FINGERPRINT") or _source_fingerprint()


@functools.cache
def _source_fingerprint() -> str:
    import repro

    pkg_dir = Path(repro.__file__).resolve().parent
    parts = []
    for rel, path in sorted((p.relative_to(pkg_dir).as_posix(), p)
                            for p in pkg_dir.rglob("*")
                            if p.suffix in (".py", ".c")):
        parts.append(rel.encode())
        parts.append(hashlib.sha256(path.read_bytes()).digest())
    return hashlib.sha256(b"\0".join(parts)).hexdigest()[:16]


# -- the exact codec (one encoding for the store and the wire) -------------------

#: the types a result payload may decode to
RESULT_TYPES = ("MeProfile", "CoreResult", "RunResult", "CloudResult")


@functools.cache
def _decodable() -> dict[str, tuple[type, frozenset]]:
    """Class name -> (class, field names) of every dataclass
    :func:`decode` builds; filled on first use, so importing this module
    imports none of them."""
    from repro import config
    from repro.experiments.cells import Cell, CellKey
    from repro.experiments.cloud import CloudResult, ServiceStats
    from repro.metrics.memory_efficiency import MeProfile
    from repro.sim.runner import CoreResult, RunResult

    return {cls.__name__: (cls, frozenset(f.name for f in fields(cls)))
            for cls in (MeProfile, CoreResult, RunResult, CloudResult,
                        ServiceStats, config.SystemConfig, config.CoreConfig,
                        config.CacheHierarchyConfig, config.CacheConfig,
                        config.DramTimingConfig, config.DramTopologyConfig,
                        config.ControllerConfig, CellKey, Cell)}


def encode(obj):
    """JSON-ready, exact encoding of a result, config, cell key or cell.

    A dataclass becomes a dict of its fields plus its class name under
    ``"type"``, a float ``{"__float__": x.hex()}`` and a tuple or list a
    list; a dict keeps its string keys.  Anything else (a capture run's
    telemetry hub, a dict key that is not a string or is reserved)
    raises ``TypeError``.
    """
    if isinstance(obj, float):
        return {"__float__": obj.hex()}
    if obj is None or isinstance(obj, (str, int)):  # bool is an int
        return obj
    if isinstance(obj, (tuple, list)):
        return [encode(v) for v in obj]
    if isinstance(obj, dict) and all(
            isinstance(k, str) and k not in ("type", "__float__")
            for k in obj):
        return {k: encode(v) for k, v in obj.items()}
    if is_dataclass(obj) and not isinstance(obj, type):
        doc = {f.name: encode(getattr(obj, f.name)) for f in fields(obj)}
        doc["type"] = type(obj).__name__
        return doc
    raise TypeError(f"cannot encode {type(obj).__name__}")


def decode(doc):
    """Inverse of :func:`encode` (lists come back as tuples).

    Builds dataclasses only from a closed allow-list; a ``"type"``
    outside it, or fields that are not exactly its class's, raise
    ``ValueError``.
    """
    if isinstance(doc, list):
        return tuple(decode(v) for v in doc)
    if not isinstance(doc, dict):
        return doc
    if "__float__" in doc:
        return float.fromhex(doc["__float__"])
    if "type" not in doc:
        return {k: decode(v) for k, v in doc.items()}
    name, decodable = doc["type"], _decodable()
    if name not in decodable:
        raise ValueError(f"cannot decode type {name!r}")
    cls, names = decodable[name]
    args = {k: decode(v) for k, v in doc.items() if k != "type"}
    if args.keys() != names:
        raise ValueError(f"{name} needs fields {sorted(names)}, "
                         f"got {sorted(args)}")
    return cls(**args)


def payload_sha(payload: dict) -> str:
    """SHA-256 of the canonical JSON rendering of an encoded payload.

    The wire protocol and the on-disk entries both carry this digest, so
    a payload can be verified end to end without decoding it.
    """
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class PayloadIntegrityError(ValueError):
    """A payload failed SHA-256 verification or is not a decodable result."""


def verify_payload(key: CellKey, payload: dict, sha: str):
    """Check a payload against its SHA-256, then decode it.

    Raises :class:`PayloadIntegrityError` on a mismatch or a payload
    that does not decode to one of :data:`RESULT_TYPES`; the caller
    treats that as a failed attempt (a wire payload) or a corrupt entry
    (a disk payload).
    """
    if payload_sha(payload) != sha:
        raise PayloadIntegrityError(
            f"payload SHA mismatch for {key.key_str()}"
        )
    try:
        result = decode(payload)
        if type(result).__name__ not in RESULT_TYPES:
            raise TypeError(f"{type(result).__name__} is not a result")
    except (TypeError, ValueError) as exc:
        raise PayloadIntegrityError(
            f"payload for {key.key_str()} does not decode: {exc}"
        ) from exc
    return result


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
            if doc.get("key") != encode(key):
                raise ValueError("the entry names another key")
            result = verify_payload(key, doc["payload"], doc.get("sha"))
        except (AttributeError, KeyError, TypeError, ValueError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, key: CellKey, result) -> None:
        """Store one result atomically."""
        self.put_payload(key, encode(result))

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
        platforms where the lock is a no-op.  An entry that already
        holds the same bytes is left as it is: a rename over it would
        cost a disk flush for nothing.
        """
        doc = {
            "v": 2,
            "fingerprint": self.fingerprint,
            "key": encode(key),
            "key_str": key.key_str(),
            "sha": payload_sha(payload),
            "payload": payload,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        data = (json.dumps(doc, sort_keys=True) + "\n").encode()
        with self._lock.held():
            try:
                unchanged = path.read_bytes() == data
            except OSError:  # no entry yet, or an unreadable one
                unchanged = False
            if not unchanged:
                tmp.write_bytes(data)
                os.replace(tmp, path)
        self.stats.writes += 1
