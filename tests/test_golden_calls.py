"""Every call a class-level wrap of a model-kernel entry sees, pinned.

Instrumentation (``bench/ledger.py``) wraps the kernel's entry points by
name on their Python classes before a machine is built and counts on
seeing every call.  Between its own objects the kernel calls a method's
C body directly, but only while the callable it holds is that kernel
object's own method; a wrap (or an override in a subclass) turns the
callable into a Python one, which the kernel then calls through Python.
``golden_calls.json`` holds the calls such wraps see on the golden
configuration (``golden_stats.json``'s HF-RF machine) and on the
write-back machine (``golden_writeback.json``'s).  With the wraps on,
each machine must also give its golden file's fingerprint.

Regenerate (a deliberate act, see ``test_golden_stats.py``) with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_calls.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import repro.cpu.core_model as core_model
from repro.cache.hierarchy import CacheHierarchy
from repro.config import SystemConfig
from repro.controller.fast import FastMemoryController
from repro.cpu.core_model import TraceCore
from repro.workloads import workload_by_name
from tests.test_golden_stats import (
    BUDGET, GOLDEN_PATH, MIX, WRITEBACK_BUDGET, WRITEBACK_PATH,
    _deep_fingerprint, _diff_paths, _writeback_config,
)

CALLS_PATH = Path(__file__).parent / "golden" / "golden_calls.json"

#: the kernel entries, by the class body that names them
ENTRIES = {
    TraceCore: ("_wake", "_on_unblock", "_on_load_ready", "_store_data_cb"),
    CacheHierarchy: ("_after_l2_miss", "_fill_l1", "_on_fill",
                     "_on_space_freed", "_emit_writeback",
                     "_flush_writebacks"),
    FastMemoryController: ("enqueue", "_fast_point", "_fast_deliver"),
}


def _machines() -> dict:
    """label -> (config, budget, golden file of its fingerprint)"""
    golden = SystemConfig().with_cores(workload_by_name(MIX).num_cores)
    return {
        "golden": (golden, BUDGET, GOLDEN_PATH),
        "writeback": (_writeback_config(), WRITEBACK_BUDGET, WRITEBACK_PATH),
    }


def wrap_entries(monkeypatch) -> dict[str, int]:
    """Wrap every entry of :data:`ENTRIES` on its class, as the ledger
    does; returns the call counts the wraps keep."""
    counts: dict[str, int] = {}
    for cls, names in ENTRIES.items():
        for name in names:
            key = f"{cls.__name__}.{name}"
            counts[key] = 0

            def wrapper(*args, _fn=cls.__dict__[name], _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)
    return counts


def _golden_deep(path: Path) -> dict:
    return json.loads(path.read_text())["deep"]


def _counted_run(label: str) -> tuple[dict[str, int], dict]:
    cfg, budget, _ = _machines()[label]
    with pytest.MonkeyPatch.context() as mp:
        counts = wrap_entries(mp)
        deep = _deep_fingerprint(cfg, budget)
        return dict(counts), deep


@pytest.fixture(scope="module")
def counted() -> dict:
    return {label: _counted_run(label) for label in _machines()}


def test_wraps_see_every_call(counted):
    snap = {label: counts for label, (counts, _) in counted.items()}
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        CALLS_PATH.write_text(json.dumps(snap, indent=2) + "\n")
        pytest.skip(f"regenerated {CALLS_PATH}")
    golden = json.loads(CALLS_PATH.read_text())
    diffs = _diff_paths(golden, snap)
    assert not diffs, (
        "a wrapped kernel entry missed calls (the kernel called its body "
        "directly past the wrap):\n  " + "\n  ".join(diffs))


def test_every_entry_is_reached(counted):
    """The file pins something for every entry: each runs in one of the
    two machines (the writeback path only in the write-back one)."""
    seen = {key for counts, _ in counted.values()
            for key, n in counts.items() if n > 0}
    assert seen == {f"{cls.__name__}.{name}"
                    for cls, names in ENTRIES.items() for name in names}


@pytest.mark.parametrize("label", ["golden", "writeback"])
def test_wrapped_machine_gives_its_golden_fingerprint(counted, label):
    _, deep = counted[label]
    path = _machines()[label][2]
    diffs = _diff_paths(_golden_deep(path), deep)
    assert not diffs, "\n  ".join(diffs[:40])


def test_an_override_is_called_at_every_load_fill(monkeypatch):
    """A subclass's ``_on_load_ready`` replaces the kernel's load waiter:
    every load fill calls it, as many times as a wrap counts."""
    calls = []

    class Watched(TraceCore):
        def _on_load_ready(self, token, now):
            calls.append(self.core_id)
            super()._on_load_ready(token, now)

    monkeypatch.setattr(core_model, "TraceCore", Watched)
    cfg, budget, path = _machines()["golden"]
    deep = _deep_fingerprint(cfg, budget)
    golden = json.loads(CALLS_PATH.read_text())["golden"]
    assert len(calls) == golden["TraceCore._on_load_ready"] > 0
    assert set(calls) == set(range(cfg.num_cores))
    assert not _diff_paths(_golden_deep(path), deep)
