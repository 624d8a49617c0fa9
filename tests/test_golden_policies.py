"""Golden runs of the policies the other golden files do not pin.

``golden_stats.json`` pins HF-RF, ME-LREQ, RR and LREQ, and
``golden_bliss.json``/``golden_cads.json``/``golden_cloud.json`` their
own policies.  This file pins the rest of the paper's schemes and the
ME-LREQ variants, on the same mix, seed and budget as
``golden_stats.json``: ME, FIX-3210, FCFS, RF, ME-LREQ with the ideal
divider (``table_bits=None``) and with linear encoding, and
ME-LREQ-ONLINE with a window short enough that its table is rebuilt
several times in the run, and ME with equal values, which ties at
every decision between cores.  FCFS and RF differ only in how they order
writes, so both also run on ``golden_writeback.json``'s small-L2
machine, which writes back.  Each run also records how many tie-break
draws the controller's stream made (``ctx.rng.randint``), so the
random tie-break is pinned, not only its effect.

Regenerate (a deliberate act, see ``test_golden_stats.py``) with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_policies.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import run_multicore, workload_by_name
from repro.core import OnlineMeLreqPolicy
from repro.core.registry import make_policy
from repro.util.rng import RngStream
from tests.test_golden_stats import (
    BUDGET, MIX, SEED, WARMUP, WRITEBACK_BUDGET, _diff_paths, _me_values,
    _writeback_config, result_fingerprint,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_policies.json"

#: the online variant's window: the run is several windows long
ONLINE_WINDOW = 5_000

#: run label -> (policy name, constructor arguments); a "-writeback"
#: label runs on the small-L2 machine at its budget
RUNS = {
    "ME": ("ME", {}),
    "FIX-3210": ("FIX-3210", {}),
    "FCFS": ("FCFS", {}),
    "RF": ("RF", {}),
    "FCFS-writeback": ("FCFS", {}),
    "RF-writeback": ("RF", {}),
    "ME-LREQ-ideal": ("ME-LREQ", {"table_bits": None}),
    "ME-LREQ-linear": ("ME-LREQ", {"table_encoding": "linear"}),
    "ME-LREQ-ONLINE": ("ME-LREQ-ONLINE", {"window": ONLINE_WINDOW}),
    # every core ties at every multi-core decision: the draws themselves
    "ME-equal": ("ME", {"me_values": [1.0] * 4}),
}

#: the controller's tie-break stream (MultiCoreSystem's child "controller")
CONTROLLER_STREAM = ("system", "controller")


def _build(name: str, kwargs: dict, me):
    if name == "ME-LREQ-ONLINE":
        return OnlineMeLreqPolicy(**kwargs)
    return make_policy(name, **{"me_values": me, **kwargs})


def _run(label: str, monkeypatch) -> dict:
    name, kwargs = RUNS[label]
    mix = workload_by_name(MIX)
    me = _me_values(mix) if name in ("ME", "ME-LREQ") else None
    draws = []
    randint = RngStream.randint

    def counting(self, low, high):
        if self.labels == CONTROLLER_STREAM:
            draws.append(high)
        return randint(self, low, high)

    writeback = label.endswith("-writeback")
    with monkeypatch.context() as m:
        m.setattr(RngStream, "randint", counting)
        result = run_multicore(
            mix, _build(name, kwargs, me),
            inst_budget=WRITEBACK_BUDGET if writeback else BUDGET,
            seed=SEED, warmup_insts=WARMUP,
            config=_writeback_config() if writeback else None)
    return {**result_fingerprint(result), "tie_draws": len(draws)}


@pytest.fixture(scope="module")
def snapshot():
    with pytest.MonkeyPatch.context() as m:
        return {
            "mix": MIX,
            "seed": SEED,
            "budget": BUDGET,
            "warmup": WARMUP,
            "online_window": ONLINE_WINDOW,
            "runs": {label: _run(label, m) for label in RUNS},
        }


def test_golden_policies_bit_identical(snapshot):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    diffs = _diff_paths(json.loads(GOLDEN_PATH.read_text()), snapshot)
    assert not diffs, (
        "policy runs drifted from their golden snapshot:\n  "
        + "\n  ".join(diffs[:40])
    )


def test_the_snapshot_pins_what_it_claims(snapshot):
    runs = snapshot["runs"]
    # the random tie-break is exercised, not only the deterministic picks
    assert runs["ME-equal"]["tie_draws"] > 100
    # FIX and FCFS/RF never tie: distinct levels, or no core ranking at all
    for label in ("FIX-3210", "FCFS", "RF"):
        assert runs[label]["tie_draws"] == 0, label
    # the online table is rebuilt several times within the run
    assert runs["ME-LREQ-ONLINE"]["end_cycle"] > 3 * ONLINE_WINDOW
    # the write rules differ where there are writes to order
    assert runs["FCFS-writeback"] != runs["RF-writeback"]
    assert runs["FCFS-writeback"]["per_core"][0]["bytes_total"] > 0
    # the runs are not one run many times
    assert len({r["end_cycle"] for r in runs.values()}) > 3
