"""Self-test of the benchmark at a tiny scale: ``python -m pytest bench/``.

Runs every workload once untraced and once traced with small instruction
budgets, then checks what callers of run.py rely on: every declared metric is
emitted with its unit, names follow the naming rule, the traced run
reproduces the untraced output, and a directory without the simulator
sources fails without printing a result.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402

SCALE = 0.05
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = run.load_spec()


@pytest.fixture(scope="module")
def results():
    out = {}
    for w in SPEC["workloads"]:
        for trace in (False, True):
            out[w["name"], trace] = run.measure(w["name"], 1, 0.0, trace,
                                                scale=SCALE)
    return out


def test_names_follow_the_rule():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(results, trace):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    for w in SPEC["workloads"]:
        r = results[w["name"], trace]
        assert r["correct"], r["failures"]
        assert r["attempted"] >= 1 and r["failed"] == 0
        assert list(r["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            got = r["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
        if not trace:
            assert all(v["value"] > 0 for v in r["metrics"].values())


def test_traced_and_untraced_outputs_are_identical(results):
    for w in SPEC["workloads"]:
        assert (results[w["name"], True]["exact"]
                == results[w["name"], False]["exact"])


def test_pool_rows_match_serial_rows(results):
    assert (results["fig2-jobs2", False]["reference"]
            == results["fig2-serial", False]["reference"])


def test_traced_layers_cover_the_op(results):
    for name in ("run-4mem", "table2", "fig2-serial", "fig2-jobs2"):
        layers = results[name, True]["metrics"]
        assert layers["trace.coverage_pct"]["value"] >= 95.0, name
        assert layers["sim.events"]["value"] > 0, name
    pool = results["fig2-jobs2", True]["metrics"]
    assert pool["experiments.cells"]["value"] > 0
    assert pool["experiments.cache_hits"]["value"] == \
        pool["experiments.cache_writes"]["value"]


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table2", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _metric(median, q1, q3, better="lower", bound=0.1):
    return {"median": median, "q1": q1, "q3": q3, "better": better,
            "bound": bound}


def test_compare_verdicts():
    a = _metric(10.0, 9.9, 10.1)
    assert compare.verdict(a, _metric(10.5, 0, 0))[0] == "within bound"
    assert compare.verdict(a, _metric(12.0, 0, 0))[0] == "worse"
    assert compare.verdict(a, _metric(8.0, 0, 0))[0] == "better"
    assert compare.verdict(_metric(10.0, 9.0, 11.0), a)[0] == "unresolved"
    rate = _metric(10.0, 9.9, 10.1, better="higher")
    assert compare.verdict(rate, _metric(8.0, 0, 0))[0] == "worse"


def test_compare_flags_a_changed_output_or_a_failed_op():
    doc = {"seed": 1, "runs": 1, "seconds": 1, "python": "3", "nproc": 2,
           "workloads": {"w": {
               "error_rate": 0.0, "failed": 0,
               "end_to_end": {"wall_s": _metric(1.0, 1.0, 1.0)},
               "exact": {"digest": "x"},
               "per_layer": {}}}}
    changed = json.loads(json.dumps(doc))
    changed["workloads"]["w"]["exact"]["digest"] = "y"
    failed = json.loads(json.dumps(doc))
    failed["workloads"]["w"].update(failed=1, error_rate=0.25)
    assert compare.compare(doc, doc, out=io.StringIO())
    assert not compare.compare(doc, changed, out=io.StringIO())
    assert not compare.compare(doc, failed, out=io.StringIO())
