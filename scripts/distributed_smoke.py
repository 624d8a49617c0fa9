#!/usr/bin/env python3
"""Loopback distributed-sweep smoke: real processes, golden diff.

Starts ``repro serve`` plus N ``repro worker`` processes on 127.0.0.1
(separate OS processes — the same topology the two-terminal quickstart
in README.md describes), then verifies the two determinism contracts of
docs/DISTRIBUTED.md end to end:

1. **Golden fingerprints** — the four checked-in golden runs
   (``tests/golden/golden_stats.json``: budget 2500, warmup 2000,
   seed 7 on 4MEM-1) are executed via the coordinator and compared
   field by field through ``float.hex`` — results that crossed the
   wire must carry the exact bits of an in-process run.
2. **CLI byte-identity** — ``repro submit <addr> figure2`` must print
   byte-for-byte what the serial ``repro figure 2`` prints.

``--fleet-obs`` runs the same cluster with fleet observability enabled
(coordinator trace/metrics/Prometheus outputs, worker fleet traces, a
``submit --trace-out`` client trace), so the golden and
byte-identity legs double as the *observability-enabled* bit-identity
gate; after shutdown it asserts the metrics JSONL and Prometheus
snapshots are well-formed and non-empty, reads every fleet trace with
the run telemetry's JSONL reader, and runs ``repro obs merge-trace``
over them, requiring coordinator lease slices, worker cell slices and
client result arrivals that share one ``run_id`` in the merged Chrome
trace.

Exits non-zero on any mismatch.  Used by the ``distributed-smoke`` CI
job; runnable locally with no arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden" / "golden_stats.json"

sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.cells import Cell, eval_cell  # noqa: E402
from repro.experiments.harness import ExperimentContext  # noqa: E402
from repro.service.client import request_shutdown, submit_cells  # noqa: E402
from repro.telemetry.export import read_jsonl  # noqa: E402

SERVING_RE = re.compile(r"serving on ([\d.]+):(\d+)")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    return env


def _cli(*argv: str) -> list[str]:
    return [sys.executable, "-m", "repro", *argv]


def start_cluster(store: str, n_workers: int, obs_dir: str | None = None):
    """``repro serve`` + workers as real subprocesses; returns addr.

    With ``obs_dir`` set, the whole cluster runs with fleet
    observability on: the coordinator records a fleet trace, metrics
    JSONL and a Prometheus snapshot there, and each worker records its
    own fleet trace.
    """
    serve_obs = []
    if obs_dir is not None:
        serve_obs = [
            "--trace-out", os.path.join(obs_dir, "coord.fleet.jsonl"),
            "--metrics-out", os.path.join(obs_dir, "metrics.jsonl"),
            "--prometheus-out", os.path.join(obs_dir, "fleet.prom"),
            "--sample-every", "0.5",
        ]
    serve = subprocess.Popen(
        _cli("serve", "--port", "0", "--store", store, *serve_obs),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=_env(), cwd=ROOT,
    )
    line = serve.stdout.readline()
    m = SERVING_RE.search(line)
    if not m:
        serve.kill()
        raise SystemExit(f"coordinator did not announce itself: {line!r}")
    addr = f"{m.group(1)}:{m.group(2)}"
    workers = [
        subprocess.Popen(
            _cli("worker", addr, "--id", f"smoke-w{i}",
                 "--connect-retries", "20",
                 *([] if obs_dir is None else
                   ["--trace-out",
                    os.path.join(obs_dir, f"w{i}.fleet.jsonl"),
                    "--sample-every", "0.5"])),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=_env(), cwd=ROOT,
        )
        for i in range(n_workers)
    ]
    return serve, workers, addr


def golden_cells() -> list[Cell]:
    ctx = ExperimentContext(inst_budget=2500, warmup_insts=2000,
                            profile_budget=2000, seeds=(7,))
    cells: list[Cell] = []
    for policy in ("HF-RF", "ME-LREQ", "RR", "LREQ"):
        cell = eval_cell(ctx, "4MEM-1", policy, 7)
        cells.extend(Cell(key=d, config=ctx.config) for d in cell.me_deps)
        cells.append(cell)
    return cells


def check_golden(addr: str) -> None:
    golden = json.loads(GOLDEN_PATH.read_text())["runs"]
    report = submit_cells(addr, golden_cells())
    if report.failures:
        raise SystemExit(report.failure_report())
    by_policy = {k.policy: v for k, v in report.results.items()
                 if k.kind == "eval"}
    checked = 0
    for policy, want in golden.items():
        got = by_policy[policy]
        assert got.end_cycle == want["end_cycle"], policy
        assert got.row_hit_rate.hex() == want["row_hit_rate"], policy
        assert got.drain_entries == want["drain_entries"], policy
        for core, w in zip(got.per_core, want["per_core"]):
            assert core.ipc.hex() == w["ipc"], (policy, core.app)
            assert core.avg_read_latency.hex() == w["avg_read_latency"], \
                (policy, core.app)
            assert core.bw_gbps.hex() == w["bw_gbps"], (policy, core.app)
            checked += 1
    print(f"golden fingerprints: {len(golden)} runs, {checked} cores, "
          f"all float-hex exact")


def check_cli_byte_identity(addr: str, budget: int,
                            obs_dir: str | None = None) -> None:
    common = ("--budget", str(budget), "--seeds", "7",
              "--cores", "2", "--groups", "MEM")
    serial = subprocess.run(
        _cli("figure", "2", *common),
        capture_output=True, text=True, env=_env(), cwd=ROOT, check=True,
    )
    client_obs = () if obs_dir is None else (
        "--trace-out", os.path.join(obs_dir, "client.fleet.jsonl"))
    distributed = subprocess.run(
        _cli("submit", addr, "figure2", *common, *client_obs),
        capture_output=True, text=True, env=_env(), cwd=ROOT, check=True,
    )
    if distributed.stdout != serial.stdout:
        sys.stderr.write("--- serial ---\n" + serial.stdout)
        sys.stderr.write("--- distributed ---\n" + distributed.stdout)
        raise SystemExit("repro submit output differs from repro figure 2")
    print(f"CLI byte-identity: {len(serial.stdout)} bytes of figure2 "
          f"output identical (serial and distributed)")


def check_fleet_artifacts(obs_dir: str, n_workers: int) -> None:
    """Post-shutdown fleet-observability assertions (--fleet-obs only)."""
    metrics_path = os.path.join(obs_dir, "metrics.jsonl")
    snaps = [json.loads(line)
             for line in Path(metrics_path).read_text().splitlines()]
    assert snaps, "metrics JSONL is empty"
    run_ids = {s["run_id"] for s in snaps}
    assert len(run_ids) == 1, f"metrics snapshots span runs: {run_ids}"
    final = snaps[-1]
    assert final["instruments"], "final metrics snapshot has no instruments"
    completed = final["instruments"].get("fleet.lease.completed", {})
    assert completed.get("value", 0) > 0, \
        f"no completed leases recorded: {completed}"

    prom = Path(os.path.join(obs_dir, "fleet.prom")).read_text()
    fleet_lines = [ln for ln in prom.splitlines()
                   if ln.startswith("repro_fleet_")]
    assert fleet_lines, "Prometheus snapshot has no repro_fleet_ series"
    for ln in fleet_lines:
        float(ln.rsplit(" ", 1)[1])  # every sample parses as a number

    traces = [os.path.join(obs_dir, "coord.fleet.jsonl")] + [
        os.path.join(obs_dir, f"w{i}.fleet.jsonl") for i in range(n_workers)
    ] + [os.path.join(obs_dir, "client.fleet.jsonl")]
    for path in traces:  # the run telemetry's reader parses every one
        header = read_jsonl(path)["header"]
        assert header["fleet"]["run_id"] in run_ids, (path, header)
    merged_path = os.path.join(obs_dir, "merged.trace.json")
    subprocess.run(
        _cli("obs", "merge-trace", *traces, "--out", merged_path),
        capture_output=True, text=True, env=_env(), cwd=ROOT, check=True,
    )
    merged = json.loads(Path(merged_path).read_text())
    events = merged["traceEvents"]
    leases = [e for e in events
              if e.get("ph") == "B" and e["name"].startswith("lease ")]
    cells = [e for e in events
             if e.get("ph") == "B" and e["name"].startswith("cell ")]
    arrivals = [e for e in events if e.get("name") == "experiment.cell"]
    assert leases, "merged trace has no coordinator lease slices"
    assert cells, "merged trace has no worker cell slices"
    assert arrivals, "merged trace has no client result arrivals"
    roles = [s["role"] for s in merged["otherData"]["sources"]]
    assert roles == ["coordinator"] + ["worker"] * n_workers + ["client"], \
        roles
    merged_run = merged["otherData"]["run_id"]
    assert merged_run in run_ids, \
        f"merged-trace run {merged_run} != metrics run {run_ids}"
    print(f"fleet artifacts: {len(snaps)} metric snapshots, "
          f"{len(fleet_lines)} Prometheus series, merged trace of "
          f"{len(traces)} processes has {len(leases)} lease + {len(cells)} "
          f"cell slices and {len(arrivals)} client arrivals on run "
          f"{merged_run}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--budget", type=int, default=2000,
                    help="budget for the CLI byte-identity leg")
    ap.add_argument("--fleet-obs", action="store_true",
                    help="enable fleet observability on the cluster and "
                         "assert its artifacts after shutdown")
    args = ap.parse_args(argv)

    t0 = time.time()
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as td:
        store = os.path.join(td, "store")
        obs_dir = None
        if args.fleet_obs:
            obs_dir = os.path.join(td, "obs")
            os.makedirs(obs_dir)
        serve, workers, addr = start_cluster(store, args.workers, obs_dir)
        try:
            print(f"cluster: coordinator {addr}, {len(workers)} workers, "
                  f"store {store}"
                  + (", fleet observability on" if obs_dir else ""))
            check_golden(addr)
            check_cli_byte_identity(addr, args.budget, obs_dir)
        finally:
            try:
                request_shutdown(addr)
            except (OSError, RuntimeError):
                serve.kill()
            for proc in workers:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
            try:
                serve.wait(timeout=30)
            except subprocess.TimeoutExpired:
                serve.kill()
        if obs_dir is not None:
            check_fleet_artifacts(obs_dir, args.workers)
    print(f"distributed smoke OK in {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
