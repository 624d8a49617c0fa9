"""Smoke tests: every example script runs end-to-end at a tiny budget."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestExamples:
    def test_quickstart(self):
        r = run_example("quickstart.py", "--budget", "6000")
        assert r.returncode == 0, r.stderr
        assert "SMT speedup" in r.stdout
        assert "simulated machine" in r.stdout

    def test_fairness_study(self):
        r = run_example("fairness_study.py", "--budget", "5000")
        assert r.returncode == 0, r.stderr
        assert "unfair" in r.stdout
        assert "ME-LREQ" in r.stdout

    def test_online_me(self):
        r = run_example("online_me.py", "--budget", "8000", "--window", "5000")
        assert r.returncode == 0, r.stderr
        assert "online" in r.stdout

    def test_trace_tools(self, tmp_path):
        out = tmp_path / "t.trace"
        r = run_example(
            "trace_tools.py", "--ops", "600", "--budget", "2500",
            "--out", str(out),
        )
        assert r.returncode == 0, r.stderr
        assert out.exists()
        assert "p50=" in r.stdout

    def test_parallel_sweep(self):
        r = run_example(
            "parallel_sweep.py", "--cores", "2", "--budget", "3000",
            "--workers", "1", "--seeds", "3",
        )
        assert r.returncode == 0, r.stderr
        assert "group averages" in r.stdout
        assert "simulations/s" in r.stdout

    def test_telemetry_tour(self, tmp_path):
        r = run_example(
            "telemetry_tour.py", "--budget", "5000", "--policy", "HF-RF",
            "--out-dir", str(tmp_path),
        )
        assert r.returncode == 0, r.stderr
        assert "write-drain windows" in r.stdout
        assert "load in Perfetto" in r.stdout
        assert (tmp_path / "tour.trace.json").exists()
        assert (tmp_path / "tour.telemetry.jsonl").exists()
        assert (tmp_path / "tour.telemetry.csv").exists()

    def test_policy_anatomy(self):
        r = run_example(
            "policy_anatomy.py", "--workload", "2MEM-1", "--budget", "4000",
            "--policies", "FCFS", "LREQ",
        )
        assert r.returncode == 0, r.stderr
        assert "service share" in r.stdout
        assert "bus util" in r.stdout
