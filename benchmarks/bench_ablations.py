"""Bench: ablations of the design choices DESIGN.md calls out.

Not part of the paper's evaluation — step-5 extension work quantifying:

* the priority-table geometry (ideal divider vs 10-bit log vs linear vs
  narrow tables);
* close-page vs open-page memory systems;
* the write-drain hysteresis watermarks;
* robustness to the simulator's core-lookahead fidelity knob.
"""

from conftest import run_once

from repro.experiments.ablations import (
    ablation_lookahead,
    ablation_online_phases,
    ablation_page_policy,
    ablation_table_bits,
    ablation_write_drain,
)


def _print(title, d):
    print(f"\n== {title} ==")
    for k, v in d.items():
        print(f"  {k:<16} SMT speedup {v:.3f}")


def test_ablation_table_bits(benchmark, ctx):
    res = run_once(benchmark, ablation_table_bits, ctx)
    _print("ME-LREQ priority-table geometry (4MEM-1)", res)
    assert set(res) == {
        "ideal-divider", "10-bit log", "10-bit linear", "6-bit log", "4-bit log",
    }
    # the paper's 10-bit table should track the ideal divider closely
    assert abs(res["10-bit log"] - res["ideal-divider"]) / res["ideal-divider"] < 0.10


def test_ablation_page_policy(benchmark, ctx):
    res = run_once(benchmark, ablation_page_policy, ctx)
    _print("page policy (HF-RF, 4MEM-1)", res)
    assert set(res) == {"closed", "open"}
    assert all(v > 0 for v in res.values())


def test_ablation_write_drain(benchmark, ctx):
    res = run_once(benchmark, ablation_write_drain, ctx)
    _print("write-drain watermarks (HF-RF, 4MEM-1)", res)
    assert len(res) == 4
    assert all(v > 0 for v in res.values())


def test_ablation_lookahead(benchmark, ctx):
    res = run_once(benchmark, ablation_lookahead, ctx)
    _print("core lookahead robustness (HF-RF, 4MEM-1)", res)
    vals = list(res.values())
    # a fidelity knob, not a result: spread must stay small
    assert max(vals) / min(vals) < 1.15


def test_ablation_online_phases(benchmark, ctx):
    res = run_once(benchmark, ablation_online_phases, ctx)
    _print("offline vs online ME-LREQ on phase-changing apps (4MEM-1)", res)
    assert set(res) == {"LREQ", "ME-LREQ offline", "ME-LREQ online"}
    assert all(v > 0 for v in res.values())
