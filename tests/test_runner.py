"""Integration tests for the run helpers (full-stack, small budgets)."""

import gc
import weakref

import pytest

from repro.config import SystemConfig
from repro.core import make_policy
from repro.experiments.cloud import run_cloud
from repro.metrics import memory_efficiency
from repro.sim.runner import run_multicore, run_single_core
from repro.sim.system import MultiCoreSystem
from repro.telemetry.hub import Telemetry
from repro.workloads import synthetic
from repro.workloads.mixes import workload_by_name
from repro.workloads.spec2000 import app_by_code

BUDGET = 4000
WARMUP = 8000  # must cover the trace prologue


class TestSingleCore:
    def test_swim_profile_plausible(self):
        res = run_single_core(app_by_code("c"), BUDGET, seed=3, warmup_insts=WARMUP)
        assert 0.1 < res.ipc < 4.0
        assert res.bw_gbps > 1.0  # memory-intensive
        assert res.reads > 20
        assert res.avg_read_latency > 100
        assert memory_efficiency(res.ipc, res.bw_gbps) == res.ipc / res.bw_gbps

    def test_ilp_app_low_bandwidth(self):
        res = run_single_core(app_by_code("t"), BUDGET, seed=3, warmup_insts=WARMUP)
        assert res.bw_gbps < 0.5
        assert res.ipc > 2.0

    def test_deterministic(self):
        a = run_single_core(app_by_code("k"), BUDGET, seed=9, warmup_insts=WARMUP)
        b = run_single_core(app_by_code("k"), BUDGET, seed=9, warmup_insts=WARMUP)
        assert a == b

    def test_seed_changes_result(self):
        a = run_single_core(app_by_code("k"), BUDGET, seed=1, warmup_insts=WARMUP)
        b = run_single_core(app_by_code("k"), BUDGET, seed=2, warmup_insts=WARMUP)
        assert a.finish_cycle != b.finish_cycle

    def test_mem_class_beats_ilp_on_me(self):
        mem = run_single_core(app_by_code("e"), BUDGET, seed=3, warmup_insts=WARMUP)
        ilp = run_single_core(app_by_code("a"), BUDGET, seed=3, warmup_insts=WARMUP)
        assert memory_efficiency(ilp.ipc, ilp.bw_gbps) > memory_efficiency(
            mem.ipc, mem.bw_gbps
        )


class TestMultiCore:
    def test_runs_all_policies(self):
        mix = workload_by_name("2MEM-1")
        me = (1.0, 0.2)
        for pol in ("HF-RF", "RR", "LREQ", "FCFS", "RF", "FIX-01"):
            r = run_multicore(mix, pol, BUDGET, seed=3, warmup_insts=WARMUP)
            assert r.num_cores == 2
            assert all(c.ipc > 0 for c in r.per_core)
        for pol in ("ME", "ME-LREQ"):
            r = run_multicore(
                mix, pol, BUDGET, seed=3, warmup_insts=WARMUP, me_values=me
            )
            assert r.policy_name == pol

    def test_me_requires_values(self):
        mix = workload_by_name("2MEM-1")
        with pytest.raises(ValueError):
            run_multicore(mix, "ME", BUDGET, seed=3)

    def test_deterministic(self):
        mix = workload_by_name("2MIX-1")
        a = run_multicore(mix, "HF-RF", BUDGET, seed=5, warmup_insts=WARMUP)
        b = run_multicore(mix, "HF-RF", BUDGET, seed=5, warmup_insts=WARMUP)
        assert a.ipcs() == b.ipcs()
        assert a.avg_read_latency() == b.avg_read_latency()

    def test_contention_slows_cores_down(self):
        # Note: the solo runs use core 0's trace stream while the mix gives
        # each core its own stream, so per-core IPCs are noisy at this tiny
        # budget — compare the aggregate, which damps the stream noise.
        mix = workload_by_name("4MEM-1")
        multi = run_multicore(mix, "HF-RF", BUDGET, seed=3, warmup_insts=WARMUP)
        solo_sum = sum(
            run_single_core(
                app, BUDGET, seed=3, phase="eval", warmup_insts=WARMUP
            ).ipc
            for app in mix.apps()
        )
        assert sum(multi.ipcs()) <= solo_sum * 1.10

    def test_policy_object_accepted(self):
        mix = workload_by_name("2MEM-1")
        r = run_multicore(
            mix, make_policy("LREQ"), BUDGET, seed=3, warmup_insts=WARMUP
        )
        assert r.policy_name == "LREQ"

    def test_result_aggregates(self):
        mix = workload_by_name("2MEM-2")
        r = run_multicore(mix, "HF-RF", BUDGET, seed=3, warmup_insts=WARMUP)
        assert 0 <= r.row_hit_rate <= 1
        assert r.end_cycle > 0
        assert r.avg_read_latency() > 0
        assert r.per_core[0].app == "mgrid"

    def test_custom_config_core_count_adapted(self):
        mix = workload_by_name("2MEM-1")
        cfg = SystemConfig(num_cores=8)  # wrong count: runner re-sizes
        r = run_multicore(mix, "HF-RF", BUDGET, seed=3, warmup_insts=WARMUP, config=cfg)
        assert r.num_cores == 2


class TestMachineLifetime:
    """A finished run frees its machine by reference counting: with the
    cycle collector off, nothing keeps it alive once the runner returns."""

    @pytest.fixture
    def machines(self, monkeypatch):
        refs = []
        init = MultiCoreSystem.__init__

        def tracked(system, *args, **kwargs):
            refs.append(weakref.ref(system))
            init(system, *args, **kwargs)

        monkeypatch.setattr(MultiCoreSystem, "__init__", tracked)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            yield refs
        finally:
            if was_enabled:
                gc.enable()

    def test_single_core_run_frees_its_machine(self, machines):
        run_single_core(app_by_code("c"), BUDGET, seed=3, warmup_insts=WARMUP)
        assert len(machines) == 1 and machines[0]() is None

    def test_multicore_run_frees_its_machine(self, machines):
        run_multicore(workload_by_name("2MEM-1"), "HF-RF", BUDGET, seed=3,
                      warmup_insts=WARMUP)
        assert len(machines) == 1 and machines[0]() is None

    def test_multicore_run_with_a_hub_frees_its_machine(self, machines):
        hub = Telemetry(capture_spans=True, capture_decisions=True,
                        capture_commands=True, span_sample=4)
        policy = make_policy("LREQ")
        result = run_multicore(workload_by_name("2MEM-1"), policy, BUDGET,
                               seed=3, warmup_insts=WARMUP, telemetry=hub)
        assert len(machines) == 1 and machines[0]() is None
        # The hub outlives the machine with everything it captured, and
        # the policy no longer records into the decision log.
        assert result.extra["telemetry"] is hub
        assert hub.samples and hub.spans.completed
        assert {ev.name for ev in hub.bus.events} >= {"decision", "cmd"}
        assert "select_read" not in vars(policy)

    def test_cloud_run_frees_its_machine(self, machines):
        run_cloud("2CLD-1", "HF-RF", BUDGET, seed=1, warmup_insts=WARMUP)
        assert len(machines) == 1 and machines[0]() is None


class TestReplayPastTheCap:
    @pytest.fixture
    def fresh_cache(self):
        synthetic.clear_trace_cache()
        yield
        synthetic.clear_trace_cache()

    def test_core_replay_past_the_cap_matches_the_default_cap(
            self, fresh_cache, monkeypatch):
        app = app_by_code("k")

        def run():
            return run_single_core(app, BUDGET, seed=4, phase="eval",
                                   warmup_insts=WARMUP)

        want = run()
        synthetic.clear_trace_cache()
        # Past the 1 024-op prologue, and not a whole number of chunks.
        monkeypatch.setattr(synthetic, "_STREAM_OP_CAP", 1_500)
        built = []
        raw_trace = synthetic._raw_trace

        def counted(*key):
            built.append(key)
            return raw_trace(*key)

        monkeypatch.setattr(synthetic, "_raw_trace", counted)
        # The first run records up to the cap, then reads on from a
        # generator of its own, fast-forwarded to the cap ...
        first = run()
        rec = synthetic._trace_cache[(app, 4, "eval", 0)]
        assert len(rec.stream().columns(0)[0]) == 1_500
        assert len(built) == 2
        # ... and so does the second, past the recording it replays.
        second = run()
        assert len(built) == 3
        assert first == want and second == want


class TestThreadedReplay:
    """Threads replaying one recording, which another thread grows while
    a core reads it, see the same ops as one thread alone: the core
    kernel re-reads the columns after every call out of its loop and
    holds no buffer export that would stop a column from growing."""

    def test_threads_sharing_a_cold_recording_match_serial(self):
        import sys
        import threading

        mix = workload_by_name("2MEM-1")

        def run():
            return run_multicore(mix, "HF-RF", 5 * BUDGET, seed=6,
                                 warmup_insts=WARMUP)

        synthetic.clear_trace_cache()
        want = run()
        synthetic.clear_trace_cache()
        results, errors = [], []

        def worker():
            try:
                results.append(run())
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            synthetic.clear_trace_cache()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert results == [want] * 4
