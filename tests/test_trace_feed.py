"""One trace feed: every trace source serves the core kernel typed columns
through ``columns(pos)``.

Each source must serve exactly the ops of a reference that does not read
through ``columns``; the kernel must refuse a result that breaks the
protocol; and a core that runs past a recording's cap must hold one
window of its own generator, not a growing copy of the stream.
"""

import os
import sys
from array import array

import pytest

from repro.config import SystemConfig
from repro.core import make_policy
from repro.cpu.trace import ListTrace, MemOp
from repro.cpu.trace_io import load_trace, save_trace
from repro.sim.runner import DEFAULT_WARMUP
from repro.sim.system import MultiCoreSystem
from repro.util.rng import RngStream
from repro.workloads import cloud, synthetic
from repro.workloads.mixes import workload_by_name
from repro.workloads.spec2000 import app_by_code
from tests.machine import ops

N = 3_000

#: a finite trace: gaps, lines and store flags that vary op by op
FINITE = [MemOp(i % 7, (i * 97 % 4096) << 6, i % 3 == 0) for i in range(600)]


@pytest.fixture
def fresh_cache():
    synthetic.clear_trace_cache()
    yield
    synthetic.clear_trace_cache()


def recording(monkeypatch, cap=None):
    app = app_by_code("k")
    if cap is not None:
        monkeypatch.setattr(synthetic, "_STREAM_OP_CAP", cap)
    want = synthetic._raw_trace(app, 4, "eval", 0).take(N)
    return synthetic.make_trace(app, 4, "eval", 0), want


def cloud_stream():
    svc = cloud.service_by_code("B")
    rng = RngStream(3, "cloud", svc.code, "eval", 1)
    gaps, addr_rng = cloud.arrival_gaps(svc, rng.child("gap")), rng.child("addr")
    base = 2 * synthetic.CORE_ADDR_STRIDE
    want = []
    for _ in range(N):
        gap = next(gaps) * 4 - 1
        line = cloud._CLOUD_BASE_LINE + addr_rng.randint(
            0, cloud.CLOUD_REGION_LINES)
        want.append(MemOp(gap, base + line * synthetic.LINE))
    return cloud.make_cloud_trace(svc, 3, "eval", core_id=1), want


def trace_file(tmp_path):
    path = tmp_path / "finite.trace"
    save_trace(FINITE, path)
    return load_trace(path), FINITE


SOURCES = {
    "recording": lambda mp, tmp: recording(mp),
    # past the 1 024-op prologue, and not a whole number of chunks
    "recording-past-the-cap": lambda mp, tmp: recording(mp, cap=1_500),
    "list": lambda mp, tmp: (ListTrace(FINITE), FINITE),
    "file": lambda mp, tmp: trace_file(tmp),
    "cloud": lambda mp, tmp: cloud_stream(),
}


@pytest.mark.parametrize("source", SOURCES)
def test_every_source_serves_its_ops_through_columns(source, fresh_cache,
                                                     monkeypatch, tmp_path):
    trace, want = SOURCES[source](monkeypatch, tmp_path)
    got = ops(trace, N)
    assert got == want
    if len(want) < N:  # a finite trace ends where its ops do
        assert trace.columns(len(want)) is None


def test_a_stream_refuses_a_position_it_did_not_reach():
    trace = synthetic._raw_trace(app_by_code("c"), 1, "eval", 0)
    first = trace.columns(0)
    with pytest.raises(ValueError, match="does not follow on"):
        trace.columns(first[3] + len(first[0]) + 1)
    stream = cloud.make_cloud_trace(cloud.service_by_code("K"), 1)
    with pytest.raises(ValueError, match="does not follow on"):
        stream.columns(5)


def test_a_replay_forwards_no_method_of_the_shared_generator(fresh_cache):
    app = app_by_code("c")
    trace = synthetic.make_trace(app, 1, "eval", 0)
    assert trace.base_addr == synthetic.CORE_ADDR_STRIDE
    with pytest.raises(AttributeError, match="columns"):
        trace.next_op()
    # nothing advanced the recording's generator
    assert ops(trace, 500) == synthetic._raw_trace(app, 1, "eval", 0).take(500)


class Served:
    """A trace source that serves fixed ``columns()`` results in turn."""

    def __init__(self, *results):
        self.results = list(results)

    def columns(self, pos):
        return self.results.pop(0)


def window(n, base=0, gaps="q", writes="B"):
    return (array(gaps, [5] * n), array("q", [(i + 1) << 20 for i in range(n)]),
            array(writes, bytes(n)), base)


class TestRefusals:
    def machine(self, trace):
        return MultiCoreSystem(SystemConfig(num_cores=1), make_policy("HF-RF"),
                               [trace], 2_000)

    @pytest.mark.parametrize("result", [
        window(4)[:3],
        [*window(4)],
        window(4) + (None,),
    ], ids=["three-tuple", "list", "five-tuple"])
    def test_not_a_four_tuple(self, result):
        with pytest.raises(TypeError, match="must return"):
            self.machine(Served(result))

    @pytest.mark.parametrize("result", [
        window(4, gaps="i"),
        window(4, writes="H"),
    ], ids=["gaps", "store-flags"])
    def test_wrong_item_size(self, result):
        with pytest.raises(TypeError, match="int64, int64 and byte arrays"):
            self.machine(Served(result))

    @pytest.mark.parametrize("result", [
        window(0),
        window(4, base=1),
    ], ids=["empty", "past-pos"])
    def test_columns_that_lack_the_op_asked_for(self, result):
        with pytest.raises(RuntimeError, match="out of step"):
            self.machine(Served(result))

    def test_a_later_window_that_lacks_the_op_asked_for(self):
        system = self.machine(Served(window(4), window(4, base=5)))
        with pytest.raises(RuntimeError, match="out of step"):
            system.run()


def test_a_run_past_the_real_cap_holds_one_window(fresh_cache):
    mix = workload_by_name("2MEM-1")
    traces = [synthetic.make_trace(app, 1, "eval", i)
              for i, app in enumerate(mix.apps())]
    system = MultiCoreSystem(SystemConfig().with_cores(2), make_policy("HF-RF"),
                             traces, 700_000, warmup_insts=DEFAULT_WARMUP,
                             seed=1)
    system.run()
    cap = synthetic._STREAM_OP_CAP
    rec = synthetic._trace_cache[(mix.apps()[0], 1, "eval", 0)]
    gaps, addrs, writes, _ = rec.columns(0)
    assert len(gaps) == len(addrs) == len(writes) == cap
    core = system.cores[0]
    assert core._trace_pos > cap
    gaps, _, _, base = core._replay_ops
    assert len(gaps) <= synthetic.CHUNK_OPS
    assert base < core._trace_pos <= base + len(gaps)


def test_growth_of_a_cold_recording_runs_no_python(fresh_cache):
    """A core draws its recording's next chunks in the kernel: ``run()`` on
    a machine over cold recordings runs no frame of ``repro/workloads``."""
    mix = workload_by_name("2MEM-1")
    traces = [synthetic.make_trace(app, 1, "eval", i)
              for i, app in enumerate(mix.apps())]
    system = MultiCoreSystem(SystemConfig().with_cores(2), make_policy("HF-RF"),
                             traces, 20_000, warmup_insts=DEFAULT_WARMUP,
                             seed=1)
    workloads_dir = os.sep + os.path.join("repro", "workloads") + os.sep
    frames = []

    def profile(frame, event, _arg):
        if event == "call" and workloads_dir in frame.f_code.co_filename:
            frames.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        system.run()
    finally:
        sys.setprofile(None)
    for i, app in enumerate(mix.apps()):
        gaps = synthetic._trace_cache[(app, 1, "eval", i)].columns(0)[0]
        assert len(gaps) > 20 * synthetic.CHUNK_OPS  # grown in run()
    assert frames == []
