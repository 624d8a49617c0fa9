"""One trace feed: every trace source serves the core kernel a kernel
``TraceStream`` through ``stream(pos)``.

Each source must serve exactly the ops of a reference that does not read
through ``stream``; the kernel must refuse a result that breaks the
protocol, and a stream over given columns must refuse columns the core
could not read; a stream must own its ops, so a source's own arrays stay
free; and a core that runs past a recording's cap must hold one window of
its own generator, not a growing copy of the stream.
"""

import os
import sys
from array import array

import pytest

from repro.config import SystemConfig
from repro.core import make_policy
from repro.cpu.kernel import kernel
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
    """Every source serves its ops through the columns of the kernel
    streams its ``stream(pos)`` serves."""
    trace, want = SOURCES[source](monkeypatch, tmp_path)
    got = ops(trace, N)
    assert got == want
    if len(want) < N:  # a finite trace ends where its ops do
        assert trace.stream(len(want)) is None


def test_a_stream_refuses_a_position_it_did_not_reach():
    trace = synthetic._raw_trace(app_by_code("c"), 1, "eval", 0)
    first = trace.stream(0).columns(0)
    with pytest.raises(ValueError, match="does not follow on"):
        trace.stream(0).columns(first[3] + len(first[0]) + 1)
    stream = cloud.make_cloud_trace(cloud.service_by_code("K"), 1)
    with pytest.raises(ValueError, match="does not follow on"):
        stream.stream(5)


def test_a_replay_forwards_no_method_of_the_shared_generator(fresh_cache):
    app = app_by_code("c")
    trace = synthetic.make_trace(app, 1, "eval", 0)
    assert trace.base_addr == synthetic.CORE_ADDR_STRIDE
    with pytest.raises(AttributeError, match="stream"):
        trace.next_op()
    # nothing advanced the recording's generator
    assert ops(trace, 500) == synthetic._raw_trace(app, 1, "eval", 0).take(500)


def test_a_traces_own_arrays_stay_free_while_a_core_reads_it():
    """A stream holds its own copy of the columns it was built over."""
    gaps, addrs = array("q", [5] * 64), array("q", range(64, 64 * 65, 64))
    writes = array("B", bytes(64))
    system = MultiCoreSystem(SystemConfig(num_cores=1), make_policy("HF-RF"),
                             [ListTrace.from_columns(gaps, addrs, writes)],
                             2_000)
    system.run()
    for col in (gaps, addrs, writes):
        col.append(0)  # an exported array would refuse to resize
    assert system.cores[0]._trace_pos == 64


def columns(n, base=0, gaps="q", writes="B"):
    return (array(gaps, [5] * n), array("q", [(i + 1) << 20 for i in range(n)]),
            array(writes, bytes(n)), base)


def window(n, base=0):
    """A kernel stream over ``n`` ops from ``base`` on."""
    return kernel.TraceStream.over(*columns(n, base))


class Served:
    """A trace source that serves fixed ``stream()`` results in turn."""

    def __init__(self, *results):
        self.results = list(results)

    def stream(self, pos):
        return self.results.pop(0)


class TestRefusals:
    def machine(self, trace):
        return MultiCoreSystem(SystemConfig(num_cores=1), make_policy("HF-RF"),
                               [trace], 2_000)

    @pytest.mark.parametrize("result", [
        columns(4)[:3],
        [*columns(4)],
        columns(4) + (None,),
        ListTrace(FINITE),
    ], ids=["three-tuple", "list", "five-tuple", "trace"])
    def test_not_a_stream(self, result):
        with pytest.raises(TypeError, match="a TraceStream or None"):
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

    def test_none_ends_the_trace(self):
        system = self.machine(Served(window(4), None))
        system.run()
        core = system.cores[0]
        assert core._trace_pos == 4 and core.finished

    # TraceStream.over refuses columns the core could not read.

    @pytest.mark.parametrize("cols", [
        columns(4, gaps="i"),
        columns(4, writes="H"),
    ], ids=["gaps", "store-flags"])
    def test_wrong_item_size(self, cols):
        with pytest.raises(TypeError, match="int64, int64 and byte arrays"):
            kernel.TraceStream.over(*cols)

    @pytest.mark.parametrize("drop", [0, 1, 2])
    def test_unequal_lengths(self, drop):
        cols = list(columns(4))
        cols[drop] = cols[drop][:3]
        with pytest.raises(ValueError, match="of one length"):
            kernel.TraceStream.over(*cols)

    @pytest.mark.parametrize("column", [0, 1], ids=["gap", "address"])
    def test_a_negative_gap_or_address(self, column):
        cols = columns(4, base=7)
        cols[column][2] = -1
        with pytest.raises(ValueError, match=r"negative gap .* \(op 9\)"):
            kernel.TraceStream.over(*cols)

    def test_serves_its_copy_and_ends_past_it(self):
        cols = columns(4, base=7)
        stream = kernel.TraceStream.over(*cols)
        cols[0][0] = 99  # the stream holds a copy
        gaps, addrs, writes, base = stream.columns(10)
        assert (list(gaps), list(addrs), bytes(writes), base) == (
            [5] * 4, list(cols[1]), bytes(4), 7)
        assert stream.columns(11) is None
        with pytest.raises(ValueError, match="does not follow on"):
            stream.columns(6)
        with pytest.raises(ValueError, match="only a window skips"):
            stream.skip(20)


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
    gaps, addrs, writes, _ = rec.stream().columns(0)
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
        rec = synthetic._trace_cache[(app, 1, "eval", i)]
        gaps = rec.stream().columns(0)[0]
        assert len(gaps) > 20 * synthetic.CHUNK_OPS  # grown in run()
    assert frames == []
