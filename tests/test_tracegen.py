"""The C trace kernel against the Python draw loop it replaced.

``ReferenceApp`` is the per-op Python generator that ``SyntheticApp`` ran
before its draws moved into ``_tracegen.c``.  It draws every value with
numpy's own ``Generator`` methods, one call at a time, so op-for-op equality
here is the kernel's bit-identity guarantee.  A new generator knob must be
added to ``_tracegen.c`` and to this reference together.
"""

import functools
import itertools
import os
import subprocess
import sys
import sysconfig
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util.rng import RngStream
from repro.workloads import synthetic, tracegen
from repro.workloads.spec2000 import APPS, AppProfile, app_by_code
from repro.workloads.synthetic import (
    CHASE_REGION_LINES,
    CORE_ADDR_STRIDE,
    LINE,
    STREAM_REGIONS,
    STREAM_RUN_LINES,
    _CHASE_BASE_LINE,
    _HOT_BASE_LINE,
    _L2SET_BASE_LINE,
    _PLACEMENT_SPAN,
    _STREAM_BASE_LINE,
    _raw_trace,
    make_trace,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class ReferenceApp:
    """The Python per-op generator, one numpy scalar call per draw."""

    def __init__(self, profile: AppProfile, seed: int, phase: str, core_id: int):
        p = self.profile = profile
        rng = RngStream(seed, "app", profile.code, phase, core_id)
        g = rng.generator()
        self.random, self.integers, self.geometric = g.random, g.integers, g.geometric
        self.base_addr = (core_id + 1) * CORE_ADDR_STRIDE
        mean_gap = (1.0 - p.mem_ratio) / p.mem_ratio
        self.gap_p = min(max(1.0 / (1.0 + mean_gap), 1e-12), 1.0)
        ops_per_kinst = p.mem_ratio * 1000.0
        bursts_per_kinst = p.mpki / max(p.burst_mean, 1.0)
        self.burst_start_p = min(bursts_per_kinst / ops_per_kinst, 1.0)
        burst_cont_p = 1.0 - 1.0 / max(p.burst_mean, 1.0)
        self.burst_len_p = min(max(1.0 - burst_cont_p, 1e-12), 1.0)
        self.streams = [[0, 0] for _ in range(p.n_streams)]
        self.stream_idx = 0
        self.burst_left = 0
        self.hot_lines = max(p.hot_kb * 1024 // LINE, 1)
        self.l2_lines = max(p.l2_set_kb * 1024 // LINE, 1)
        self.hot_base = _HOT_BASE_LINE + rng.randint(0, _PLACEMENT_SPAN)
        self.l2_base = _L2SET_BASE_LINE + rng.randint(0, _PLACEMENT_SPAN)
        for s in self.streams:
            self.reseat(s)
        self.prologue = [self.hot_base + i for i in range(self.hot_lines)]
        self.prologue += [self.l2_base + i for i in range(self.l2_lines)]
        self.prologue.reverse()

    def reseat(self, stream):
        region = int(self.integers(0, STREAM_REGIONS))
        stride = self.profile.stride_lines
        offset = int(self.integers(0, min(stride, STREAM_RUN_LINES)))
        stream[0] = _STREAM_BASE_LINE + region * STREAM_RUN_LINES + offset
        stream[1] = max(STREAM_RUN_LINES // stride, 1)

    def miss_line(self):
        if self.random() < self.profile.seq_frac:
            stream = self.streams[self.stream_idx]
            self.stream_idx = (self.stream_idx + 1) % len(self.streams)
            if stream[1] <= 0:
                self.reseat(stream)
            line = stream[0]
            stream[0] += self.profile.stride_lines
            stream[1] -= 1
            return line
        return _CHASE_BASE_LINE + int(self.integers(0, CHASE_REGION_LINES))

    def next_op(self):
        if self.prologue:
            gap = int(self.geometric(self.gap_p)) - 1
            return gap, self.base_addr + self.prologue.pop() * LINE, False
        p = self.profile
        if self.burst_left > 0:
            self.burst_left -= 1
            gap = int(self.geometric(0.5)) - 1
            line = self.miss_line()
        else:
            gap = int(self.geometric(self.gap_p)) - 1
            roll = self.random()
            if roll < self.burst_start_p:
                self.burst_left = int(self.geometric(self.burst_len_p)) - 1
                line = self.miss_line()
            elif roll < self.burst_start_p + p.l2_frac:
                line = self.l2_base + int(self.integers(0, self.l2_lines))
            else:
                line = self.hot_base + int(self.integers(0, self.hot_lines))
        is_write = bool(self.random() < p.store_frac)
        return gap, self.base_addr + line * LINE, is_write

    def ops(self, n):
        return [self.next_op() for _ in range(n)]


def _as_tuples(ops):
    return [(op.gap, op.addr, op.is_write) for op in ops]


def _assert_same(got, want):
    """Op lists equal; on failure name the first differing index."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"streams part at op {i}: kernel "
                    f"{got[i] if i < len(got) else None}, reference "
                    f"{want[i] if i < len(want) else None}")


def _check(profile, seed, phase, core_id, post_ops):
    ref = ReferenceApp(profile, seed, phase, core_id)
    n = len(ref.prologue) + post_ops
    _assert_same(_as_tuples(_raw_trace(profile, seed, phase, core_id).take(n)),
                 ref.ops(n))


class TestKernelMatchesReference:
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("core_id", [0, 1, 3])
    @pytest.mark.parametrize("phase", ["profile", "eval"])
    def test_every_app(self, phase, core_id, seed):
        for app in APPS:
            _check(app, seed, phase, core_id, post_ops=5_000)

    # The edges: geometric(1.0) still consumes a draw (one-op bursts that
    # start on every op), and integers(0, 1) consumes none (one-line hot
    # and L2 sets).
    _EDGE = dict(n_streams=1, stride=1, hot_kb=16, l2_set_kb=48,
                 mem_ratio=0.3, seq_frac=0.5, store_frac=0.25, l2_frac=0.1,
                 seed=3)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @example(**_EDGE, burst_mean=1.0, miss_share=1.0)
    @example(**{**_EDGE, "hot_kb": 0, "l2_set_kb": 0}, burst_mean=3.0,
             miss_share=0.0)
    @given(
        n_streams=st.integers(1, 8),
        stride=st.one_of(st.just(1), st.integers(2, 64),
                         st.integers(STREAM_RUN_LINES + 1, 1 << 20)),
        burst_mean=st.one_of(st.just(1.0), st.floats(1.0, 24.0)),
        hot_kb=st.one_of(st.just(0), st.integers(1, 32)),
        l2_set_kb=st.one_of(st.just(0), st.integers(1, 64)),
        mem_ratio=st.floats(0.01, 0.99),
        miss_share=st.floats(0.0, 1.0),
        seq_frac=st.floats(0.0, 1.0),
        store_frac=st.floats(0.0, 1.0),
        l2_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
    )
    def test_custom_profiles(self, n_streams, stride, burst_mean, hot_kb,
                             l2_set_kb, mem_ratio, miss_share, seq_frac,
                             store_frac, l2_frac, seed):
        profile = AppProfile(
            name="custom", code="x", klass="MEM", paper_me=1.0,
            mpki=miss_share * mem_ratio * 1000.0, seq_frac=seq_frac,
            burst_mean=burst_mean, n_streams=n_streams, stride_lines=stride,
            mem_ratio=mem_ratio, store_frac=store_frac, hot_kb=hot_kb,
            l2_set_kb=l2_set_kb, l2_frac=l2_frac,
        )
        profile.validate()
        _check(profile, seed, "eval", 2, post_ops=1_500)

    @pytest.mark.parametrize("field", ["n_streams", "stride_lines"])
    def test_zero_divisor_is_refused_before_the_kernel_runs(self, field):
        profile = replace(app_by_code("c"), **{field: 0})
        with pytest.raises(ValueError, match="must be >= 1"):
            _raw_trace(profile, 1, "eval", 0).next_op()

    def test_ops_are_plain_python_values(self):
        op = _raw_trace(app_by_code("c"), 1, "eval", 0).take(5_000)[-1]
        assert (type(op.gap), type(op.addr), type(op.is_write)) == (int, int, bool)


class TestChunking:
    def test_takes_of_any_size_concatenate_to_one_stream(self):
        app = app_by_code("b")
        whole = _raw_trace(app, 2, "eval", 1).take(4_000)
        split = _raw_trace(app, 2, "eval", 1)
        got = []
        for size in itertools.cycle([1, 7, 256]):
            if len(got) >= len(whole):
                break
            got += split.take(size)
            got.append(split.next_op())
        _assert_same(_as_tuples(got[:len(whole)]), _as_tuples(whole))

    @pytest.fixture
    def small_cap(self, monkeypatch):
        # Past the 1 024-op prologue, and not a whole number of chunks.
        monkeypatch.setattr(synthetic, "_STREAM_OP_CAP", 1_500)
        synthetic.clear_trace_cache()
        yield 1_500
        synthetic.clear_trace_cache()

    def test_past_the_cap_both_paths_match_a_fresh_generator(self, small_cap):
        app = app_by_code("k")
        want = _as_tuples(_raw_trace(app, 4, "eval", 0).take(3_000))
        first = make_trace(app, seed=4, phase="eval", core_id=0)
        second = make_trace(app, seed=4, phase="eval", core_id=0)
        # ``first`` reaches the cap at the frontier and takes the
        # positioned generator over ...
        got_first = [first.next_op() for _ in range(3_000)]
        assert len(first.replay_state()[0]) == small_cap
        assert first._tail is first._rec.app
        # ... so ``second`` must regenerate and fast-forward past it.
        got_second = [second.next_op() for _ in range(3_000)]
        assert second._tail is not None and second._tail is not first._tail
        _assert_same(_as_tuples(got_first), want)
        _assert_same(_as_tuples(got_second), want)


class TestKernelBuild:
    @pytest.fixture
    def empty_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(tracegen, "kernel", functools.cache(tracegen.load))
        synthetic.clear_trace_cache()
        yield tmp_path / "repro"
        synthetic.clear_trace_cache()

    def test_no_compiler_fails_loudly_at_first_generation(self, empty_cache,
                                                          tmp_path, monkeypatch):
        compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
        monkeypatch.setenv("PATH", str(tmp_path))  # holds no compiler
        trace = make_trace(app_by_code("c"), seed=1, phase="eval")
        with pytest.raises(tracegen.KernelBuildError) as err:
            trace.next_op()
        assert compiler in str(err.value) and "_tracegen.c" in str(err.value)
        assert not list(empty_cache.iterdir())  # nothing half-built left

    def test_source_and_numpy_version_key_the_cache(self, empty_cache,
                                                    tmp_path, monkeypatch):
        original = tracegen.object_path()
        tracegen.load()
        edited = tmp_path / "_tracegen.c"
        edited.write_text(tracegen.SOURCE.read_text() + "/* edited */\n")
        with monkeypatch.context() as m:
            m.setattr(tracegen, "SOURCE", edited)
            tracegen.load()
            rebuilt = tracegen.object_path()
        assert sorted(empty_cache.iterdir()) == sorted([original, rebuilt])
        monkeypatch.setattr(np, "__version__", np.__version__ + ".post1")
        assert tracegen.object_path() not in (original, rebuilt)

    def test_concurrent_first_users_load_one_object(self, tmp_path):
        script = textwrap.dedent("""
            import hashlib
            from repro.workloads import tracegen
            from repro.workloads.spec2000 import app_by_code
            from repro.workloads.synthetic import _raw_trace
            ops = _raw_trace(app_by_code("c"), 1, "eval", 0).take(2_000)
            path = tracegen.object_path()
            print(path, hashlib.sha256(path.read_bytes()).hexdigest(),
                  hash(tuple((o.gap, o.addr, o.is_write) for o in ops)))
        """)
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
                   PYTHONPATH=str(SRC))
        procs = [subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True) for _ in range(2)]
        try:
            outs = [p.communicate(timeout=120) for p in procs]
        finally:
            for p in procs:
                p.kill()
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0, err
        assert outs[0][0] == outs[1][0]
        assert [f.name for f in (tmp_path / "repro").iterdir()] == [
            Path(outs[0][0].split()[0]).name]


#: the modules that bind a type of the model kernel (``cpu/_core.c``):
#: importing any of them loads it
KERNEL_BINDERS = (
    "repro.cpu.kernel",
    "repro.cpu.core_model",
    "repro.sim.engine",
    "repro.cache.hierarchy",
    "repro.controller.controller",
    "repro.controller.fast",
    "repro.controller.request",
)

#: repro modules ``import repro`` loaded before the memory side moved into
#: the kernel; making the binding modules lazy may only lower it
IMPORT_REPRO_MODULES = 62


class TestCoreKernelLoad:
    """The model kernel (``cpu/_core.c``) shares the trace kernel's cache
    and loads at the first machine build, never at import."""

    @staticmethod
    def _cores(tmp_path) -> list[str]:
        cache = tmp_path / "repro"
        names = sorted(f.name for f in cache.iterdir()) if cache.is_dir() else []
        return [n for n in names if n.startswith("_core-")]

    def test_import_help_and_generation_load_no_core_kernel(self, tmp_path):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
                   PYTHONPATH=str(SRC))
        script = textwrap.dedent(f"""
            import sys
            import repro
            loaded = [m for m in sys.modules
                      if m == "repro" or m.startswith("repro.")]
            assert len(loaded) <= {IMPORT_REPRO_MODULES}, len(loaded)
            from repro.workloads.spec2000 import app_by_code
            from repro.workloads.synthetic import make_trace
            make_trace(app_by_code("c"), 1, "eval").next_op()
            bound = set({KERNEL_BINDERS!r}) & set(sys.modules)
            assert not bound, sorted(bound)
        """)
        for cmd in ([sys.executable, "-c", script],
                    [sys.executable, "-m", "repro", "--help"]):
            subprocess.run(cmd, env=env, check=True, capture_output=True)
        assert self._cores(tmp_path) == []
        build = textwrap.dedent("""
            from repro import run_single_core
            from repro.workloads import app_by_code
            run_single_core(app_by_code("c"), 1000, seed=1)
        """)
        subprocess.run([sys.executable, "-c", build], env=env, check=True,
                       capture_output=True)
        name = f".cpython-{sys.version_info[0]}{sys.version_info[1]}"
        assert len(self._cores(tmp_path)) == 1
        assert name in self._cores(tmp_path)[0]

    def test_concurrent_first_machines_load_one_core_object(self, tmp_path):
        script = textwrap.dedent("""
            from repro.cpu import core_model
            from repro import run_single_core
            from repro.workloads import app_by_code
            r = run_single_core(app_by_code("c"), 1000, seed=1)
            print(core_model.kernel.__file__, r.finish_cycle)
        """)
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
                   PYTHONPATH=str(SRC))
        procs = [subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True) for _ in range(2)]
        try:
            outs = [p.communicate(timeout=120) for p in procs]
        finally:
            for p in procs:
                p.kill()
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0, err
        assert outs[0][0] == outs[1][0]
        assert self._cores(tmp_path) == [Path(outs[0][0].split()[0]).name]
