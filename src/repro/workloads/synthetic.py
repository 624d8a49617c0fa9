"""Synthetic application reference streams.

Each application is a stochastic generator of :class:`~repro.cpu.trace.MemOp`
records built from three reference components:

* **miss stream** — references guaranteed (or overwhelmingly likely) to
  miss the 4 MB L2.  Streaming codes (``swim``/``applu``...) walk
  ``n_streams`` concurrent array streams, each advancing by
  ``stride_lines`` (2 KB default): under the cache-line-interleaved
  address map one stream stays inside a single (channel, bank) and visits
  consecutive row columns, so a burst served core-continuously produces
  DRAM row-buffer hits — the spatial locality the paper's Section 1
  says core-aware scheduling can exploit.  Pointer chasers (``mcf``) draw
  *random* fresh lines instead (no row locality).  Misses arrive in
  bursts whose mean length models the application's memory-level
  parallelism; a burst round-robins across the streams.
* **L2-resident set** — a region larger than L1 but comfortably inside the
  L2; references here are L1 misses / L2 hits.
* **hot set** — a small region that lives in L1.

The per-application knobs (:class:`~repro.workloads.spec2000.AppProfile`)
control the blend.  Determinism: every stream derives from the experiment
seed plus the application code and a *phase* label, so profiling and
evaluation use different, reproducible instruction slices — the analogue of
the paper's distinct SimPoints for profiling vs evaluation.

Address-space layout: each core's generator gets a disjoint base address
(bits well above any cache/DRAM index), so multiprogrammed applications
never share lines but do contend for L2 sets, channels, banks and rows,
exactly like the paper's setup.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict

from repro.cpu.trace import Columns, MemOp
from repro.util.rng import RngStream, geometric_p
from repro.workloads.spec2000 import AppProfile

__all__ = ["SyntheticApp", "ReplayTrace", "make_trace", "clear_trace_cache"]

#: separation between per-core address spaces (1 TiB apart)
CORE_ADDR_STRIDE = 1 << 40

#: size of the region random (pointer-chase) misses are drawn from; huge
#: relative to the 4 MB L2 (65536 lines) so reuse is negligible
CHASE_REGION_LINES = 1 << 24  # 1 GiB worth of lines

#: number of distinct regions the sequential stream may jump between
STREAM_REGIONS = 1 << 18

#: a sequential stream jumps to a fresh region after this many lines, so
#: one stream cannot monopolise a row forever
STREAM_RUN_LINES = 4096

LINE = 64

# Disjoint line-index bases for the four reference components, all far
# below CORE_ADDR_STRIDE so per-core spaces stay disjoint too.
_HOT_BASE_LINE = 1 << 30
_L2SET_BASE_LINE = 2 << 30
_CHASE_BASE_LINE = 3 << 30
_STREAM_BASE_LINE = 4 << 30

#: per-instance random placement span for the resident regions, in lines.
#: Without it every core's hot/L2 sets would alias onto identical cache
#: sets (core address spaces differ only in very high bits) and the shared
#: L2 would thrash structurally at 4+ cores.
_PLACEMENT_SPAN = 1 << 16

#: the kernel computes addresses in int64: keep base + line * LINE inside it
_MAX_BASE_ADDR = 1 << 62

#: ops per kernel call, per recording step and per window a stream serves
CHUNK_OPS = 256


class SyntheticApp:
    """Infinite reference stream for one application on one core.

    Implements the :class:`~repro.cpu.trace.TraceSource` protocol.  The
    per-op draws run in the C kernel ``_tracegen.c`` (loaded through
    :mod:`repro.workloads.tracegen` at the first generation), one chunk
    of ops per call; :meth:`columns`, :meth:`next_op` and :meth:`take`
    serve the same chunks, so any mix of them yields one stream.

    Parameters
    ----------
    profile:
        The application's parameters (see :mod:`repro.workloads.spec2000`).
    rng:
        Deterministic stream; callers derive it from
        ``(seed, app_code, phase, core_id)``.
    base_addr:
        Start of this instance's private address space.
    """

    __slots__ = (
        "profile",
        "rng",
        "base_addr",
        "_hot_lines",
        "_l2_lines",
        "_hot_base",
        "_l2_base",
        "_kernel",
        "_gaps",
        "_addrs",
        "_writes",
        "_pos",
        "_base",
    )

    def __init__(self, profile: AppProfile, rng: RngStream, base_addr: int = 0) -> None:
        if not 0 <= base_addr < _MAX_BASE_ADDR:
            raise ValueError(f"base_addr must be in [0, {_MAX_BASE_ADDR:#x})")
        self.profile = profile
        self.rng = rng
        self.base_addr = base_addr
        # Hot and L2-resident sets as fixed line pools.
        self._hot_lines = max(profile.hot_kb * 1024 // LINE, 1)
        self._l2_lines = max(profile.l2_set_kb * 1024 // LINE, 1)
        # Random placement of the resident regions (cache-set diversity
        # across program instances).
        self._hot_base = _HOT_BASE_LINE + rng.randint(0, _PLACEMENT_SPAN)
        self._l2_base = _L2SET_BASE_LINE + rng.randint(0, _PLACEMENT_SPAN)
        #: the kernel's state for this stream, from the first generation on
        self._kernel = None
        #: the current chunk as typed columns (gaps, addresses, store
        #: flags), the index of its next unserved op, and the stream's op
        #: index of its first
        self._gaps = array("q")
        self._addrs = array("q")
        self._writes = array("B")
        self._pos = 0
        self._base = 0

    def _start(self) -> tuple[array, array, array]:
        """First generation: seat the array streams, then the prologue.

        The prologue touches every resident line once, so the caches warm
        deterministically inside the measurement warmup window (models
        program initialisation; without it, 'resident' sets would leak
        cold misses through the whole run and swamp the per-application
        mpki targets).
        """
        import numpy as np

        from repro.workloads.tracegen import TraceKernel

        p = self.profile
        # Mean gap between memory ops: (1 - mem_ratio)/mem_ratio plain
        # instructions per memory instruction.
        mean_gap = (1.0 - p.mem_ratio) / p.mem_ratio
        gap_p = geometric_p(1.0 / (1.0 + mean_gap))
        # Miss bursts: expected misses per kilo-instruction is p.mpki; each
        # burst carries ~burst_mean misses, ops per kinst is mem_ratio*1000.
        ops_per_kinst = p.mem_ratio * 1000.0
        bursts_per_kinst = p.mpki / max(p.burst_mean, 1.0)
        # Geometric continuation keeps the mean burst length at burst_mean.
        burst_cont_p = 1.0 - 1.0 / max(p.burst_mean, 1.0)
        generator = self.rng.generator()
        self._kernel = TraceKernel(
            generator,
            p.n_streams,
            gap_p=gap_p,
            burst_start_p=min(bursts_per_kinst / ops_per_kinst, 1.0),
            burst_len_p=geometric_p(1.0 - burst_cont_p),
            l2_frac=p.l2_frac,
            seq_frac=p.seq_frac,
            store_frac=p.store_frac,
            base_addr=self.base_addr,
            line_bytes=LINE,
            hot_base=self._hot_base,
            hot_lines=self._hot_lines,
            l2_base=self._l2_base,
            l2_lines=self._l2_lines,
            chase_base=_CHASE_BASE_LINE,
            chase_lines=CHASE_REGION_LINES,
            stream_base=_STREAM_BASE_LINE,
            stream_regions=STREAM_REGIONS,
            stream_run=STREAM_RUN_LINES,
            stride=p.stride_lines,
        )
        # Hot set first, then the L2 set.  The prologue's gap draws are
        # consecutive, and a vectorized geometric draw is element-wise
        # stream-identical to the scalar loop.
        n_hot, n_l2 = self._hot_lines, self._l2_lines
        gaps = array("q")
        gaps.frombytes((generator.geometric(gap_p, n_hot + n_l2) - 1).tobytes())
        lines = np.concatenate((
            np.arange(self._hot_base, self._hot_base + n_hot, dtype=np.int64),
            np.arange(self._l2_base, self._l2_base + n_l2, dtype=np.int64)))
        addrs = array("q")
        addrs.frombytes((self.base_addr + lines * LINE).tobytes())
        return gaps, addrs, array("B", bytes(len(addrs)))

    def _refill(self, n: int) -> None:
        """Replace the spent chunk with the stream's next one: the whole
        prologue first, then ``n`` ops from the kernel."""
        kernel = self._kernel
        cols = self._start() if kernel is None else kernel.fill(n)
        self._base += len(self._gaps)
        self._gaps, self._addrs, self._writes = cols
        self._pos = 0

    def take_columns(self, n: int) -> tuple[array, array, array]:
        """The stream's next ``n`` ops as typed columns (gaps, addresses,
        store flags)."""
        gaps, addrs, writes = array("q"), array("q"), array("B")
        while len(gaps) < n:
            if self._pos == len(self._gaps):
                self._refill(n - len(gaps))
            pos = self._pos
            end = min(pos + n - len(gaps), len(self._gaps))
            gaps += self._gaps[pos:end]
            addrs += self._addrs[pos:end]
            writes += self._writes[pos:end]
            self._pos = end
        return gaps, addrs, writes

    # -- TraceSource ---------------------------------------------------------------

    def columns(self, pos: int) -> Columns:
        """The ``CHUNK_OPS`` ops from ``pos`` on, at base ``pos``: ``pos``
        must be the stream's next op (an infinite stream never ends)."""
        if pos != self._base + self._pos:
            raise ValueError(f"op {pos} does not follow on from the stream's "
                             f"next op {self._base + self._pos}")
        return (*self.take_columns(CHUNK_OPS), pos)

    def next_op(self) -> MemOp:
        """Generate the next memory operation (never ``None``: infinite)."""
        pos = self._pos
        if pos == len(self._gaps):
            self._refill(CHUNK_OPS)
            pos = 0
        self._pos = pos + 1
        return MemOp(self._gaps[pos], self._addrs[pos], bool(self._writes[pos]))

    def take(self, n: int) -> list[MemOp]:
        """The stream's next ``n`` ops."""
        gaps, addrs, writes = self.take_columns(n)
        return list(map(MemOp, gaps, addrs, map(bool, writes)))


def _raw_trace(
    profile: AppProfile, seed: int, phase: str, core_id: int
) -> SyntheticApp:
    """Build a fresh live generator (no caching)."""
    rng = RngStream(seed, "app", profile.code, phase, core_id)
    return SyntheticApp(profile, rng, base_addr=(core_id + 1) * CORE_ADDR_STRIDE)


# -- trace replay cache ----------------------------------------------------------
#
# Experiments re-simulate the *same* reference streams many times: a policy
# sweep runs every policy over identical (mix, seed) traces, and profiling
# vs evaluation re-derive per-core streams across runs.  Regenerating a
# stream per run would be pure waste, so ``make_trace`` records each
# distinct stream the first time it is generated and replays the recording
# on subsequent requests for the same ``(profile, seed, phase, core_id)``.
# Replayed ops are the same values in the same order, so every simulated
# statistic is bit-identical to regeneration.
#
# A recording is three typed columns — gaps and addresses as ``array('q')``,
# store flags as ``array('B')`` — not one ``MemOp`` per op: building a
# ``MemOp`` costs more than drawing the op, a Python int per value costs
# an allocation, and a long-lived recording of objects the cycle collector
# tracks is scanned by every full collection.  It grows one chunk of
# ``CHUNK_OPS`` at a time, copied from the trace kernel's output with no
# Python int per op, and every consumer reads the shared columns through
# ``ReplayTrace.columns``, so TraceCore's kernel, which indexes their
# buffers, leaves its loop once per chunk, not once per op.  Bounds: at
# most ``_CACHE_MAX_STREAMS`` streams are retained (LRU), and each
# recording stops at ``_STREAM_OP_CAP`` ops; a consumer running past the
# cap reads ``CHUNK_OPS`` windows of its own generator, fast-forwarded to
# the cap.

#: max recorded ops per stream (~4.5 MB at the cap; typical runs use a few
#: tens of thousands of ops per core)
_STREAM_OP_CAP = 1 << 18

#: max distinct streams kept (LRU) — a sweep touches cores × apps of the
#: active mix per phase, far below this
_CACHE_MAX_STREAMS = 32

_trace_cache: "OrderedDict[tuple, _RecordedStream]" = OrderedDict()

#: guards cache lookup/insert/eviction (threaded in-process workers);
#: recording extension has its own per-stream lock
_trace_cache_lock = threading.Lock()


class _RecordedStream:
    """Shared recording of one deterministic stream.

    ``gaps``, ``addrs`` and ``writes`` are the recorded prefix, one typed
    column per op field, and ``app`` is the live generator positioned
    exactly at ``len(gaps)``.  An extension appends to ``gaps`` last, so a
    reader that finds ``pos < len(gaps)`` without the lock finds op
    ``pos`` in every column.  No reader holds a buffer export of a column
    across a call that may grow it: an exported array refuses to resize.
    """

    __slots__ = ("gaps", "addrs", "writes", "app", "lock")

    def __init__(self, app: SyntheticApp) -> None:
        self.gaps = array("q")
        self.addrs = array("q")
        self.writes = array("B")
        self.app = app
        #: serialises frontier extension: in-process distributed workers
        #: replay the same stream from multiple threads, and an unlocked
        #: generator pull would hand interleaved ops to the wrong cursors
        self.lock = threading.Lock()


class ReplayTrace:
    """TraceSource replaying a shared :class:`_RecordedStream`.

    Multiple replayers may consume the same recording concurrently (each
    reader keeps its own cursor); whichever reaches the frontier first
    extends the recording from the live generator.
    """

    __slots__ = ("_rec", "_key", "_tail")

    def __init__(self, rec: _RecordedStream, key: tuple) -> None:
        self._rec = rec
        self._key = key
        #: this consumer's own generator once it ran past the cap
        self._tail: SyntheticApp | None = None

    def columns(self, pos: int) -> Columns:
        """The shared recording at base 0 while ``pos`` is below the cap,
        grown by a chunk at a time until it holds op ``pos``; past the
        cap, the next ``CHUNK_OPS`` window of this consumer's own
        generator."""
        rec = self._rec
        if pos < _STREAM_OP_CAP:
            if pos >= len(rec.gaps):
                with rec.lock:
                    # Another consumer thread may have extended the
                    # recording past this cursor while we waited.
                    while pos >= len(rec.gaps):
                        gaps, addrs, writes = rec.app.take_columns(
                            min(CHUNK_OPS, _STREAM_OP_CAP - len(rec.gaps)))
                        rec.writes += writes
                        rec.addrs += addrs
                        rec.gaps += gaps  # last: publishes the chunk
            return rec.gaps, rec.addrs, rec.writes, 0
        if self._tail is None:
            self._tail = _raw_trace(*self._key)
            for done in range(0, _STREAM_OP_CAP, CHUNK_OPS):
                self._tail.take_columns(min(CHUNK_OPS, _STREAM_OP_CAP - done))
        return self._tail.columns(pos)

    # Data attribute passthrough (profile, base_addr, _hot_lines, ...) so
    # tests and diagnostics can read a ReplayTrace like the SyntheticApp
    # it wraps.  No method: one would read or advance the recording's own
    # generator, which every consumer of the recording shares.
    def __getattr__(self, name: str):
        value = getattr(self._rec.app, name)
        if callable(value):
            raise AttributeError(
                f"{type(self).__name__} serves its ops through columns(); "
                f"it forwards no method of its generator ({name!r})")
        return value


def clear_trace_cache() -> None:
    """Drop all recorded streams (frees memory; determinism unaffected)."""
    _trace_cache.clear()


def make_trace(
    profile: AppProfile,
    seed: int,
    phase: str,
    core_id: int = 0,
) -> ReplayTrace:
    """Build the reference stream for ``profile`` on ``core_id``.

    ``phase`` separates instruction slices: profiling runs use
    ``"profile"``, evaluation runs use ``"eval"`` — different derived RNG
    streams, mirroring the paper's use of different SimPoints.

    Identical ``(profile, seed, phase, core_id)`` requests share a
    recorded stream (see the trace replay cache above); the returned ops
    are bit-identical to a fresh generator's either way.
    """
    key = (profile, seed, phase, core_id)
    with _trace_cache_lock:
        rec = _trace_cache.get(key)
        if rec is None:
            rec = _RecordedStream(_raw_trace(profile, seed, phase, core_id))
            _trace_cache[key] = rec
            if len(_trace_cache) > _CACHE_MAX_STREAMS:
                _trace_cache.popitem(last=False)
        else:
            _trace_cache.move_to_end(key)
    return ReplayTrace(rec, key)
