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
from collections import OrderedDict

from repro.cpu.trace import MemOp
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

#: ops per draw step: a recording grows, and a window moves on, by this many
CHUNK_OPS = 256

#: serialises first generations: threads replaying one recording would
#: otherwise seat two kernel streams on its one generator
_start_lock = threading.Lock()


class SyntheticApp:
    """Infinite reference stream for one application on one core.

    Implements the :class:`~repro.cpu.trace.TraceSource` protocol.  The
    ops are drawn and held by a kernel ``TraceStream`` (``cpu/_core.c``),
    made at the first generation: with ``limit`` ops to hold it is a
    recording of every op from 0 (what :func:`make_trace` shares),
    otherwise a window of the last ``CHUNK_OPS`` ops drawn.  A core reads
    the stream in place and draws on it itself; :meth:`next_op` and
    :meth:`take` read the same ops through its ``columns``.

    Parameters
    ----------
    profile:
        The application's parameters (see :mod:`repro.workloads.spec2000`).
    rng:
        Deterministic stream; callers derive it from
        ``(seed, app_code, phase, core_id)``.
    base_addr:
        Start of this instance's private address space.
    limit:
        Ops a recording holds at most; 0 for a window.
    """

    __slots__ = (
        "profile",
        "rng",
        "base_addr",
        "limit",
        "_hot_lines",
        "_l2_lines",
        "_hot_base",
        "_l2_base",
        "_stream",
        "_pos",
    )

    def __init__(self, profile: AppProfile, rng: RngStream, base_addr: int = 0,
                 limit: int = 0) -> None:
        if not 0 <= base_addr < _MAX_BASE_ADDR:
            raise ValueError(f"base_addr must be in [0, {_MAX_BASE_ADDR:#x})")
        self.profile = profile
        self.rng = rng
        self.base_addr = base_addr
        self.limit = limit
        # Hot and L2-resident sets as fixed line pools.
        self._hot_lines = max(profile.hot_kb * 1024 // LINE, 1)
        self._l2_lines = max(profile.l2_set_kb * 1024 // LINE, 1)
        # Random placement of the resident regions (cache-set diversity
        # across program instances).
        self._hot_base = _HOT_BASE_LINE + rng.randint(0, _PLACEMENT_SPAN)
        self._l2_base = _L2SET_BASE_LINE + rng.randint(0, _PLACEMENT_SPAN)
        #: the kernel stream, from the first generation on
        self._stream = None
        #: the op :meth:`next_op` and :meth:`take` read next
        self._pos = 0

    def stream(self, pos: int = 0):
        """The kernel stream that draws and holds this application's ops
        (every ``pos`` is on it): a window moves on a chunk when ``pos``
        is the op just past it; a recording holds every op from 0, and
        ends (its ``columns`` serve ``None``) at its limit."""
        if self._stream is None:
            with _start_lock:
                if self._stream is None:
                    self._stream = self._start()
        return self._stream

    def _start(self):
        """First generation: the kernel stream with this application's
        knobs, its array streams seated.

        Its first ops are the prologue, which touches every resident line
        once, so the caches warm deterministically inside the measurement
        warmup window (models program initialisation; without it,
        'resident' sets would leak cold misses through the whole run and
        swamp the per-application mpki targets).
        """
        from repro.cpu.kernel import kernel

        p = self.profile
        # Mean gap between memory ops: (1 - mem_ratio)/mem_ratio plain
        # instructions per memory instruction.
        mean_gap = (1.0 - p.mem_ratio) / p.mem_ratio
        # Miss bursts: expected misses per kilo-instruction is p.mpki; each
        # burst carries ~burst_mean misses, ops per kinst is mem_ratio*1000.
        ops_per_kinst = p.mem_ratio * 1000.0
        bursts_per_kinst = p.mpki / max(p.burst_mean, 1.0)
        # Geometric continuation keeps the mean burst length at burst_mean.
        burst_cont_p = 1.0 - 1.0 / max(p.burst_mean, 1.0)
        return kernel.TraceStream(
            self.rng.generator().bit_generator,
            limit=self.limit,
            chunk=CHUNK_OPS,
            gap_p=geometric_p(1.0 / (1.0 + mean_gap)),
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
            n_streams=p.n_streams,
        )

    def next_op(self) -> MemOp:
        """Generate the next memory operation (never ``None``: infinite)."""
        return self.take(1)[0]

    def take(self, n: int) -> list[MemOp]:
        """The stream's next ``n`` ops."""
        from repro.cpu.trace_io import record_trace

        ops = record_trace(self, n, start=self._pos)
        self._pos += len(ops)
        return ops


def _raw_trace(
    profile: AppProfile, seed: int, phase: str, core_id: int, limit: int = 0
) -> SyntheticApp:
    """Build a fresh live generator (no caching)."""
    rng = RngStream(seed, "app", profile.code, phase, core_id)
    return SyntheticApp(profile, rng, base_addr=(core_id + 1) * CORE_ADDR_STRIDE,
                        limit=limit)


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
# A recording is a SyntheticApp whose kernel stream holds every op from 0
# as three typed columns (gaps and addresses int64, store flags bytes),
# not one ``MemOp`` per op.  Every consumer reads it with a cursor of its
# own, and whichever reaches the frontier first draws the next chunk of
# ``CHUNK_OPS`` into it: a core does that in the kernel, with no Python
# call.  Bounds: at most ``_CACHE_MAX_STREAMS`` streams are retained
# (LRU), and each recording stops at ``_STREAM_OP_CAP`` ops; a consumer
# running past the cap reads windows of its own generator, fast-forwarded
# to the cap in the kernel.

#: max recorded ops per stream (~4.5 MB at the cap; typical runs use a few
#: tens of thousands of ops per core)
_STREAM_OP_CAP = 1 << 18

#: max distinct streams kept (LRU) — a sweep touches cores × apps of the
#: active mix per phase, far below this
_CACHE_MAX_STREAMS = 32

_trace_cache: "OrderedDict[tuple, SyntheticApp]" = OrderedDict()

#: guards cache lookup/insert/eviction (threaded in-process workers); the
#: kernel grows a recording under the GIL and its bit generator's lock
_trace_cache_lock = threading.Lock()


class ReplayTrace:
    """TraceSource replaying a shared recording.

    Multiple replayers may consume the same recording concurrently (each
    reader keeps its own cursor); whichever reaches the frontier first
    draws the next chunk into it.
    """

    __slots__ = ("_rec", "_key", "_tail")

    def __init__(self, rec: SyntheticApp, key: tuple) -> None:
        self._rec = rec
        self._key = key
        #: this consumer's own generator once it ran past the cap
        self._tail: SyntheticApp | None = None

    def stream(self, pos: int):
        """The kernel stream that holds op ``pos``: the shared recording
        below its limit; past it, a window of this consumer's own
        generator, drawn on to the limit."""
        rec = self._rec
        if pos < rec.limit:
            return rec.stream()
        if self._tail is None:
            self._tail = _raw_trace(*self._key)
            self._tail.stream().skip(rec.limit)
        return self._tail.stream()

    # Data attribute passthrough (profile, base_addr, _hot_lines, ...) so
    # tests and diagnostics can read a ReplayTrace like the SyntheticApp
    # it wraps.  No method: one would read or advance the recording's own
    # generator, which every consumer of the recording shares.
    def __getattr__(self, name: str):
        value = getattr(self._rec, name)
        if callable(value):
            raise AttributeError(
                f"{type(self).__name__} serves its ops through stream(); "
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
            rec = _raw_trace(profile, seed, phase, core_id, _STREAM_OP_CAP)
            _trace_cache[key] = rec
            if len(_trace_cache) > _CACHE_MAX_STREAMS:
                _trace_cache.popitem(last=False)
        else:
            _trace_cache.move_to_end(key)
    return ReplayTrace(rec, key)
