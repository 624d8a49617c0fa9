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

import os
import threading
from collections import OrderedDict

from repro.cpu.trace import MemOp
from repro.util.rng import RngStream
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


class SyntheticApp:
    """Infinite reference stream for one application on one core.

    Implements the :class:`~repro.cpu.trace.TraceSource` protocol.

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
        "_gap_p",
        "_burst_start_p",
        "_burst_cont_p",
        "_streams",
        "_stream_idx",
        "_burst_left",
        "_hot_lines",
        "_l2_lines",
        "_hot_base",
        "_l2_base",
        "_prologue_left",
        "_grandom",
        "_gints",
        "_ggeom",
        "_gap_pc",
        "_burst_len_pc",
        "_store_frac",
        "_l2_frac",
        "_prologue_gaps",
    )

    def __init__(self, profile: AppProfile, rng: RngStream, base_addr: int = 0) -> None:
        if base_addr < 0:
            raise ValueError("base_addr must be >= 0")
        self.profile = profile
        self.rng = rng
        self.base_addr = base_addr
        p = profile
        # Mean gap between memory ops: (1 - mem_ratio)/mem_ratio plain
        # instructions per memory instruction.
        mean_gap = (1.0 - p.mem_ratio) / p.mem_ratio
        self._gap_p = 1.0 / (1.0 + mean_gap)
        # Miss bursts: expected misses per kilo-instruction is p.mpki; each
        # burst carries ~burst_mean misses, ops per kinst is mem_ratio*1000.
        ops_per_kinst = p.mem_ratio * 1000.0
        bursts_per_kinst = p.mpki / max(p.burst_mean, 1.0)
        self._burst_start_p = min(bursts_per_kinst / ops_per_kinst, 1.0)
        # Geometric continuation keeps the mean burst length at burst_mean.
        self._burst_cont_p = 1.0 - 1.0 / max(p.burst_mean, 1.0)
        # Bound numpy-generator methods and pre-clamped geometric
        # parameters for the per-op draw loop: the draws below are the
        # inlined bodies of RngStream.random/randint/geometric (keep in
        # sync with util/rng.py) — same generator, same argument values,
        # so the draw sequence is bit-identical, minus a wrapper frame per
        # draw.  int()/bool() conversions are kept so gaps, addresses and
        # flags stay plain Python objects.
        g = rng.generator()
        self._grandom = g.random
        self._gints = g.integers
        self._ggeom = g.geometric
        self._gap_pc = min(max(self._gap_p, 1e-12), 1.0)
        self._burst_len_pc = min(max(1.0 - self._burst_cont_p, 1e-12), 1.0)
        # Per-op profile constants, flattened off the frozen dataclass.
        self._store_frac = p.store_frac
        self._l2_frac = p.l2_frac
        # Concurrent strided array streams: [line_cursor, accesses_left].
        self._streams: list[list[int]] = [[0, 0] for _ in range(p.n_streams)]
        self._stream_idx = 0
        self._burst_left = 0
        # Hot and L2-resident sets as fixed line pools.
        hot_count = max(p.hot_kb * 1024 // LINE, 1)
        l2_count = max(p.l2_set_kb * 1024 // LINE, 1)
        self._hot_lines = hot_count
        self._l2_lines = l2_count
        # Random placement of the resident regions (cache-set diversity
        # across program instances).
        self._hot_base = _HOT_BASE_LINE + self.rng.randint(0, _PLACEMENT_SPAN)
        self._l2_base = _L2SET_BASE_LINE + self.rng.randint(0, _PLACEMENT_SPAN)
        # Initialisation prologue: touch every resident line once so the
        # caches warm deterministically inside the measurement warmup
        # window (models program initialisation; without it, 'resident'
        # sets would leak cold misses through the whole run and swamp the
        # per-application mpki targets).
        self._prologue_left = hot_count + l2_count
        self._prologue_gaps: list[int] | None = None
        for s in self._streams:
            self._reseat_stream(s)

    # -- address components ------------------------------------------------------

    def _reseat_stream(self, stream: list[int]) -> None:
        """Point one array stream at a fresh region of fresh lines.

        The random sub-stride offset picks the (channel, bank) the stream
        will live in — without it every stream would start at line 0 of
        its region and alias onto channel 0 / bank 0.
        """
        region = int(self._gints(0, STREAM_REGIONS))
        offset = int(self._gints(0, min(self.profile.stride_lines, STREAM_RUN_LINES)))
        stream[0] = _STREAM_BASE_LINE + region * STREAM_RUN_LINES + offset
        stream[1] = max(STREAM_RUN_LINES // self.profile.stride_lines, 1)

    def _miss_addr(self) -> int:
        """A line expected to miss the L2 (strided-stream or random)."""
        if self._grandom() < self.profile.seq_frac:
            # Round-robin across the concurrent array streams; each stream
            # advances by stride_lines (same bank, next row column).
            stream = self._streams[self._stream_idx]
            self._stream_idx = (self._stream_idx + 1) % len(self._streams)
            if stream[1] <= 0:
                self._reseat_stream(stream)
            line = stream[0]
            stream[0] += self.profile.stride_lines
            stream[1] -= 1
        else:
            line = _CHASE_BASE_LINE + int(self._gints(0, CHASE_REGION_LINES))
        return self.base_addr + line * LINE

    def _hot_addr(self) -> int:
        """A reference into the L1-resident hot set."""
        line = self._hot_base + int(self._gints(0, self._hot_lines))
        return self.base_addr + line * LINE

    def _l2_addr(self) -> int:
        """A reference into the L2-resident (L1-missing) set."""
        line = self._l2_base + int(self._gints(0, self._l2_lines))
        return self.base_addr + line * LINE

    # -- TraceSource ---------------------------------------------------------------

    def _prologue_op(self) -> MemOp:
        """One initialisation touch: hot set first, then the L2 set."""
        gaps = self._prologue_gaps
        if gaps is None:
            # The prologue's draws are consecutive (nothing else touches
            # the generator until it ends), and a vectorized geometric
            # draw is element-wise stream-identical to the scalar loop —
            # one numpy call replaces thousands (golden tests pin the
            # equivalence).
            gaps = self._prologue_gaps = self._ggeom(
                self._gap_pc, self._prologue_left
            ).tolist()
        idx = (self._hot_lines + self._l2_lines) - self._prologue_left
        self._prologue_left -= 1
        if idx < self._hot_lines:
            line = self._hot_base + idx
        else:
            line = self._l2_base + (idx - self._hot_lines)
        gap = gaps[idx] - 1
        return MemOp(gap, self.base_addr + line * LINE, False)

    def next_op(self) -> MemOp:
        """Generate the next memory operation (never ``None``: infinite)."""
        if self._prologue_left > 0:
            return self._prologue_op()
        if self._burst_left > 0:
            # Inside a miss burst: tight gaps keep the misses within one
            # ROB window so they overlap (that is what MLP means here).
            self._burst_left -= 1
            gap = int(self._ggeom(0.5)) - 1  # mean 1
            addr = self._miss_addr()
            is_write = bool(self._grandom() < self._store_frac)
            return MemOp(gap, addr, is_write)
        gap = int(self._ggeom(self._gap_pc)) - 1
        roll = self._grandom()
        if roll < self._burst_start_p:
            # Start a new miss burst; this op is its first miss.
            length = int(self._ggeom(self._burst_len_pc))
            self._burst_left = length - 1
            addr = self._miss_addr()
        elif roll < self._burst_start_p + self._l2_frac:
            addr = self._l2_addr()
        else:
            addr = self._hot_addr()
        is_write = bool(self._grandom() < self._store_frac)
        return MemOp(gap, addr, is_write)


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
# vs evaluation re-derive per-core streams across runs.  Generating a
# stream is RNG-bound (numpy draws are ~20% of simulation wall time), so
# regenerating it per run is pure waste.  ``make_trace`` therefore records
# the MemOps of each distinct stream the first time it is generated and
# replays the recording on subsequent requests for the same
# ``(profile, seed, phase, core_id)``.  Replayed ops are the *same*
# ``MemOp`` values in the same order, so every simulated statistic is
# bit-identical to regeneration (MemOp is immutable).
#
# Bounds: at most ``_CACHE_MAX_STREAMS`` streams are retained (LRU), and
# each recording stops at ``_STREAM_OP_CAP`` ops — a consumer running past
# the cap falls back to live generation (taking over the positioned
# generator when it is first past the end, or regenerating and
# fast-forwarding otherwise).  Set ``REPRO_TRACE_CACHE=0`` to disable.

#: max recorded ops per stream (~20 MB at the cap; typical runs use a few
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

    ``ops`` is the recorded prefix; ``source`` is the live generator
    positioned exactly at ``len(ops)``, or ``None`` once a consumer past
    the cap has taken it over.
    """

    __slots__ = ("ops", "source", "app", "lock")

    def __init__(self, app: SyntheticApp) -> None:
        self.ops: list[MemOp] = []
        self.source: SyntheticApp | None = app
        #: kept (even after detach) for attribute passthrough
        self.app = app
        #: serialises frontier extension: in-process distributed workers
        #: replay the same stream from multiple threads, and an unlocked
        #: generator pull would hand interleaved ops to the wrong cursors
        self.lock = threading.Lock()


class ReplayTrace:
    """TraceSource replaying a shared :class:`_RecordedStream`.

    Multiple replayers may consume the same recording concurrently
    (each keeps its own cursor); whichever reaches the frontier first
    extends the recording from the live generator.
    """

    __slots__ = ("_rec", "_key", "_pos", "_tail")

    def __init__(self, rec: _RecordedStream, key: tuple) -> None:
        self._rec = rec
        self._key = key
        self._pos = 0
        #: private live generator once this consumer outran the recording
        self._tail: SyntheticApp | None = None

    def next_op(self) -> MemOp:
        tail = self._tail
        if tail is not None:
            return tail.next_op()
        pos = self._pos
        rec = self._rec
        ops = rec.ops
        if pos < len(ops):
            self._pos = pos + 1
            return ops[pos]
        with rec.lock:
            # Re-check under the lock: another consumer thread may have
            # extended the recording past this cursor while we waited.
            if pos < len(ops):
                self._pos = pos + 1
                return ops[pos]
            src = rec.source
            if src is not None and pos < _STREAM_OP_CAP:
                op = src.next_op()
                ops.append(op)
                self._pos = pos + 1
                return op
            if src is not None:
                # Recording is full and this consumer sits exactly at the
                # frontier: take exclusive ownership of the positioned
                # generator and go live.
                rec.source = None
                self._tail = src
                return src.next_op()
        # The generator was taken by another consumer: rebuild one and
        # fast-forward to this cursor (one-time O(pos) cost, cap-bounded
        # recordings make this path rare).
        tail = _raw_trace(*self._key)
        for _ in range(pos):
            tail.next_op()
        self._tail = tail
        return tail.next_op()

    # -- direct-indexing fast path ------------------------------------------
    #
    # A hot consumer (TraceCore) may bypass next_op() while its cursor is
    # inside the recording: read (ops, pos) once via replay_state(), index
    # ``ops`` directly (its identity is stable; other consumers may extend
    # it in place), and keep a private cursor.  Before any fallback
    # next_op() call it must write the cursor back with sync_pos() and
    # re-read it from replay_state() after — next_op() advances the cursor
    # while the recording is still being extended.  Past the cap the
    # cursor freezes >= len(ops), so the index check fails forever and
    # every pull flows through next_op() again.

    def replay_state(self) -> tuple[list[MemOp], int]:
        """The shared recording and this consumer's cursor."""
        return self._rec.ops, self._pos

    def sync_pos(self, pos: int) -> None:
        """Write back a direct-indexing consumer's cursor."""
        self._pos = pos

    def pull(self, pos: int) -> tuple[MemOp, int]:
        """Fused ``sync_pos`` + ``next_op`` + cursor read-back.

        One method call instead of three on the generation-frontier path,
        which runs once per op on the *first* simulation of each stream.
        """
        self._pos = pos
        op = self.next_op()
        return op, self._pos

    # Attribute passthrough (profile, _hot_lines, ...) so a ReplayTrace is
    # a drop-in for the SyntheticApp it wraps in tests and diagnostics.
    def __getattr__(self, name: str):
        return getattr(self._rec.app, name)


def clear_trace_cache() -> None:
    """Drop all recorded streams (frees memory; determinism unaffected)."""
    _trace_cache.clear()


def make_trace(
    profile: AppProfile,
    seed: int,
    phase: str,
    core_id: int = 0,
) -> "SyntheticApp | ReplayTrace":
    """Build the reference stream for ``profile`` on ``core_id``.

    ``phase`` separates instruction slices: profiling runs use
    ``"profile"``, evaluation runs use ``"eval"`` — different derived RNG
    streams, mirroring the paper's use of different SimPoints.

    Identical ``(profile, seed, phase, core_id)`` requests share a
    recorded stream (see the trace replay cache above); the returned ops
    are bit-identical to a fresh generator's either way.
    """
    if os.environ.get("REPRO_TRACE_CACHE", "1") == "0":
        return _raw_trace(profile, seed, phase, core_id)
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
