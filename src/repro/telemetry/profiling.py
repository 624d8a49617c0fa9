"""Engine profiling hooks: cProfile wrapped for the CLI's ``--profile``.

:class:`EngineProfiler` is a context manager that profiles whatever runs
inside it (the engine loop, a figure sweep) and writes two artifacts
plus an in-memory summary:

* ``<base>.pstats`` — the raw :mod:`pstats` dump, for ``snakeviz`` /
  ``python -m pstats``;
* ``<base>.folded`` — collapsed stacks (``caller;callee microseconds``
  per line) for flame-graph tools.  cProfile only keeps caller→callee
  edges, not full stacks, so these are *exact two-frame* stacks: each
  line carries the callee's own time attributed to one direct caller —
  enough for a "where does time go, called from where" flame view
  without the sampling error of a statistical profiler;
* :attr:`top` — the top-N functions by cumulative time, which
  ``repro run --profile`` / ``repro profile --profile`` print (which
  functions dominate, not just how long the run took).

Profiling is a measurement tool, not a telemetry stream: it perturbs
timings (typically 1.3–2×), so a profiled run is never a timed run;
``bench/run.py --trace 1`` reports per-layer cost from its own ledger,
apart from its timed runs.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats

__all__ = ["EngineProfiler"]


def _func_name(func: tuple) -> str:
    """``pstats`` function key -> ``file:line(name)`` (or ``~:0(<builtin>)``)."""
    filename, lineno, name = func
    if filename == "~":
        return name
    return f"{os.path.basename(filename)}:{lineno}({name})"


class EngineProfiler:
    """``with EngineProfiler("out/profile") as prof: run(...)``.

    On exit, writes ``out/profile.pstats`` and ``out/profile.folded``
    and fills :attr:`top` / :attr:`stats`.  ``out_base=None`` keeps the
    profile in memory only (no files) — used by tests and by callers
    that only want :attr:`top`.
    """

    def __init__(self, out_base: str | os.PathLike | None = None,
                 *, top_n: int = 15) -> None:
        self.out_base = os.fspath(out_base) if out_base is not None else None
        self.top_n = top_n
        self.profile = cProfile.Profile()
        self.stats: pstats.Stats | None = None
        self.top: list[dict] = []
        self.pstats_path: str | None = None
        self.folded_path: str | None = None

    def __enter__(self) -> "EngineProfiler":
        self.profile.enable()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.profile.disable()
        self.stats = pstats.Stats(self.profile, stream=io.StringIO())
        self._summarize()
        if self.out_base is not None and exc_type is None:
            self.pstats_path = self.out_base + ".pstats"
            self.folded_path = self.out_base + ".folded"
            self.stats.dump_stats(self.pstats_path)
            with open(self.folded_path, "w") as f:
                f.write(self.folded())

    def _summarize(self) -> None:
        entries = []
        for func, (cc, nc, tt, ct, _callers) in self.stats.stats.items():
            entries.append({
                "func": _func_name(func),
                "ncalls": nc,
                "tottime": round(tt, 6),
                "cumtime": round(ct, 6),
            })
        entries.sort(key=lambda e: (-e["cumtime"], e["func"]))
        self.top = entries[: self.top_n]

    def folded(self) -> str:
        """Collapsed two-frame stacks, one ``caller;callee µs`` per line.

        Per-caller own-time comes straight from the exact ``callers``
        tuples pstats keeps (``callers[caller] = (cc, nc, tt, ct)`` —
        ``tt`` is the callee's tottime attributable to that caller), so
        the flame widths are measured, not estimated.
        """
        lines = []
        for func, (cc, nc, tt, ct, callers) in sorted(
                self.stats.stats.items()):
            callee = _func_name(func)
            if not callers:
                us = int(round(tt * 1e6))
                if us:
                    lines.append(f"{callee} {us}")
                continue
            for caller, (_cc, _nc, caller_tt, _ct) in sorted(
                    callers.items()):
                us = int(round(caller_tt * 1e6))
                if us:
                    lines.append(f"{_func_name(caller)};{callee} {us}")
        return "\n".join(lines) + "\n" if lines else ""

    def format_top(self) -> str:
        """Human-readable top-N table (``repro run --profile`` output)."""
        if not self.top:
            return "profile: no calls recorded\n"
        width = max(len(e["func"]) for e in self.top)
        lines = [f"{'function':<{width}} {'ncalls':>9} {'tottime':>9} "
                 f"{'cumtime':>9}"]
        for e in self.top:
            lines.append(f"{e['func']:<{width}} {e['ncalls']:>9} "
                         f"{e['tottime']:>9.4f} {e['cumtime']:>9.4f}")
        return "\n".join(lines) + "\n"
