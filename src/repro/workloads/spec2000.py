"""Per-application parameters for the 26 SPEC CPU2000 models (paper Table 2).

Each entry carries the paper's metadata — the single-letter workload code,
the MEM/ILP class, and the published memory-efficiency value — plus the
synthetic-stream knobs we derived from them:

* ``mpki`` (L2 misses per kilo-instruction) is set inversely to the paper's
  ME value (high memory efficiency == few misses per instruction), scaled
  so the memory-intensive codes genuinely stress the 25.6 GB/s of the
  simulated memory system at 4–8 cores;
* ``seq_frac`` reflects the known access character of the benchmark
  (streaming FP codes high, pointer chasers like ``mcf``/``vpr`` low);
* ``burst_mean`` models memory-level parallelism (``art``/``mcf`` famously
  bursty, integer codes mostly serial misses).

The absolute profiled ME values of the reproduction differ from the
paper's (different units/testbed); what is preserved — and what the
experiments depend on — is the class split and the rank order.
EXPERIMENTS.md records measured-vs-paper values.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AppProfile", "APPS", "app_by_code", "app_by_name"]


@dataclass(frozen=True)
class AppProfile:
    """Synthetic model of one SPEC CPU2000 application."""

    name: str
    code: str  # single letter, as in Table 2
    klass: str  # "MEM" or "ILP"
    paper_me: float  # the ME value published in Table 2
    mpki: float  # target L2 misses per kilo-instruction
    seq_frac: float = 0.5  # fraction of misses that stream sequentially
    burst_mean: float = 3.0  # mean misses per burst (MLP proxy)
    #: concurrent array streams (a miss burst round-robins across them)
    n_streams: int = 4
    #: line stride per stream step; 32 lines = 2 KB keeps a stream inside
    #: one (channel, bank), walking consecutive row columns -> row-buffer
    #: locality, the property Hit-First exploits (paper Section 1)
    stride_lines: int = 32
    mem_ratio: float = 0.30  # memory instructions per instruction
    store_frac: float = 0.25  # fraction of memory ops that are stores
    hot_kb: int = 16  # L1-resident working set
    l2_set_kb: int = 48  # L2-resident working set
    l2_frac: float = 0.10  # fraction of ops hitting the L2-resident set

    def validate(self) -> None:
        if self.klass not in ("MEM", "ILP"):
            raise ValueError(f"{self.name}: class must be MEM or ILP")
        if len(self.code) != 1 or not self.code.islower():
            raise ValueError(f"{self.name}: code must be one lowercase letter")
        if not 0 < self.mem_ratio < 1:
            raise ValueError(f"{self.name}: mem_ratio must be in (0,1)")
        if not 0 <= self.seq_frac <= 1:
            raise ValueError(f"{self.name}: seq_frac must be in [0,1]")
        if not 0 <= self.store_frac <= 1:
            raise ValueError(f"{self.name}: store_frac must be in [0,1]")
        if not 0 <= self.l2_frac <= 1:
            raise ValueError(f"{self.name}: l2_frac must be in [0,1]")
        if self.mpki < 0:
            raise ValueError(f"{self.name}: mpki must be >= 0")
        if self.burst_mean < 1:
            raise ValueError(f"{self.name}: burst_mean must be >= 1")
        if self.n_streams < 1:
            raise ValueError(f"{self.name}: n_streams must be >= 1")
        if self.stride_lines < 1:
            raise ValueError(f"{self.name}: stride_lines must be >= 1")
        if self.mpki > self.mem_ratio * 1000:
            raise ValueError(f"{self.name}: more misses than memory ops")


def _m(name, code, me, mpki, seq, burst, **kw) -> AppProfile:
    return AppProfile(
        name=name, code=code, klass="MEM", paper_me=me,
        mpki=mpki, seq_frac=seq, burst_mean=burst, **kw,
    )


def _i(name, code, me, mpki, seq, burst, **kw) -> AppProfile:
    kw.setdefault("l2_set_kb", 64)
    kw.setdefault("l2_frac", 0.15)
    return AppProfile(
        name=name, code=code, klass="ILP", paper_me=me,
        mpki=mpki, seq_frac=seq, burst_mean=burst, **kw,
    )


#: Table 2, in code order a..z.
APPS: tuple[AppProfile, ...] = (
    _i("gzip", "a", 192, 0.28, 0.5, 2.0),
    _m("wupwise", "b", 15, 5.0, 0.90, 2.0),
    _m("swim", "c", 2, 30.0, 0.95, 12.0, store_frac=0.40),
    _m("mgrid", "d", 4, 17.0, 0.90, 6.0),
    _m("applu", "e", 1, 45.0, 0.90, 12.0, store_frac=0.35),
    _m("vpr", "f", 27, 3.3, 0.20, 1.5),
    _m("gcc", "g", 22, 4.0, 0.40, 2.0),
    _i("mesa", "h", 78, 0.60, 0.60, 2.0),
    _m("galgel", "i", 8, 9.5, 0.60, 5.0, l2_frac=0.15),
    _m("art", "j", 20, 4.4, 0.30, 8.0),
    _m("mcf", "k", 1, 50.0, 0.05, 12.0, store_frac=0.10),
    _m("equake", "l", 2, 32.0, 0.50, 9.0),
    _i("crafty", "m", 222, 0.24, 0.30, 1.5, l2_frac=0.25),
    _m("facerec", "n", 40, 2.2, 0.80, 2.0),
    _i("ammp", "o", 280, 0.20, 0.40, 2.0),
    _m("lucas", "p", 1, 48.0, 0.85, 12.0, store_frac=0.30),
    _m("fma3d", "q", 4, 16.0, 0.70, 5.0),
    _i("parser", "r", 38, 1.2, 0.30, 2.0),
    _i("sixtrack", "s", 80, 0.55, 0.60, 2.0),
    _i("eon", "t", 16276, 0.005, 0.50, 1.0),
    _i("perlbmk", "u", 2923, 0.02, 0.40, 1.0),
    _m("gap", "v", 7, 10.0, 0.50, 4.0),
    _i("vortex", "w", 51, 0.90, 0.40, 2.0),
    _i("bzip2", "x", 216, 0.25, 0.60, 2.0),
    _i("twolf", "y", 951, 0.06, 0.20, 1.5),
    _i("apsi", "z", 36, 1.25, 0.60, 2.0),
)

_BY_CODE = {app.code: app for app in APPS}
_BY_NAME = {app.name: app for app in APPS}


def app_by_code(code: str) -> AppProfile:
    """Look up an application by its Table 2 single-letter code.

    >>> app_by_code("c").name
    'swim'
    """
    try:
        return _BY_CODE[code]
    except KeyError:
        raise KeyError(f"unknown application code {code!r}") from None


def app_by_name(name: str) -> AppProfile:
    """Look up an application by benchmark name (e.g. ``'mcf'``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown application {name!r}") from None
