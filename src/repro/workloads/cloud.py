"""Cloud workload family: open-loop, latency-critical request streams.

The SPEC-style synthetic applications in :mod:`repro.workloads.synthetic`
are *closed-loop*: the next memory reference is issued only after the
program makes progress, so a congested memory system throttles its own
offered load.  Datacenter services are the opposite — requests arrive
from the outside world on their own clock (open loop), keep arriving
while the memory system is backed up, and each one carries an SLO
deadline ("Memory Controller Design Under Cloud Workloads",
arXiv:1611.10316).  This module models that regime on top of the
existing trace-driven cores:

* a :class:`ServiceProfile` describes one latency-critical service — its
  arrival process, mean inter-arrival time and SLO deadline (cycles);
* :class:`CloudStream` turns a profile into a :class:`~repro.cpu.trace
  .TraceSource`: each request is one demand read of a *fresh* line from
  a huge private region (guaranteed L1/L2 miss → one DRAM request), and
  the inter-arrival time Δ is encoded as ``Δ·issue_width − 1`` plain
  instructions of gap, so an unstalled core issues requests exactly Δ
  cycles apart while the arrival clock keeps running at full fetch rate;
* a :class:`CloudMix` co-schedules service cores (uppercase codes)
  against the existing batch/analytics applications (lowercase codes).

Arrival processes (all exact-integer, all driven by labelled
:class:`~repro.util.rng.RngStream` draws — no wall clock anywhere):

``poisson``
    the discrete Poisson process: i.i.d. geometric inter-arrival gaps
    with mean ``mean_gap`` cycles (geometric is the discrete-time
    exponential, so counts per window are binomially ≈ Poisson);
``bursty``
    a two-state Markov-modulated process (calm/burst): gaps are
    geometric with mean ``calm_gap`` or ``burst_gap`` and the state
    dwells for a geometric number of *requests* with mean ``dwell``;
``diurnal``
    a Poisson process whose mean gap is scaled by a repeating integer
    load curve stepped by *arrival* time — the classic day/night load
    shape compressed to simulation scale.

Open-loop fidelity note: the cloud machine configuration
(:func:`cloud_system_config`) is a datacenter-class part — a deeper ROB
and shared resources (L2 MSHR pool, controller buffer) that *scale with
core count*.  On the paper's desktop part the 64-entry shared L2 MSHR
pool equals exactly two cores' worth of per-core MSHRs, so two streaming
batch cores can pin it for an entire run and a sparse-access service
core starves indefinitely (its measured "tail" becomes the run length —
a simulator artifact, not a queueing effect).  With the pool scaled,
backpressure binds at the DRAM controller, whose stalls are
span-stamped (:meth:`~repro.telemetry.spans.SpanCollector.note_blocked`),
so a request's measured latency *includes* the backlog wait, exactly
like a queueing delay in a real open-loop load generator — and the tail
is decided by the memory scheduler under study, not by an upstream
structural accident.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import SystemConfig
from repro.cpu.trace import MemOp
from repro.util.rng import RngStream
from repro.workloads.spec2000 import AppProfile, app_by_code
from repro.workloads.synthetic import CORE_ADDR_STRIDE, LINE

__all__ = [
    "ARRIVALS",
    "CLOUD_BUFFER_PER_CORE",
    "CLOUD_L2_MSHRS_PER_CORE",
    "CLOUD_MIXES",
    "CLOUD_REGION_LINES",
    "CLOUD_ROB_SIZE",
    "CloudMix",
    "CloudStream",
    "SERVICES",
    "ServiceProfile",
    "cloud_mix_by_name",
    "cloud_system_config",
    "is_cloud_codes",
    "make_cloud_trace",
    "service_by_code",
]

#: recognised arrival processes
ARRIVALS = ("poisson", "bursty", "diurnal")

#: request lines are drawn uniformly from this many lines (1 GiB) — far
#: beyond any cache, so every request is a compulsory DRAM read
CLOUD_REGION_LINES = 1 << 24

#: line-number base of the request region inside a core's address space
#: (disjoint from the synthetic apps' hot/stream/chase regions)
_CLOUD_BASE_LINE = 5 << 30

#: reorder-buffer size of the cloud machine: deep enough that arrival
#: generation is rarely throttled by a full ROB (whose stall would be
#: invisible to request spans); saturation then binds at the span-stamped
#: MSHR / controller-buffer resources instead
CLOUD_ROB_SIZE = 512

#: shared L2 MSHRs per core on the cloud machine (the desktop part's 64
#: total equals just two cores' worth of per-core MSHRs — see the module
#: docstring for the starvation pathology that causes)
CLOUD_L2_MSHRS_PER_CORE = 32

#: controller buffer entries per core on the cloud machine (floored at
#: the desktop part's 64 so small mixes keep the paper's queue depth)
CLOUD_BUFFER_PER_CORE = 16


@dataclass(frozen=True)
class ServiceProfile:
    """One latency-critical service: arrival process + SLO deadline.

    ``code`` is a single UPPERCASE letter — a namespace deliberately
    disjoint from the lowercase batch-application codes of Table 2, so a
    mix's code string spells out its open/closed-loop composition.
    """

    code: str
    name: str
    arrival: str  # "poisson" | "bursty" | "diurnal"
    mean_gap: int  # mean inter-arrival gap, cycles (poisson / diurnal base)
    slo: int  # SLO deadline, cycles (violated when latency > slo)
    calm_gap: int = 0  # bursty only: mean gap in the calm state
    burst_gap: int = 0  # bursty only: mean gap in the burst state
    dwell: int = 0  # bursty only: mean requests per state dwell
    curve: tuple[int, ...] = ()  # diurnal only: gap multipliers
    curve_step: int = 0  # diurnal only: cycles per curve bucket
    me_value: float = 1.0  # pinned ME rank for ME-family policies

    def validate(self) -> None:
        if len(self.code) != 1 or not self.code.isupper():
            raise ValueError(f"service code must be one uppercase letter: {self.code!r}")
        if self.arrival not in ARRIVALS:
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        if self.slo < 1:
            raise ValueError("slo must be >= 1 cycle")
        if self.arrival in ("poisson", "diurnal") and self.mean_gap < 1:
            raise ValueError("mean_gap must be >= 1 cycle")
        if self.arrival == "bursty":
            if self.calm_gap < 1 or self.burst_gap < 1 or self.dwell < 1:
                raise ValueError("bursty needs calm_gap/burst_gap/dwell >= 1")
            if self.burst_gap > self.calm_gap:
                raise ValueError("burst_gap must not exceed calm_gap")
        if self.arrival == "diurnal":
            if not self.curve or self.curve_step < 1:
                raise ValueError("diurnal needs a curve and curve_step >= 1")
            if any(m < 1 for m in self.curve):
                raise ValueError("curve multipliers must be >= 1")


#: the service catalogue (rates and SLOs calibrated against the DDR2
#: timing model: an uncontended read is ~150–160 cycles end to end, and
#: under the calibrated co-runs the 2-core mixes meet their SLOs, the
#: 4-core mixes show moderate policy-sensitive violation rates, and the
#: 8-core mix collapses — three distinct operating regimes)
SERVICES: tuple[ServiceProfile, ...] = (
    ServiceProfile(
        code="S", name="search", arrival="poisson", mean_gap=48, slo=800,
    ),
    ServiceProfile(
        code="K", name="kvstore", arrival="poisson", mean_gap=24, slo=650,
    ),
    ServiceProfile(
        code="B", name="burst-rpc", arrival="bursty", mean_gap=0, slo=700,
        calm_gap=64, burst_gap=6, dwell=32,
    ),
    ServiceProfile(
        code="D", name="diurnal-feed", arrival="diurnal", mean_gap=32, slo=900,
        curve=(4, 2, 1, 1, 2, 3), curve_step=2048,
    ),
)

_SERVICE_BY_CODE = {s.code: s for s in SERVICES}


def service_by_code(code: str) -> ServiceProfile:
    """Look up one service profile by its uppercase code letter."""
    try:
        return _SERVICE_BY_CODE[code]
    except KeyError:
        raise KeyError(
            f"unknown service code {code!r}; available: "
            + "".join(sorted(_SERVICE_BY_CODE))
        ) from None


def is_cloud_codes(codes: str) -> bool:
    """True when a code string contains at least one (uppercase) service."""
    return any(c.isupper() for c in codes)


# -- arrival processes -------------------------------------------------------------


def arrival_gaps(profile: ServiceProfile, rng: RngStream):
    """Infinite iterator of integer inter-arrival gaps Δ >= 1 (cycles).

    Every draw comes from ``rng`` in a fixed order, so the gap trace is a
    pure function of the stream's labels — identical across runs and
    processes.
    """
    if profile.arrival == "poisson":
        p = 1.0 / profile.mean_gap
        while True:
            yield rng.geometric(p)
    elif profile.arrival == "bursty":
        p_state = 1.0 / profile.dwell
        p_calm = 1.0 / profile.calm_gap
        p_burst = 1.0 / profile.burst_gap
        calm = True
        while True:
            remaining = rng.geometric(p_state)  # requests until state flip
            p_gap = p_calm if calm else p_burst
            for _ in range(remaining):
                yield rng.geometric(p_gap)
            calm = not calm
    elif profile.arrival == "diurnal":
        t = 0  # cumulative arrival time, cycles
        curve = profile.curve
        step = profile.curve_step
        while True:
            m = curve[(t // step) % len(curve)]
            gap = rng.geometric(1.0 / (profile.mean_gap * m))
            t += gap
            yield gap
    else:  # pragma: no cover - validate() rejects this earlier
        raise ValueError(f"unknown arrival process {profile.arrival!r}")


# -- the open-loop trace source ---------------------------------------------------


class CloudStream:
    """Open-loop request stream as a :class:`~repro.cpu.trace.TraceSource`.

    Each :meth:`next_op` emits one demand read of a uniformly random
    fresh line, preceded by ``Δ·issue_width − 1`` plain instructions —
    the gap encoding that makes an unstalled ``issue_width``-wide core
    issue requests exactly Δ cycles apart.  Loads never block fetch in
    the core model (they block *commit*), so the arrival clock keeps
    ticking while earlier requests queue — the open-loop property.
    """

    __slots__ = (
        "profile",
        "base_addr",
        "issue_width",
        "requests_emitted",
        "_gaps",
        "_addr_rng",
    )

    def __init__(
        self,
        profile: ServiceProfile,
        rng: RngStream,
        base_addr: int = 0,
        issue_width: int = 4,
    ) -> None:
        profile.validate()
        if issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        self.profile = profile
        self.base_addr = base_addr
        self.issue_width = issue_width
        self.requests_emitted = 0
        self._gaps = arrival_gaps(profile, rng.child("gap"))
        self._addr_rng = rng.child("addr")

    def next_op(self) -> MemOp:
        delta = next(self._gaps)
        line = _CLOUD_BASE_LINE + self._addr_rng.randint(0, CLOUD_REGION_LINES)
        self.requests_emitted += 1
        return MemOp(delta * self.issue_width - 1, self.base_addr + line * LINE, False)


def make_cloud_trace(
    service: ServiceProfile,
    seed: int,
    phase: str = "eval",
    core_id: int = 0,
    issue_width: int = 4,
) -> CloudStream:
    """Build the open-loop stream for one service on one core.

    The RNG labels mirror :func:`repro.workloads.synthetic.make_trace`:
    ``(seed, "cloud", code, phase, core_id)`` — independent per phase and
    per core, stable across processes.
    """
    rng = RngStream(seed, "cloud", service.code, phase, core_id)
    return CloudStream(
        service, rng,
        base_addr=(core_id + 1) * CORE_ADDR_STRIDE,
        issue_width=issue_width,
    )


# -- mixes -------------------------------------------------------------------------


@dataclass(frozen=True)
class CloudMix:
    """A co-run of open-loop services and closed-loop batch applications.

    ``codes[i]`` names what core ``i`` runs: an UPPERCASE service code or
    a lowercase Table 2 application code.
    """

    name: str
    codes: str

    @property
    def num_cores(self) -> int:
        return len(self.codes)

    @property
    def group(self) -> str:
        return "CLOUD"

    def service_cores(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.codes) if c.isupper())

    def batch_cores(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.codes) if not c.isupper())

    def services(self) -> list[ServiceProfile]:
        """Service profiles in service-core order."""
        return [service_by_code(self.codes[i]) for i in self.service_cores()]

    def batch_apps(self) -> list[AppProfile]:
        """Batch application profiles in batch-core order."""
        return [app_by_code(self.codes[i]) for i in self.batch_cores()]

    def app_at(self, core_id: int) -> AppProfile:
        """The batch application profile running on one (batch) core."""
        return app_by_code(self.codes[core_id])

    def validate(self) -> None:
        if not self.codes:
            raise ValueError("cloud mix needs at least one core")
        if not self.service_cores():
            raise ValueError(f"cloud mix {self.name} has no service core")
        for c in self.codes:
            if c.isupper():
                service_by_code(c)
            else:
                app_by_code(c)


#: the named cloud mixes: every arrival model appears, co-run against
#: Table 2 batch applications at 2/4/8 cores
CLOUD_MIXES: tuple[CloudMix, ...] = (
    CloudMix(name="2CLD-1", codes="Kb"),
    CloudMix(name="2CLD-2", codes="Bc"),
    CloudMix(name="4CLD-1", codes="SKhz"),
    CloudMix(name="4CLD-2", codes="BDdz"),
    CloudMix(name="8CLD-1", codes="SKBDhzbc"),
)

_CLOUD_BY_NAME = {m.name.upper(): m for m in CLOUD_MIXES}


def cloud_mix_by_name(name: str) -> CloudMix:
    """Look up a named cloud mix (case-insensitive)."""
    try:
        return _CLOUD_BY_NAME[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown cloud mix {name!r}; available: "
            + ", ".join(m.name for m in CLOUD_MIXES)
        ) from None


# -- machine configuration ---------------------------------------------------------


def cloud_system_config(base: SystemConfig, num_cores: int) -> SystemConfig:
    """The cloud machine: ``base`` sized to the mix, datacenter-class.

    Three deltas against the paper's desktop part, all scaling with the
    mix so contention lands on the scheduler rather than on upstream
    structural limits (see the module docstring):

    * ROB deepened to :data:`CLOUD_ROB_SIZE` (open-loop fidelity);
    * shared L2 MSHR pool scaled to
      :data:`CLOUD_L2_MSHRS_PER_CORE` ``× num_cores`` — the desktop 64
      equals two streaming cores' demand and starves sparse cores;
    * controller buffer scaled to
      :data:`CLOUD_BUFFER_PER_CORE` ``× num_cores``, floored at the
      desktop 64 — identical up to 4 cores, deeper at 8.

    DRAM timing and cache geometry are inherited from ``base``, so batch
    cores behave comparably to the closed-loop experiments.  The deltas
    change the config digest — cloud cells never collide with eval cells
    in the result cache.
    """
    cfg = base.with_cores(num_cores)
    return replace(
        cfg,
        core=replace(cfg.core, rob_size=CLOUD_ROB_SIZE),
        caches=replace(
            cfg.caches,
            l2=replace(cfg.caches.l2, mshrs=CLOUD_L2_MSHRS_PER_CORE * num_cores),
        ),
        controller=replace(
            cfg.controller,
            buffer_entries=max(
                base.controller.buffer_entries, CLOUD_BUFFER_PER_CORE * num_cores
            ),
        ),
    )
