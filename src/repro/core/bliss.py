"""BLISS: the Blacklisting Memory Scheduler (arXiv:1504.00390).

Subramanian et al. observe that the application-*ranking* schedulers
(ATLAS, TCM — and in this repo's lineage ME/ME-LREQ) pay for their gains
with a full ordering over cores: N-deep comparator trees on the critical
path and per-core ranking state.  BLISS replaces the full ranking with a
single bit per core — *blacklisted or not* — driven by one observation:
an application that is interference-prone reveals itself right at the
controller, by getting long consecutive runs of its own requests served
(Section 3, "Key Observation 1").

Mechanism (Section 4 of the paper, state in Figure 4 there):

* the controller remembers the last core served and a counter of how many
  of its requests were served back-to-back;
* when the streak reaches ``blacklist_threshold`` (paper value: 4), that
  core is *blacklisted*;
* scheduling priority is ``non-blacklisted first > row-hit first >
  oldest first`` — blacklisted cores are deprioritised as a group, never
  individually ranked;
* every ``clearing_interval`` cycles (paper value: 10000) all blacklist
  bits are cleared, bounding how long any core stays deprioritised
  (this is also what gives BLISS its starvation freedom).

Because the *blacklist* test outranks the row-hit test, this policy opts
out of the controller's global hit-first prefilter
(``hit_first_global = False``, like FCFS/RF) and applies hit-first
*within* the surviving pool itself — mirroring the paper's priority
order exactly.  Selection is fully deterministic (oldest within the
pool), so BLISS draws nothing from the shared tie-break RNG stream.

Hardware cost (the paper's headline): one blacklist bit and nothing
else per core, plus one streak counter, one last-core register and the
interval countdown globally — versus ME-LREQ's 640-bit-per-core table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.complexity import HardwareCost, log2_bits
from repro.core.policy import SchedulingContext, SchedulingPolicy, hit_first_oldest
from repro.core.registry import register_policy
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.request import MemoryRequest

__all__ = ["BlissPolicy"]


@register_policy("BLISS")
class BlissPolicy(SchedulingPolicy):
    """Blacklist cores with long served-request streaks; serve the rest first.

    Parameters
    ----------
    blacklist_threshold:
        Consecutive served requests from one core that trigger its
        blacklisting (the paper's ``Blacklisting Threshold``; default 4).
    clearing_interval:
        Cycles between blacklist wipes (the paper's ``Clearing Interval``;
        default 10000).
    """

    #: BLISS's own precedence is blacklist > row-hit > age, so the global
    #: hit-first prefilter must not run above it.
    hit_first_global = False

    def __init__(
        self, blacklist_threshold: int = 4, clearing_interval: int = 10_000
    ) -> None:
        super().__init__()
        if blacklist_threshold < 1:
            raise ValueError("blacklist_threshold must be >= 1")
        if clearing_interval < 1:
            raise ValueError("clearing_interval must be >= 1")
        self.blacklist_threshold = blacklist_threshold
        self.clearing_interval = clearing_interval
        self._blacklisted: list[bool] = []
        self._last_core = -1
        self._streak = 0
        self._next_clear = clearing_interval
        #: number of blacklist wipes performed (tests/diagnostics)
        self.clearings = 0

    def setup(self, num_cores: int, rng: RngStream) -> None:
        super().setup(num_cores, rng)
        self._blacklisted = [False] * num_cores
        self._last_core = -1
        self._streak = 0
        self._next_clear = self.clearing_interval
        self.clearings = 0

    def reset(self) -> None:
        self._blacklisted = [False] * max(self.num_cores, 1)
        self._last_core = -1
        self._streak = 0
        self._next_clear = self.clearing_interval
        self.clearings = 0

    def is_blacklisted(self, core_id: int) -> bool:
        """Expose a core's blacklist bit (tests/diagnostics)."""
        return self._blacklisted[core_id]

    def _maybe_clear(self, now: int) -> None:
        # Clearing happens on a fixed cycle grid so the policy's state
        # depends only on `now`, never on how often scheduling points fire.
        if now < self._next_clear:
            return
        self._blacklisted = [False] * self.num_cores
        self._streak = 0
        self._last_core = -1
        self.clearings += 1
        periods = (now - self._next_clear) // self.clearing_interval + 1
        self._next_clear += periods * self.clearing_interval

    def select_read(
        self, candidates: Sequence[MemoryRequest], ctx: SchedulingContext
    ) -> MemoryRequest:
        self._maybe_clear(ctx.now)
        pool = [r for r in candidates if not self._blacklisted[r.core_id]]
        if not pool:
            # Everyone present is blacklisted: the distinction carries no
            # information, fall through to plain hit-first/oldest.
            pool = list(candidates)
        chosen = hit_first_oldest(pool, ctx)
        # Track the served-streak of the winning core and blacklist on
        # threshold (Section 4: the counter resets whenever the controller
        # switches cores, and after triggering a blacklist).
        if chosen.core_id == self._last_core:
            self._streak += 1
        else:
            self._last_core = chosen.core_id
            self._streak = 1
        if self._streak >= self.blacklist_threshold:
            self._blacklisted[chosen.core_id] = True
            self._streak = 0
            self._last_core = -1
        return chosen

    @classmethod
    def describe_hardware(cls, num_cores: int) -> HardwareCost:
        # Figure 4 of the paper: 1 blacklist bit per core; globally a
        # last-core id, a streak counter sized by the threshold (paper
        # default 4 -> 3 bits) and the clearing-interval countdown
        # (10000 cycles -> 14 bits).
        return HardwareCost(
            per_core_bits=1,
            global_bits=log2_bits(num_cores) + 3 + 14,
            notes="1 blacklist bit/core; global streak counter, "
            "last-core id, interval countdown",
        )
