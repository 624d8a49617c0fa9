"""Scheduling-decision logging and analysis.

A policy's aggregate effect (Figure 2's speedups) often needs explaining
at the level of individual decisions: who won each burst slot, was it a
row hit, how many candidates were passed over, what were the pending
counts.  :class:`DecisionLog` wraps a controller's policy to capture
exactly that, with summaries for service share, hit-chain structure and
win-by-priority-vs-age attribution.

Attach before running::

    log = DecisionLog.attach(system.controller)
    system.run()
    print(log.summary(num_cores=4))

When a :class:`~repro.telemetry.hub.Telemetry` hub is supplied, every
decision is additionally published on the hub's event bus (one
``"decision"`` instant per burst slot, on the winning channel's track),
so decisions land in the same exported trace as drain windows and the
sampled series.  Passing ``telemetry=`` changes where records *also* go,
never what this class's own API returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry

__all__ = ["Decision", "DecisionLog"]


@dataclass(frozen=True)
class Decision:
    """One committed scheduling decision."""

    cycle: int
    channel: int
    core_id: int
    is_write: bool
    row_hit: bool
    num_candidates: int
    #: per-core pending read counts at decision time
    pending_reads: tuple[int, ...]
    #: True when an older request of another core was passed over
    overtook_older: bool


class DecisionLog:
    """Captures every policy selection made by one controller."""

    def __init__(self) -> None:
        self.decisions: list[Decision] = []

    # -- attachment -----------------------------------------------------------

    @classmethod
    def attach(
        cls,
        controller,
        telemetry: "Telemetry | None" = None,
    ) -> "DecisionLog":
        """Wrap ``controller``'s policy so selections are recorded (the
        scheduling point calls instance wrappers at every decision).

        With ``telemetry`` given, each decision is also emitted on the
        shared telemetry bus as a ``"decision"`` instant event on the
        ``ch{decision.channel}`` track.
        """
        log = cls()
        policy = controller.policy
        orig_read = policy.select_read
        orig_write = policy.select_write
        bus = telemetry.bus if telemetry is not None else None

        def wrap(orig, is_write):
            def select(candidates, ctx):
                chosen = orig(candidates, ctx)
                # Reordering is judged against the whole same-kind queue of
                # this channel, not just the candidates the policy saw —
                # the controller's hit-first/bank-ready filters themselves
                # reorder, and that belongs in the metric.
                queue = ctx.queues.writes if is_write else ctx.queues.reads
                overtook = any(
                    r.seq < chosen.seq
                    and r.coord.channel == ctx.channel
                    and r.arrival_cycle <= ctx.now
                    for r in queue
                )
                d = Decision(
                    cycle=ctx.now,
                    channel=ctx.channel,
                    core_id=chosen.core_id,
                    is_write=is_write,
                    row_hit=ctx.is_row_hit(chosen),
                    num_candidates=len(candidates),
                    pending_reads=tuple(ctx.queues.pending_reads),
                    overtook_older=overtook,
                )
                log.decisions.append(d)
                if bus is not None:
                    bus.emit(
                        "decision",
                        "instant",
                        d.cycle,
                        f"ch{d.channel}",
                        core=d.core_id,
                        write=d.is_write,
                        hit=d.row_hit,
                        candidates=d.num_candidates,
                        overtook=d.overtook_older,
                    )
                return chosen

            return select

        policy.select_read = wrap(orig_read, False)
        policy.select_write = wrap(orig_write, True)
        return log

    @staticmethod
    def detach(controller) -> None:
        """Undo :meth:`attach`: ``controller``'s policy selects through its
        own methods again, unrecorded, and holds no log."""
        for name in ("select_read", "select_write"):
            vars(controller.policy).pop(name, None)

    # -- analyses ---------------------------------------------------------------

    def service_share(self, num_cores: int) -> tuple[float, ...]:
        """Fraction of decisions won by each core."""
        if not self.decisions:
            return tuple(0.0 for _ in range(num_cores))
        counts = [0] * num_cores
        for d in self.decisions:
            counts[d.core_id] += 1
        total = len(self.decisions)
        return tuple(c / total for c in counts)

    def reorder_rate(self) -> float:
        """Fraction of decisions that passed over an older request — how
        far the policy departs from FCFS."""
        if not self.decisions:
            return 0.0
        return sum(d.overtook_older for d in self.decisions) / len(self.decisions)

    def hit_rate(self) -> float:
        """Row-hit fraction among logged decisions."""
        if not self.decisions:
            return 0.0
        return sum(d.row_hit for d in self.decisions) / len(self.decisions)

    def mean_run_length(self) -> float:
        """Average length of consecutive same-core service runs per
        channel — the 'serve one core continuously' structure the paper's
        Section 1 discusses."""
        runs = 0
        total = 0
        last_core: dict[int, int] = {}
        for d in self.decisions:
            if last_core.get(d.channel) != d.core_id:
                runs += 1
                last_core[d.channel] = d.core_id
            total += 1
        return total / runs if runs else 0.0

    def summary(self, num_cores: int) -> str:
        """One-screen text summary."""
        share = self.service_share(num_cores)
        lines = [
            f"decisions logged: {len(self.decisions)}",
            f"reorder rate (vs FCFS): {self.reorder_rate():.1%}",
            f"row-hit decisions:      {self.hit_rate():.1%}",
            f"mean same-core run:     {self.mean_run_length():.2f}",
            "service share: "
            + " ".join(f"core{i}={s:.1%}" for i, s in enumerate(share)),
        ]
        return "\n".join(lines)
