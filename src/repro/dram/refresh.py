"""DRAM refresh modelling (optional extension).

The paper's simulator (like most scheduling studies of its era) ignores
refresh; we provide it as an optional fidelity extension so its impact can
be quantified (about 1–3 % of time at DDR2 rates).  Standard DDR2
auto-refresh: every ``t_refi`` (7.8 µs) the controller must issue a
refresh that occupies all banks of a channel for ``t_rfc`` (~127.5 ns for
1 Gb parts).

Modelled at transaction granularity: a :class:`RefreshScheduler` tracks,
per channel, when the next refresh window falls; the controller asks it to
``advance`` past a cycle and receives the cycle at which the channel is
next usable, while every bank's ready time is pushed past the window and
all rows are closed (refresh implies precharge-all).  Both are written
straight into the channel's bank arrays, which the controller reads at
its next scheduling point.
"""

from __future__ import annotations

from repro.dram.channel import Channel
from repro.util.units import ns_to_cycles

__all__ = ["RefreshScheduler"]

#: average refresh interval, DDR2 (7.8 us)
T_REFI = ns_to_cycles(7_800.0)
#: refresh cycle time for a 1 Gb DDR2 device (127.5 ns)
T_RFC = ns_to_cycles(127.5)


class RefreshScheduler:
    """Per-channel periodic all-bank refresh."""

    __slots__ = ("t_refi", "t_rfc", "_next_refresh", "refreshes_issued")

    def __init__(
        self,
        num_channels: int,
        t_refi: int = T_REFI,
        t_rfc: int = T_RFC,
    ) -> None:
        if t_refi <= t_rfc:
            raise ValueError("t_refi must exceed t_rfc")
        self.t_refi = t_refi
        self.t_rfc = t_rfc
        # Stagger channels so they never refresh simultaneously.
        step = t_refi // max(num_channels, 1)
        self._next_refresh = [t_refi + i * step for i in range(num_channels)]
        self.refreshes_issued = 0

    def next_refresh(self, channel: int) -> int:
        """Cycle the next refresh window opens on ``channel``."""
        return self._next_refresh[channel]

    def advance(self, channel_idx: int, channel: Channel, now: int) -> int:
        """Apply any refresh windows due by ``now``.

        Returns the earliest cycle the channel may start a transaction
        (``now`` itself when no refresh interferes).  Overdue refreshes are
        issued back-to-back, as a real controller would catch up.
        """
        start = now
        ready = channel.ready
        open_row = channel.open_row
        while self._next_refresh[channel_idx] <= start:
            window_start = max(self._next_refresh[channel_idx], max(ready))
            window_end = window_start + self.t_rfc
            for i in range(len(ready)):
                open_row[i] = -1  # refresh precharges every bank
                if ready[i] < window_end:
                    ready[i] = window_end
            self._next_refresh[channel_idx] += self.t_refi
            self.refreshes_issued += 1
            if window_end > start:
                start = window_end
        return start
