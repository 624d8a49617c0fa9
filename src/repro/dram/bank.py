"""Per-bank view of a channel's bank state.

Bank state lives in :class:`repro.dram.channel.Channel`'s parallel arrays
(``ready``, ``open_row`` and the lifetime counters), which the controller
reads and writes directly at every scheduling point.  Post-run consumers
(``repro.metrics.analysis``, tests, debugging) iterate ``channel.banks``
instead and get one :class:`Bank` snapshot per bank.

Row-hit detection against this state is what the Hit-First component of
every scheduling policy in the paper consults.
"""

from __future__ import annotations

__all__ = ["Bank"]


class Bank:
    """Read-only snapshot of one DRAM bank.

    Attributes
    ----------
    open_row:
        Row currently latched in the row buffer, or ``None`` when precharged
        (precharge time is folded into ``ready_cycle``).
    ready_cycle:
        Earliest cycle a new command (ACT for a closed bank, CAS for the
        open row) may start at this bank.
    activations / row_hits / conflicts:
        Lifetime counters for statistics, ablations and telemetry
        (``conflicts`` counts accesses that found a *different* row open
        and had to precharge first — only possible under the open-page
        ablation or while a keep-open decision is pending).

    Mutating a snapshot does not write back to the channel.
    """

    __slots__ = ("index", "open_row", "ready_cycle", "activations", "row_hits", "conflicts")

    def __init__(self, index, open_row, ready_cycle, activations, row_hits, conflicts):
        self.index = index
        self.open_row = open_row
        self.ready_cycle = ready_cycle
        self.activations = activations
        self.row_hits = row_hits
        self.conflicts = conflicts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bank({self.index}, open_row={self.open_row}, ready={self.ready_cycle})"
