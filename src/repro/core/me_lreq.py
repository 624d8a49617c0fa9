"""ME-LREQ — the paper's proposed scheme (Section 3.2) — plus an online
variant (the paper's stated future work).

ME-LREQ ranks cores by ``Priority[i] = ME[i] / PendingRead[i]`` (Eq. 2):
high profiled memory efficiency (long-term gain — this core turns memory
bandwidth into many committed instructions) combined with few pending reads
(short-term gain — serving it unblocks a starved core) wins.  Reads and row
hits retain their usual precedence, and the priority is evaluated through
the quantised hardware table of Figure 1, not an ideal divider.

``OnlineMeLreqPolicy`` replaces the offline profile with a windowed runtime
estimate of each core's IPC/BW, rebuilding its table at the end of every
window — a model of the 'reasonable on-line scheme [that] can detect the
changes of running phases' sketched in Section 3.1.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from repro.core.complexity import HardwareCost
from repro.core.policy import SchedulingPolicy
from repro.core.priority_table import PriorityTable
from repro.core.registry import register_policy
from repro.util.rng import RngStream
from repro.util.units import gbps

__all__ = ["MeLreqPolicy", "OnlineMeLreqPolicy"]


@register_policy("ME-LREQ")
class MeLreqPolicy(SchedulingPolicy):
    """Memory-Efficiency + Least-Request scheduling through the Fig. 1 table.

    Parameters
    ----------
    me_values:
        Profiled memory efficiency per core (Eq. 1).
    table_bits / max_pending:
        Hardware-table geometry; defaults are the paper's 10 bits x 64
        entries.  ``table_bits=None`` selects an ideal (unquantised)
        implementation, used by the quantisation ablation.

    The kernel's ranked rule reads the table's codes in place
    (``rank_kind="table"``, a row of ``max_pending`` per core, the last
    entry repeated past it), or with ``table_bits=None`` divides the ME
    values by the pending count (``rank_kind="divide"``).
    """

    reads_me = True
    read_rule = "ranked"

    def __init__(
        self,
        me_values: Sequence[float],
        table_bits: int | None = 10,
        max_pending: int = 64,
        table_encoding: str = "log",
    ) -> None:
        super().__init__()
        if not me_values:
            raise ValueError("me_values must be non-empty")
        self.me_values = tuple(float(v) for v in me_values)
        self.table_bits = table_bits
        self.max_pending = max_pending
        self.table_encoding = table_encoding
        self.table: PriorityTable | None = None
        if table_bits is not None:
            self.table = PriorityTable(
                self.me_values,
                max_pending=max_pending,
                bits=table_bits,
                encoding=table_encoding,
            )
            self._rank = self.table.codes
            self._rank_depth = max_pending
        else:
            self.rank_kind = "divide"
            self._rank = array("d", self.me_values)

    def setup(self, num_cores: int, rng: RngStream) -> None:
        super().setup(num_cores, rng)
        if len(self.me_values) != num_cores:
            raise ValueError(
                f"got {len(self.me_values)} ME values for {num_cores} cores"
            )

    @classmethod
    def describe_hardware(cls, num_cores: int) -> HardwareCost:
        # Figure 1 geometry with the default construction: a 64 x 10-bit
        # SRAM row per core, indexed by the 6-bit pending-read counter.
        return HardwareCost(
            priority_table_bits=num_cores * 64 * 10,
            per_core_bits=6,
            notes="64x10b Fig.1 SRAM row/core + pending-read index",
        )


@register_policy("ME-LREQ-ONLINE")
class OnlineMeLreqPolicy(MeLreqPolicy):
    """ME-LREQ with runtime memory-efficiency estimation.

    Every ``window`` cycles the policy recomputes each core's memory
    efficiency from the instructions it committed and the bytes it moved in
    that window (exponentially smoothed with factor ``alpha``), then
    rebuilds its priority table — modelling an OS/firmware loop driven by
    the performance counters the paper says are 'widely available'.

    The simulation system feeds the counters through
    :meth:`observe_window`; until the first window closes the policy falls
    back to equal priorities, i.e. pure LREQ behaviour.
    """

    #: estimates ME at run time; takes no offline profile
    reads_me = False

    def __init__(
        self,
        num_cores_hint: int | None = None,
        window: int = 50_000,
        alpha: float = 0.5,
        table_bits: int | None = 10,
        max_pending: int = 64,
        table_encoding: str = "log",
    ) -> None:
        # Start with flat (equal) ME; real values arrive online.
        n = num_cores_hint or 1
        super().__init__(
            me_values=[1.0] * n,
            table_bits=table_bits,
            max_pending=max_pending,
            table_encoding=table_encoding,
        )
        if window < 1:
            raise ValueError("window must be >= 1 cycle")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.window = window
        self.alpha = alpha

    def setup(self, num_cores: int, rng: RngStream) -> None:
        if len(self.me_values) != num_cores:
            self.me_values = tuple([1.0] * num_cores)
            self._rebuild_table()
        super().setup(num_cores, rng)

    def _rebuild_table(self) -> None:
        """Re-derive the ranked rule's input from ``me_values``, in place."""
        if self.table is not None:
            self.table.load(self.me_values)
        else:
            self._rank[:] = array("d", self.me_values)

    def observe_window(
        self, committed: Sequence[int], bytes_moved: Sequence[int], cycles: int
    ) -> None:
        """Fold one measurement window into the running ME estimates.

        Parameters
        ----------
        committed / bytes_moved:
            Per-core instruction and DRAM-byte counts for the window.
        cycles:
            Window length in cycles.
        """
        if cycles <= 0:
            return
        new = []
        for core, old in enumerate(self.me_values):
            ipc = committed[core] / cycles
            bw = gbps(bytes_moved[core], cycles)
            if bw <= 0:
                # No traffic this window: the core needs nothing from the
                # scheduler; keep its previous estimate.
                new.append(old)
                continue
            sample = ipc / bw
            new.append((1 - self.alpha) * old + self.alpha * sample)
        self.me_values = tuple(new)
        self._rebuild_table()

    def reset(self) -> None:
        self.me_values = tuple([1.0] * max(self.num_cores, 1))
        self._rebuild_table()

    @classmethod
    def describe_hardware(cls, num_cores: int) -> HardwareCost:
        # The offline table plus the window accumulators the on-line loop
        # reads: a 32-bit committed-instruction counter and a 32-bit
        # bytes-moved counter per core.
        return HardwareCost(
            priority_table_bits=num_cores * 64 * 10,
            per_core_bits=6 + 64,
            notes="Fig.1 SRAM + 2x32b window counters/core (online ME)",
        )
