"""FCFS and Read-First FCFS (Section 2, 'FCFS and Read-First').

Plain FCFS serves requests strictly in arrival order with no awareness of
row buffers or cores.  Read-First FCFS adds the standard refinement of
letting reads bypass writes — in this simulator the read/write split is
performed by the controller (reads normally, writes in drain mode), so both
classes differ only in how the *controller* is configured to treat writes;
``FcfsPolicy`` additionally disables the hit-first write ordering to stay
truly arrival-ordered.

These schemes are context for the evaluation; the paper's baseline is
HF-RF (:mod:`repro.core.hit_first`).
"""

from __future__ import annotations

from repro.core.policy import SchedulingPolicy
from repro.core.registry import register_policy

__all__ = ["FcfsPolicy", "ReadFirstFcfsPolicy"]


@register_policy("FCFS")
class FcfsPolicy(SchedulingPolicy):
    """Strict arrival order, for reads and writes alike."""

    hit_first_global = False  # predates hit-first: pure arrival order
    read_rule = "oldest"
    write_rule = "oldest"  # no hit-first refinement: pure arrival order


@register_policy("RF")
class ReadFirstFcfsPolicy(SchedulingPolicy):
    """Arrival order among reads; writes drain hit-first (controller default).

    The read-bypass-write behaviour itself is the controller's read/write
    sequencing, shared by every policy here.
    """

    hit_first_global = False  # arrival order among reads, by definition
    read_rule = "oldest"
