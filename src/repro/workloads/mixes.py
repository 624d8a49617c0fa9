"""The paper's Table 3 workload mixes, transcribed verbatim.

Each mix names the applications (by Table 2 code) assigned to cores
0..n-1 in order.  Two transcription caveats, preserved as-published:

* duplicates occur in the 8-core mixes (e.g. ``8MEM-2 = npqvbdfv`` runs
  ``gap`` twice) — each instance gets its own core, address space and
  trace stream;
* ``8MEM-6`` (``bygicipa``) contains the ILP codes ``y`` and ``a`` in the
  source text; we keep the published string (the scan may be imperfect)
  and note it in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.spec2000 import AppProfile, app_by_code

__all__ = ["Mix", "WORKLOAD_MIXES", "mixes_for", "workload_by_name"]


@dataclass(frozen=True)
class Mix:
    """One multiprogrammed workload."""

    name: str  # e.g. "4MEM-1"
    codes: str  # application codes, one per core, e.g. "bcde"

    @property
    def num_cores(self) -> int:
        return len(self.codes)

    @property
    def group(self) -> str:
        """'MEM' or 'MIX'."""
        return "MEM" if "MEM" in self.name else "MIX"

    def apps(self) -> tuple[AppProfile, ...]:
        """The application profiles, in core order."""
        return tuple(app_by_code(c) for c in self.codes)

    def validate(self) -> None:
        for c in self.codes:
            app_by_code(c)  # raises on bad codes


def _table3() -> tuple[Mix, ...]:
    data = {
        # 2-core
        "2MEM-1": "bc", "2MEM-2": "de", "2MEM-3": "fj",
        "2MEM-4": "kl", "2MEM-5": "np", "2MEM-6": "qv",
        "2MIX-1": "ab", "2MIX-2": "cr", "2MIX-3": "hd",
        "2MIX-4": "ez", "2MIX-5": "mf", "2MIX-6": "oj",
        # 4-core
        "4MEM-1": "bcde", "4MEM-2": "fgij", "4MEM-3": "npqv",
        "4MEM-4": "bdkl", "4MEM-5": "qvce", "4MEM-6": "cjkq",
        "4MIX-1": "arbc", "4MIX-2": "hzde", "4MIX-3": "mofj",
        "4MIX-4": "stkl", "4MIX-5": "uxnp", "4MIX-6": "ywqv",
        # 8-core
        "8MEM-1": "bcdefjkl", "8MEM-2": "npqvbdfv", "8MEM-3": "gicecjkq",
        "8MEM-4": "bcdenpqv", "8MEM-5": "qvcefjkl", "8MEM-6": "bygicipa",
        "8MIX-1": "arhzbcde", "8MIX-2": "mostfjkl", "8MIX-3": "uxywnpqv",
        "8MIX-4": "armobcfj", "8MIX-5": "uxhznpde", "8MIX-6": "stywayfk",
    }
    return tuple(Mix(name, codes) for name, codes in data.items())


#: Table 3 in full.
WORKLOAD_MIXES: tuple[Mix, ...] = _table3()

_BY_NAME = {m.name: m for m in WORKLOAD_MIXES}


def workload_by_name(name: str) -> Mix:
    """Fetch one mix, e.g. ``workload_by_name('4MEM-1')``."""
    try:
        return _BY_NAME[name.upper()]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}") from None


def mixes_for(num_cores: int, group: str | None = None) -> tuple[Mix, ...]:
    """All Table 3 mixes with ``num_cores`` cores, optionally one group.

    Raises ``ValueError`` for a core count no mix has, or an unknown group.

    >>> [m.name for m in mixes_for(4, "MEM")][:2]
    ['4MEM-1', '4MEM-2']
    """
    out = [m for m in WORKLOAD_MIXES if m.num_cores == num_cores]
    if not out:
        counts = sorted({m.num_cores for m in WORKLOAD_MIXES})
        raise ValueError(
            f"no Table 3 mix has {num_cores} cores "
            f"(supported: {', '.join(map(str, counts))})"
        )
    if group is not None:
        g = group.upper()
        if g not in ("MEM", "MIX"):
            raise ValueError("group must be 'MEM' or 'MIX'")
        out = [m for m in out if m.group == g]
    return tuple(out)
