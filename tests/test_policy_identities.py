"""Exact identities between policies: oracles that judge the rules, not
a snapshot of them.

Three pairs of policies must simulate the same run, bit for bit:

* ME-LREQ with every core's ME equal ranks by pending reads alone, so it
  is LREQ (Figure 1's table read against the pending-count input);
* ME with strictly decreasing ME values is the fixed order with core 0
  highest, FIX-0123… (a per-core priority input against FIX's levels);
* BLISS with a blacklist threshold no streak reaches never blacklists,
  so its precedence (row hit, then age, arXiv:1504.00390) is HF-RF's
  (a Python policy against a kernel rule).

Each is checked on 4MEM-1, 4MIX-2 and 8MEM-1 at budget 4 000, seed 3:
the end cycle, the row-hit rate, and per core the committed
instructions, finish cycle, reads and average read latency.
"""

from __future__ import annotations

import pytest

from repro import run_multicore, workload_by_name
from repro.core.registry import make_policy

MIXES = ("4MEM-1", "4MIX-2", "8MEM-1")
BUDGET = 4_000
SEED = 3


def _pair(identity: str, n: int):
    if identity == "ME-LREQ(equal ME) = LREQ":
        return (make_policy("ME-LREQ", me_values=[1.0] * n),
                make_policy("LREQ"))
    if identity == "ME(decreasing ME) = FIX-0123":
        return (make_policy("ME", me_values=[float(n - i) for i in range(n)]),
                make_policy("FIX-" + "".join(str(c) for c in range(n))))
    return (make_policy("BLISS", blacklist_threshold=10 ** 9),
            make_policy("HF-RF"))


def _fingerprint(mix, policy) -> tuple:
    r = run_multicore(mix, policy, inst_budget=BUDGET, seed=SEED)
    return (r.end_cycle, r.row_hit_rate.hex(),
            [(c.committed, c.finish_cycle, c.reads, c.avg_read_latency.hex())
             for c in r.per_core])


@pytest.mark.parametrize("mix_name", MIXES)
@pytest.mark.parametrize("identity", ["ME-LREQ(equal ME) = LREQ",
                                      "ME(decreasing ME) = FIX-0123",
                                      "BLISS(unreachable) = HF-RF"])
def test_identity_holds(identity, mix_name):
    mix = workload_by_name(mix_name)
    left, right = _pair(identity, mix.num_cores)
    a = _fingerprint(mix, left)
    assert a == _fingerprint(mix, right)
    assert sum(c[2] for c in a[2]) > 100  # the runs reach memory
