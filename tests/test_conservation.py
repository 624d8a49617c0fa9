"""Conservation laws of the core model and the cache hierarchy.

Every demand reference a core makes is counted once: as a load, a store
or a failed attempt (a structural stall), and as an L1 hit or miss.
Every L1 miss reaches the L2 once, and every L2 miss that allocates an
MSHR is one memory request.  The laws hold for any configuration, so
they judge the core model without the golden files: a counter the model
forgets to charge, or charges twice, breaks one of them.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.registry import make_policy
from repro.sim.system import MultiCoreSystem
from repro.workloads import APPS, mixes_for, workload_by_name
from repro.workloads.synthetic import make_trace

#: the golden files' configuration (tests/test_golden_stats.py)
SEED, BUDGET, WARMUP = 7, 2500, 2000

PAPER_POLICIES = ("FCFS", "HF-RF", "RR", "LREQ", "ME", "ME-LREQ")


def run_system(apps, policy: str, budget: int, warmup: int, seed: int,
               me=None) -> MultiCoreSystem:
    cfg = SystemConfig().with_cores(len(apps))
    traces = [make_trace(app, seed, "eval", core_id=i)
              for i, app in enumerate(apps)]
    kwargs = {"me_values": me or [1.0] * len(apps)}
    system = MultiCoreSystem(cfg, make_policy(policy, **kwargs), traces,
                             budget, warmup_insts=warmup, seed=seed)
    system.run()
    return system


def violations(system: MultiCoreSystem) -> list[str]:
    """Every conservation law the finished ``system`` breaks."""
    h = system.hierarchy
    rob = system.config.core.rob_size
    broken = []

    def law(ok: bool, text: str) -> None:
        if not ok:
            broken.append(text)

    for i, core in enumerate(system.cores):
        s, l1, demand = core.stats, h.l1d[i].stats, h.demand_accesses[i]
        law(demand == s.loads + s.stores + s.structural_stalls,
            f"core {i}: demand {demand} != loads {s.loads} + stores "
            f"{s.stores} + structural stalls {s.structural_stalls}")
        law(l1.hits + l1.misses == demand,
            f"core {i}: L1 hits {l1.hits} + misses {l1.misses} != "
            f"demand {demand}")
        law(s.l1_hits + s.l2_hits <= s.loads,
            f"core {i}: load hits {s.l1_hits} + {s.l2_hits} > loads "
            f"{s.loads}")
        law(s.mem_requests <= h.mshrs[i].allocations,
            f"core {i}: mem requests {s.mem_requests} > MSHR allocations "
            f"{h.mshrs[i].allocations}")
        law(core.committed <= core.fetched <= core.committed + rob,
            f"core {i}: committed {core.committed}, fetched "
            f"{core.fetched}, ROB {rob}")
    l1_misses = sum(c.stats.misses for c in h.l1d)
    law(h.l2.stats.hits + h.l2.stats.misses == l1_misses,
        f"L2 hits {h.l2.stats.hits} + misses {h.l2.stats.misses} != "
        f"L1 misses {l1_misses}")
    allocations = sum(m.allocations for m in h.mshrs)
    law(allocations == sum(h.l2_misses),
        f"MSHR allocations {allocations} != L2 misses {sum(h.l2_misses)}")
    return broken


class TestGoldenConfigurations:
    """The laws on the golden files' runs."""

    def test_4mem_hf_rf(self):
        apps = workload_by_name("4MEM-1").apps()
        assert violations(run_system(apps, "HF-RF", BUDGET, WARMUP, SEED)) == []

    def test_4mem_me_lreq(self):
        apps = workload_by_name("4MEM-1").apps()
        me = [0.5, 1.5, 0.8, 2.0]
        system = run_system(apps, "ME-LREQ", BUDGET, WARMUP, SEED, me)
        assert violations(system) == []

    def test_2mix_rr(self):
        apps = workload_by_name("2MIX-1").apps()
        assert violations(run_system(apps, "RR", BUDGET, WARMUP, SEED)) == []

    def test_8mem_lreq(self):
        apps = workload_by_name("8MEM-1").apps()
        assert violations(run_system(apps, "LREQ", BUDGET, WARMUP, SEED)) == []

    def test_the_laws_see_a_missing_charge(self):
        # The oracle itself: one uncounted demand reference breaks two laws.
        apps = workload_by_name("2MIX-1").apps()
        system = run_system(apps, "RR", 1000, 0, SEED)
        system.hierarchy.demand_accesses[1] += 1
        assert len(violations(system)) == 2


@st.composite
def configurations(draw):
    cores = draw(st.sampled_from((1, 2, 4, 8)))
    if cores == 1:
        apps = (draw(st.sampled_from(APPS)),)
    else:
        apps = draw(st.sampled_from(mixes_for(cores))).apps()
    me = draw(st.lists(st.floats(0.1, 4.0), min_size=cores, max_size=cores))
    return (apps, draw(st.sampled_from(PAPER_POLICIES)),
            draw(st.integers(500, 3000)), draw(st.integers(0, 1500)),
            draw(st.integers(0, 50)), me)


class TestSmallConfigurations:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(configurations())
    def test_laws_hold(self, config):
        apps, policy, budget, warmup, seed, me = config
        system = run_system(apps, policy, budget, warmup, seed, me)
        assert violations(system) == []
