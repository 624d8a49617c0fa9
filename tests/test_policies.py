"""Unit tests for the scheduling policies' selection logic.

Each policy is exercised against a hand-built scheduling context (a real
controller's queues, staged through ``MemoryController.enqueue``, and real
DRAM state, no cores), so the expected choice is fully determined.
"""

import pytest

from repro.core import make_policy
from repro.core.policy import SchedulingContext, hit_first_oldest, oldest
from repro.util.rng import RngStream
from tests.machine import make_controller, open_row, stage_read, write


def make_ctx(num_cores=4):
    """Scheduling state: a controller whose queues hold the staged
    candidates, its DRAM, and the context's RNG."""
    engine, dram, ctrl = make_controller(num_cores=num_cores)
    return dram, ctrl, RngStream(0, "test")


def ctx_for(dram, ctrl, rng, channel=0, now=0):
    return SchedulingContext(now, channel, ctrl.queues, dram, rng)


def make(name, **kw):
    p = make_policy(name, **kw)
    p.setup(kw.get("num_cores", 4), RngStream(0, "pol"))
    return p


class TestHelpers:
    def test_oldest_picks_lowest_seq(self):
        dram, ctrl, rng = make_ctx()
        a = stage_read(ctrl, 0, 0)
        b = stage_read(ctrl, 0, 2)
        assert oldest([b, a]) is a

    def test_hit_first_prefers_open_row(self):
        dram, ctrl, rng = make_ctx()
        a = stage_read(ctrl, 0, 0)  # (ch0, bank0, row0)
        b = stage_read(ctrl, 0, 2)  # (ch0, bank1, row0)
        # open b's bank row
        open_row(dram, b)
        ctx = ctx_for(dram, ctrl, rng)
        assert hit_first_oldest([a, b], ctx) is b


class TestFcfs:
    def test_strict_age_order(self):
        dram, ctrl, rng = make_ctx()
        a = stage_read(ctrl, 1, 0)
        b = stage_read(ctrl, 0, 2)
        pol = make("FCFS")
        assert pol.select_read([b, a], ctx_for(dram, ctrl, rng)) is a

    def test_write_selection_also_age_order(self):
        dram, ctrl, rng = make_ctx()
        w1, w2 = write(0), write(128)
        assert ctrl.enqueue(w1, 0) and ctrl.enqueue(w2, 0)
        pol = make("FCFS")
        assert pol.select_write([w2, w1], ctx_for(dram, ctrl, rng)) is w1


class TestHfRf:
    def test_hit_first_over_age(self):
        dram, ctrl, rng = make_ctx()
        older = stage_read(ctrl, 0, 0)
        newer_hit = stage_read(ctrl, 1, 2)
        open_row(dram, newer_hit)
        pol = make("HF-RF")
        chosen = pol.select_read([older, newer_hit], ctx_for(dram, ctrl, rng))
        assert chosen is newer_hit

    def test_age_breaks_tie_without_hits(self):
        dram, ctrl, rng = make_ctx()
        a = stage_read(ctrl, 3, 0)
        b = stage_read(ctrl, 0, 2)
        pol = make("HF-RF")
        assert pol.select_read([b, a], ctx_for(dram, ctrl, rng)) is a


class TestRoundRobin:
    def test_rotates_over_cores(self):
        dram, ctrl, rng = make_ctx()
        reqs = {c: [stage_read(ctrl, c, 2 * i + 100 * c) for i in range(2)]
                for c in range(3)}
        pol = make("RR")
        ctx = ctx_for(dram, ctrl, rng)
        left = [x for rs in reqs.values() for x in rs]
        order = []
        for _ in range(3):
            r = pol.select_read(left, ctx)
            order.append(r.core_id)
            left.remove(r)  # served
        assert order == [0, 1, 2]

    def test_skips_absent_cores(self):
        dram, ctrl, rng = make_ctx()
        r2 = stage_read(ctrl, 2, 0)
        pol = make("RR")
        assert pol.select_read([r2], ctx_for(dram, ctrl, rng)) is r2
        # pointer advanced past 2
        r0 = stage_read(ctrl, 0, 2)
        assert pol.select_read([r0], ctx_for(dram, ctrl, rng)) is r0

    def test_empty_candidates_rejected(self):
        dram, ctrl, rng = make_ctx()
        pol = make("RR")
        with pytest.raises(ValueError):
            pol.select_read([], ctx_for(dram, ctrl, rng))


class TestLreq:
    def test_fewest_pending_core_wins(self):
        dram, ctrl, rng = make_ctx()
        hog = [stage_read(ctrl, 0, 2 * i) for i in range(5)]
        light = stage_read(ctrl, 1, 100)
        pol = make("LREQ")
        chosen = pol.select_read(hog + [light], ctx_for(dram, ctrl, rng))
        assert chosen is light

    def test_within_core_oldest(self):
        dram, ctrl, rng = make_ctx()
        a = stage_read(ctrl, 0, 0)
        b = stage_read(ctrl, 0, 2)
        pol = make("LREQ")
        assert pol.select_read([b, a], ctx_for(dram, ctrl, rng)) is a


class TestMe:
    def test_highest_me_core_wins(self):
        dram, ctrl, rng = make_ctx()
        lo = stage_read(ctrl, 0, 0)
        hi = stage_read(ctrl, 1, 2)
        pol = make("ME", me_values=[1.0, 100.0, 1.0, 1.0])
        assert pol.select_read([lo, hi], ctx_for(dram, ctrl, rng)) is hi

    def test_priority_is_fixed_regardless_of_pending(self):
        dram, ctrl, rng = make_ctx()
        hi_hog = [stage_read(ctrl, 1, 2 * i) for i in range(10)]
        lo = stage_read(ctrl, 0, 100)
        pol = make("ME", me_values=[1.0, 100.0, 1.0, 1.0])
        chosen = pol.select_read(hi_hog + [lo], ctx_for(dram, ctrl, rng))
        assert chosen.core_id == 1

    def test_me_values_must_match_cores(self):
        pol = make_policy("ME", me_values=[1.0, 2.0])
        with pytest.raises(ValueError):
            pol.setup(4, RngStream(0))


class TestMeLreq:
    def test_me_over_pending_tradeoff(self):
        dram, ctrl, rng = make_ctx()
        # core 0: ME 10 but 10 pending -> 1.0 ; core 1: ME 4, 1 pending -> 4.0
        hogs = [stage_read(ctrl, 0, 2 * i) for i in range(10)]
        light = stage_read(ctrl, 1, 100)
        pol = make("ME-LREQ", me_values=[10.0, 4.0, 1.0, 1.0])
        chosen = pol.select_read(hogs + [light], ctx_for(dram, ctrl, rng))
        assert chosen is light

    def test_huge_me_ratio_beats_pending(self):
        dram, ctrl, rng = make_ctx()
        hogs = [stage_read(ctrl, 0, 2 * i) for i in range(10)]
        light = stage_read(ctrl, 1, 100)
        # core 0 ME enormously higher: 1000/10 >> 1/1
        pol = make("ME-LREQ", me_values=[1000.0, 1.0, 1.0, 1.0])
        chosen = pol.select_read(hogs + [light], ctx_for(dram, ctrl, rng))
        assert chosen.core_id == 0

    def test_ideal_divider_variant(self):
        dram, ctrl, rng = make_ctx()
        a = stage_read(ctrl, 0, 0)
        b = stage_read(ctrl, 1, 2)
        pol = make("ME-LREQ", me_values=[5.0, 1.0, 1.0, 1.0], table_bits=None)
        assert pol.table is None
        assert pol.select_read([a, b], ctx_for(dram, ctrl, rng)) is a


class TestFixed:
    def test_order_respected(self):
        dram, ctrl, rng = make_ctx()
        r0 = stage_read(ctrl, 0, 0)
        r3 = stage_read(ctrl, 3, 2)
        pol = make("FIX-3210")
        assert pol.select_read([r0, r3], ctx_for(dram, ctrl, rng)) is r3
        pol2 = make("FIX-0123")
        assert pol2.select_read([r0, r3], ctx_for(dram, ctrl, rng)) is r0

    def test_must_be_permutation(self):
        pol = make_policy("FIX-012")
        with pytest.raises(ValueError):
            pol.setup(4, RngStream(0))

    def test_repeated_core_rejected(self):
        with pytest.raises(ValueError):
            make_policy("FIX-0011")


class TestRandomTieBreak:
    def test_ties_are_broken_across_cores(self):
        # two cores with identical pending counts under LREQ: over many
        # draws both must win sometimes (random tie-break, Section 3.2)
        dram, ctrl, rng = make_ctx()
        a = stage_read(ctrl, 0, 0)
        b = stage_read(ctrl, 1, 2)
        pol = make("LREQ")
        winners = {
            pol.select_read([a, b], ctx_for(dram, ctrl, rng)).core_id
            for _ in range(50)
        }
        assert winners == {0, 1}
