"""Integration tests for the memory controller with a real engine/DRAM."""

from repro.config import SystemConfig
from tests.machine import controller_config, make_controller, read, write

CFG = SystemConfig(num_cores=2)


class TestReadPath:
    def test_single_read_latency(self):
        engine, dram, ctrl = make_controller()
        got = []
        assert ctrl.enqueue(read(0, done=lambda r, t: got.append((r, t))), 0)
        engine.run()
        (r, t), = got
        # closed bank: tRCD + CL + burst + controller overhead
        assert t == 40 + 40 + 16 + 48
        assert r.latency == t
        assert ctrl.stats.read_count[0] == 1

    def test_reads_on_different_channels_parallel(self):
        engine, dram, ctrl = make_controller()
        done = []
        ctrl.enqueue(read(0, done=lambda r, t: done.append(t)), 0)
        ctrl.enqueue(read(64, done=lambda r, t: done.append(t)), 0)  # other channel
        engine.run()
        assert max(done) == min(done)  # fully parallel channels

    def test_same_bank_serialises(self):
        engine, dram, ctrl = make_controller()
        done = []
        ctrl.enqueue(read(0, done=lambda r, t: done.append(t)), 0)
        ctrl.enqueue(read(4096 * 64, done=lambda r, t: done.append(t)), 0)  # same bank, next row
        engine.run()
        assert max(done) - min(done) >= CFG.dram_timing.t_rp

    def test_buffer_backpressure(self):
        cfg = controller_config(
            CFG, buffer_entries=2, write_drain_high=1, write_drain_low=0
        )
        engine, dram, ctrl = make_controller(config=cfg)
        assert ctrl.enqueue(read(0), 0)
        assert ctrl.enqueue(read(128), 0)
        assert not ctrl.enqueue(read(256), 0)
        woken = []
        ctrl.wait_for_space(lambda now: woken.append(now))
        engine.run()
        assert woken


class TestWriteHandling:
    def test_reads_bypass_writes(self):
        engine, dram, ctrl = make_controller()
        order = []
        # a write ages first, then a read to the same channel: the read
        # must be served first (read-first)
        w = write(0)
        r = read(128, done=lambda rq, t: order.append(("r", t)))
        ctrl.enqueue(w, 0)
        ctrl.enqueue(r, 0)
        engine.run()
        assert w.issue_cycle > r.issue_cycle

    def test_write_drain_hysteresis(self):
        cfg = controller_config(
            CFG, buffer_entries=8, write_drain_high=4, write_drain_low=2
        )
        engine, dram, ctrl = make_controller(config=cfg)
        for i in range(4):
            ctrl.enqueue(write(i * 128), 0)
        assert ctrl.drain_mode
        engine.run()
        assert not ctrl.drain_mode
        assert sum(ctrl.stats.write_count) == 4
        assert ctrl.stats.drain_entries == 1

    def test_writes_flow_on_idle_channel(self):
        engine, dram, ctrl = make_controller()
        ctrl.enqueue(write(0), 0)
        engine.run()
        assert sum(ctrl.stats.write_count) == 1  # opportunistic write


class TestCausality:
    def test_future_dated_request_not_served_early(self):
        engine, dram, ctrl = make_controller()
        r = read(0)
        ctrl.enqueue(r, 500)  # core lookahead: arrival in the future
        engine.run()
        assert r.issue_cycle >= 500
        assert r.done_cycle > r.arrival_cycle

    def test_latency_never_negative(self):
        engine, dram, ctrl = make_controller()
        reqs = [read(i * 128) for i in range(8)]
        for i, r in enumerate(reqs):
            ctrl.enqueue(r, i * 3)
        engine.run()
        assert all(r.done_cycle >= r.arrival_cycle for r in reqs)


class TestPagePolicy:
    def test_closed_page_keeps_row_for_queued_hit(self):
        engine, dram, ctrl = make_controller()
        # two reads to the same row, same bank: second should be a row hit
        # because a queued hit exists when the first is scheduled
        a = read(0)
        b = read(32 * 64)  # same channel/bank/row, next column
        ctrl.enqueue(a, 0)
        ctrl.enqueue(b, 0)
        engine.run()
        assert b.row_hit
        assert ctrl.stats.read_row_hits == 1

    def test_closed_page_precharges_without_hit(self):
        engine, dram, ctrl = make_controller()
        a = read(0)
        ctrl.enqueue(a, 0)
        engine.run()
        assert not dram.is_row_hit(dram.coord(0))

    def test_open_page_keeps_rows(self):
        cfg = controller_config(CFG, page_policy="open")
        engine, dram, ctrl = make_controller(config=cfg)
        ctrl.enqueue(read(0), 0)
        engine.run()
        assert dram.is_row_hit(dram.coord(0))


class TestBankReadiness:
    def test_busy_bank_request_deferred_not_starved(self):
        engine, dram, ctrl = make_controller()
        done = []
        # 3 reads to the same bank (rows differ): they serialise on the
        # bank but all must complete
        for row in range(3):
            ctrl.enqueue(
                read(row * 4096 * 64, done=lambda r, t: done.append(t)), 0
            )
        engine.run()
        assert len(done) == 3

    def test_ready_bank_preferred_over_busy(self):
        engine, dram, ctrl = make_controller()
        first = read(0)
        same_bank = read(4096 * 64)  # same bank as first, different row
        other_bank = read(128)  # same channel, different bank
        ctrl.enqueue(first, 0)
        engine.run()
        # bank 0 is now in precharge; enqueue both at the same cycle
        now = engine.now
        same_bank.arrival_cycle = now
        other_bank.arrival_cycle = now
        ctrl.enqueue(same_bank, now)
        ctrl.enqueue(other_bank, now)
        engine.run()
        assert other_bank.issue_cycle <= same_bank.issue_cycle


class TestStats:
    def test_avg_read_latency(self):
        engine, dram, ctrl = make_controller()
        ctrl.enqueue(read(0), 0)
        ctrl.enqueue(read(64, core=1), 0)
        engine.run()
        assert ctrl.stats.avg_read_latency() > 0
        assert ctrl.stats.avg_read_latency(0) > 0
        assert ctrl.stats.avg_read_latency(1) > 0

    def test_bytes_accounting(self):
        engine, dram, ctrl = make_controller()
        ctrl.enqueue(read(0), 0)
        ctrl.enqueue(write(128), 0)
        engine.run()
        assert ctrl.stats.bytes_read[0] == 64
        assert ctrl.stats.bytes_written[0] == 64
        assert ctrl.stats.total_bytes(0) == 128
