"""Tests for the DRAM command-log reconstruction.

The log observes the transactions the running controller commits
(``CommandLog.attach`` subscribes to ``dram.observers``); the tests enqueue their
requests at the cycles they name.  The DDR2 discipline of the same
transactions is judged by :class:`tests.ddr2.Ddr2Checker`.
"""

from repro.config import DramTimingConfig, SystemConfig
from repro.dram.command import CommandKind, CommandLog
from tests.ddr2 import Ddr2Checker
from tests.machine import DramRig, controller_config, read, write

T = DramTimingConfig()


def logged_system(page_policy="closed", buffer_entries=64, checker=None):
    """A controller whose committed transactions a CommandLog observes
    (after ``checker``, when one is given); ``at(addr, now)`` enqueues a
    request at a cycle, ``run()`` commits."""
    cfg = controller_config(
        SystemConfig(num_cores=1), buffer_entries=buffer_entries
    )
    rig = DramRig(cfg, page_policy=page_policy)
    if checker is not None:
        checker.attach(rig.dram)
    log = CommandLog(T).attach(rig.dram)

    def at(addr, now, is_write=False):
        assert rig.ctrl.enqueue(write(addr) if is_write else read(addr), now)

    return at, rig.engine.run, log


class TestReconstruction:
    def test_closed_bank_read(self):
        at, run, log = logged_system()
        at(0, 0)
        run()
        kinds = [c.kind for c in sorted(log.commands)]
        assert kinds == [CommandKind.ACTIVATE, CommandKind.READ_AP]

    def test_row_hit_needs_no_activate(self):
        at, run, log = logged_system()
        at(0, 0)
        at(32 * 64, 500)  # same bank/row, next column: keeps the row open
        run()
        kinds = [c.kind for c in sorted(log.commands) if c.cycle >= 500]
        assert kinds == [CommandKind.READ_AP]

    def test_write_command_kind(self):
        at, run, log = logged_system(page_policy="open")
        at(0, 0, is_write=True)
        run()
        assert log.count(CommandKind.WRITE) == 1

    def test_conflict_emits_precharge(self):
        at, run, log = logged_system(page_policy="open")
        at(0, 0)
        run()
        log.clear()
        # same bank, different row, while row 0 is open
        conflict_addr = 4096 * 64
        at(conflict_addr, 500)
        run()
        kinds = [c.kind for c in sorted(log.commands)]
        assert kinds == [
            CommandKind.PRECHARGE, CommandKind.ACTIVATE, CommandKind.READ,
        ]

    def test_act_to_cas_spacing_is_trcd(self):
        at, run, log = logged_system()
        at(0, 0)
        run()
        cmds = sorted(log.commands)
        assert cmds[1].cycle - cmds[0].cycle == T.t_rcd


class TestDiscipline:
    def test_verify_accepts_legal_stream(self):
        checker = Ddr2Checker(T)
        at, run, log = logged_system(buffer_entries=128, checker=checker)
        for i in range(64):
            at(i * 64, i * 20)
        # follow-up hits: queued, they keep the even lines' rows open
        for i in range(0, 64, 2):
            at(i * 64 + 32 * 64 * 1, 2000 + i * 20)
        run()
        assert log.count(CommandKind.READ) > 0
        assert checker.transactions > 0
        assert checker.violations == []

    def test_per_bank_filter(self):
        at, run, log = logged_system()
        at(0, 0)  # b0
        at(128, 0)  # b1
        run()
        assert len(log.per_bank(0, 0)) == 2
        assert len(log.per_bank(0, 1)) == 2
        assert len(log.per_bank(1, 0)) == 0


class TestEndToEndDiscipline:
    def test_full_simulation_obeys_bank_discipline(self):
        """Wire a CommandLog through a real multi-core run and verify."""
        from repro.config import SystemConfig
        from repro.core import make_policy
        from repro.sim.system import MultiCoreSystem
        from repro.workloads.mixes import workload_by_name
        from repro.workloads.synthetic import make_trace

        mix = workload_by_name("2MEM-1")
        cfg = SystemConfig(num_cores=2)
        traces = [make_trace(a, 5, "eval", i) for i, a in enumerate(mix.apps())]
        sys_ = MultiCoreSystem(
            cfg, make_policy("HF-RF"), traces, 3000, warmup_insts=8000, seed=5
        )
        checker = Ddr2Checker(cfg.dram_timing).attach(sys_.dram)
        log = CommandLog(cfg.dram_timing).attach(sys_.dram)
        sys_.run()
        assert len(log.commands) > 100
        assert checker.transactions > 0
        assert checker.violations == []
