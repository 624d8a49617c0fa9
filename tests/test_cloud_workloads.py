"""Cloud workload family: arrival generation, mixes, machine config,
SLO-violation attribution conservation, and determinism properties.

The reproducibility contract under test: same seed => identical arrival
trace across runs; inter-arrival times match the
configured rate within exact integer accounting; and no wall clock
leaks into the cloud modules or cell keys.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.workloads.cloud import (
    ARRIVALS,
    CLOUD_BUFFER_PER_CORE,
    CLOUD_L2_MSHRS_PER_CORE,
    CLOUD_MIXES,
    CLOUD_REGION_LINES,
    CLOUD_ROB_SIZE,
    CloudMix,
    ServiceProfile,
    SERVICES,
    arrival_gaps,
    cloud_mix_by_name,
    cloud_system_config,
    is_cloud_codes,
    make_cloud_trace,
    service_by_code,
)
from repro.config import SystemConfig
from repro.util.rng import RngStream


def _gaps(profile: ServiceProfile, n: int, seed: int = 1) -> list[int]:
    gen = arrival_gaps(profile, RngStream(seed, "t", profile.code))
    return [next(gen) for _ in range(n)]


class TestArrivalGeneration:
    def test_same_seed_identical_trace(self):
        svc = service_by_code("K")
        a = make_cloud_trace(svc, seed=7, core_id=0)
        b = make_cloud_trace(svc, seed=7, core_id=0)
        ops_a = [a.next_op() for _ in range(300)]
        ops_b = [b.next_op() for _ in range(300)]
        assert ops_a == ops_b
        assert a.requests_emitted == b.requests_emitted == 300

    def test_seeds_and_cores_differ(self):
        svc = service_by_code("K")
        base = [make_cloud_trace(svc, seed=7, core_id=0).next_op()
                for _ in range(50)]
        other_seed = [make_cloud_trace(svc, seed=8, core_id=0).next_op()
                      for _ in range(50)]
        other_core = [make_cloud_trace(svc, seed=7, core_id=1).next_op()
                      for _ in range(50)]
        assert base != other_seed
        assert base != other_core  # disjoint address spaces at least

    def test_gap_encoding_and_addresses(self):
        svc = service_by_code("S")
        t = make_cloud_trace(svc, seed=3, core_id=2, issue_width=4)
        for _ in range(200):
            op = t.next_op()
            # gap = delta * issue_width - 1 with delta >= 1
            assert op.gap >= 3 and (op.gap + 1) % 4 == 0
            assert not op.is_write
            line = (op.addr - t.base_addr) // 64
            assert 0 <= line - (5 << 30) <= CLOUD_REGION_LINES

    def test_poisson_rate_exact_integer_accounting(self):
        svc = service_by_code("S")  # mean_gap 48
        gaps = _gaps(svc, 3000)
        assert all(isinstance(g, int) and g >= 1 for g in gaps)
        mean = sum(gaps) / len(gaps)
        assert svc.mean_gap * 0.9 <= mean <= svc.mean_gap * 1.1

    def test_bursty_rate_between_states(self):
        svc = service_by_code("B")  # calm 64, burst 6, dwell 32
        gaps = _gaps(svc, 4000)
        mean = sum(gaps) / len(gaps)
        assert svc.burst_gap < mean < svc.calm_gap

    def test_diurnal_rate_scaled_by_curve(self):
        svc = service_by_code("D")  # base 32, multipliers 1..4
        gaps = _gaps(svc, 4000)
        mean = sum(gaps) / len(gaps)
        assert mean > svc.mean_gap  # some buckets are slower than base
        assert mean < svc.mean_gap * max(svc.curve)

    def test_arrival_validation(self):
        with pytest.raises(ValueError):
            ServiceProfile(code="x", name="bad", arrival="poisson",
                           mean_gap=10, slo=100).validate()
        with pytest.raises(ValueError):
            ServiceProfile(code="X", name="bad", arrival="weibull",
                           mean_gap=10, slo=100).validate()
        with pytest.raises(ValueError):
            ServiceProfile(code="X", name="bad", arrival="bursty",
                           mean_gap=0, slo=100, calm_gap=4, burst_gap=8,
                           dwell=2).validate()  # burst slower than calm
        with pytest.raises(ValueError):
            ServiceProfile(code="X", name="bad", arrival="diurnal",
                           mean_gap=10, slo=100).validate()  # no curve

    def test_catalogue_is_valid_and_covers_every_arrival(self):
        for svc in SERVICES:
            svc.validate()
        assert {s.arrival for s in SERVICES} == set(ARRIVALS)

    def test_service_lookup(self):
        assert service_by_code("K").name == "kvstore"
        with pytest.raises(KeyError):
            service_by_code("Z")


class TestCloudMixes:
    def test_registered_mixes_validate(self):
        for mix in CLOUD_MIXES:
            mix.validate()
            assert mix.num_cores == len(mix.codes)
            assert mix.group == "CLOUD"
            assert mix.service_cores()  # at least one open-loop core

    def test_lookup_case_insensitive(self):
        assert cloud_mix_by_name("2cld-1").codes == "Kb"
        with pytest.raises(KeyError):
            cloud_mix_by_name("9CLD-1")

    def test_core_partition(self):
        mix = cloud_mix_by_name("4CLD-1")  # SKhz
        assert mix.service_cores() == (0, 1)
        assert mix.batch_cores() == (2, 3)
        assert [s.code for s in mix.services()] == ["S", "K"]
        assert [a.name for a in mix.batch_apps()] == ["mesa", "apsi"]

    def test_mix_without_service_rejected(self):
        with pytest.raises(ValueError):
            CloudMix(name="BAD", codes="bc").validate()

    def test_is_cloud_codes(self):
        assert is_cloud_codes("Kb")
        assert not is_cloud_codes("bc")


class TestBuilderDispatch:
    """custom_mix covers both loop families (open and closed)."""

    @pytest.mark.parametrize("codes,kind", [("kcb", "Mix"), ("Kb", "CloudMix")])
    def test_dispatch_by_case(self, codes, kind):
        from repro.workloads.builder import custom_mix

        assert type(custom_mix(codes)).__name__ == kind

    @pytest.mark.parametrize("codes", ["k?", "K?", "Zb"])
    def test_unknown_codes_rejected_both_paths(self, codes):
        from repro.workloads.builder import custom_mix

        with pytest.raises(KeyError):
            custom_mix(codes)


class TestCloudMachine:
    def test_datacenter_scaling(self):
        base = SystemConfig()
        for n in (2, 4, 8):
            cfg = cloud_system_config(base, n)
            cfg.validate()
            assert cfg.num_cores == n
            assert cfg.core.rob_size == CLOUD_ROB_SIZE
            assert cfg.caches.l2.mshrs == CLOUD_L2_MSHRS_PER_CORE * n
            assert cfg.controller.buffer_entries == max(
                base.controller.buffer_entries, CLOUD_BUFFER_PER_CORE * n
            )

    def test_digest_differs_from_desktop_part(self):
        base = SystemConfig()
        assert cloud_system_config(base, 4).digest() != base.with_cores(4).digest()

    def test_cell_keys_deterministic_no_wall_clock(self):
        from repro.experiments.cells import cloud_cell_key

        base = SystemConfig()
        a = cloud_cell_key("2CLD-1", "fcfs", 1, 2000, 1500, 256, base, 1000)
        b = cloud_cell_key("2cld-1", "FCFS", 1, 2000, 1500, 256, base, 1000)
        assert a == b and a.digest() == b.digest()
        assert a.kind == "cloud" and a.profile_budget == 0  # non-ME policy

    def test_no_wall_clock_in_cloud_modules(self):
        import repro.experiments.cloud as exp_cloud
        import repro.metrics.tails as tails
        import repro.workloads.cloud as wl_cloud

        banned = ("time.time", "datetime.now", "perf_counter",
                  "time.monotonic", "utcnow")
        for mod in (wl_cloud, exp_cloud, tails):
            src = pathlib.Path(mod.__file__).read_text()
            for token in banned:
                assert token not in src, f"{token} in {mod.__name__}"


class TestAttributionConservation:
    """Per-violation stall attribution must sum exactly (integer cycles)
    to each violating request's measured latency."""

    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.cloud import run_cloud

        # 4-core co-run in the calibrated moderate-violation regime
        return run_cloud("4CLD-1", "FCFS", inst_budget=2500, seed=1,
                         warmup_insts=2000)

    def test_services_completed_requests(self, result):
        assert [s.code for s in result.services] == ["S", "K"]
        for svc in result.services:
            assert svc.requests > 0
            assert svc.latencies == tuple(sorted(svc.latencies))
            assert all(lat > 0 for lat in svc.latencies)

    def test_violations_counted_strictly(self, result):
        from repro.metrics.tails import count_violations

        total = 0
        for svc in result.services:
            assert svc.viol_count == count_violations(svc.latencies, svc.slo)
            total += svc.viol_count
        assert total > 0, "calibrated regime should violate some SLOs"

    def test_attribution_sums_to_violating_latencies(self, result):
        from repro.telemetry.attribution import COMPONENTS

        for svc in result.services:
            expected = sum(lat for lat in svc.latencies if lat > svc.slo)
            assert svc.viol_latency_sum == expected
            assert len(svc.viol_components) == len(COMPONENTS)
            assert all(v >= 0 for v in svc.viol_components)
            assert sum(svc.viol_components) == svc.viol_latency_sum

    def test_me_policy_requires_batch_me(self):
        from repro.experiments.cloud import run_cloud

        with pytest.raises(ValueError):
            run_cloud("2CLD-1", "ME-LREQ", inst_budget=1500, seed=1,
                      warmup_insts=1000)
        with pytest.raises(ValueError):
            run_cloud("2CLD-1", "ME-LREQ", inst_budget=1500, seed=1,
                      warmup_insts=1000, me_values=(1.0, 2.0))  # 1 batch core
