"""Tests for the workload substrate: app table, mixes, synthetic streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.mixes import WORKLOAD_MIXES, mixes_for, workload_by_name
from repro.workloads.spec2000 import APPS, app_by_code, app_by_name
from repro.workloads.synthetic import CORE_ADDR_STRIDE, make_trace
from tests.machine import ops as read_ops


class TestAppTable:
    def test_twenty_six_apps(self):
        assert len(APPS) == 26
        assert "".join(sorted(a.code for a in APPS)) == "abcdefghijklmnopqrstuvwxyz"

    def test_all_profiles_valid(self):
        for app in APPS:
            app.validate()

    def test_class_split_matches_table2(self):
        mem = {a.code for a in APPS if a.klass == "MEM"}
        assert mem == set("bcdefgijklnpqv")

    def test_paper_me_values_sampled(self):
        assert app_by_name("eon").paper_me == 16276
        assert app_by_name("mcf").paper_me == 1
        assert app_by_name("swim").paper_me == 2
        assert app_by_code("u").name == "perlbmk"

    def test_mpki_anti_correlates_with_paper_me(self):
        # within each class, strictly higher published ME must mean lower
        # mpki (apps sharing a published ME may order freely)
        for klass in ("MEM", "ILP"):
            apps = sorted(
                (a for a in APPS if a.klass == klass), key=lambda a: a.paper_me
            )
            for lo, hi in zip(apps, apps[1:]):
                if hi.paper_me > lo.paper_me:
                    assert hi.mpki < lo.mpki, (lo.name, hi.name)

    def test_unknown_lookups(self):
        with pytest.raises(KeyError):
            app_by_code("A")
        with pytest.raises(KeyError):
            app_by_name("doom")


class TestMixes:
    def test_table3_counts(self):
        assert len(WORKLOAD_MIXES) == 36
        for n in (2, 4, 8):
            assert len(mixes_for(n)) == 12
            assert len(mixes_for(n, "MEM")) == 6
            assert len(mixes_for(n, "MIX")) == 6

    def test_codes_match_core_count(self):
        for m in WORKLOAD_MIXES:
            assert m.num_cores == len(m.codes)
            m.validate()

    def test_published_compositions(self):
        assert workload_by_name("2MEM-1").codes == "bc"
        assert workload_by_name("4MEM-1").codes == "bcde"
        assert workload_by_name("4MIX-2").codes == "hzde"
        assert workload_by_name("8MEM-4").codes == "bcdenpqv"

    def test_apps_resolved_in_core_order(self):
        mix = workload_by_name("4MEM-1")
        assert [a.name for a in mix.apps()] == ["wupwise", "swim", "mgrid", "applu"]

    def test_group_parsing(self):
        assert workload_by_name("4MEM-1").group == "MEM"
        assert workload_by_name("4MIX-1").group == "MIX"

    def test_case_insensitive_lookup(self):
        assert workload_by_name("4mem-1").name == "4MEM-1"

    def test_bad_lookups(self):
        with pytest.raises(KeyError):
            workload_by_name("4MEM-9")
        with pytest.raises(ValueError):
            mixes_for(4, "WEIRD")
        with pytest.raises(ValueError, match="supported: 2, 4, 8"):
            mixes_for(3)


class TestSyntheticStream:
    def test_deterministic_per_phase(self):
        app = app_by_code("c")
        a = make_trace(app, seed=5, phase="eval", core_id=0)
        b = make_trace(app, seed=5, phase="eval", core_id=0)
        assert read_ops(a, 200) == read_ops(b, 200)

    def test_phases_differ(self):
        app = app_by_code("c")
        a = make_trace(app, seed=5, phase="eval", core_id=0)
        b = make_trace(app, seed=5, phase="profile", core_id=0)
        assert read_ops(a, 100) != read_ops(b, 100)

    def test_core_address_spaces_disjoint(self):
        app = app_by_code("k")
        lo = make_trace(app, seed=1, phase="eval", core_id=0)
        hi = make_trace(app, seed=1, phase="eval", core_id=3)
        for a, b in zip(read_ops(lo, 500), read_ops(hi, 500)):
            assert a.addr // CORE_ADDR_STRIDE != b.addr // CORE_ADDR_STRIDE

    def test_gap_matches_mem_ratio(self):
        app = app_by_code("c")  # mem_ratio 0.30
        t = make_trace(app, seed=1, phase="eval")
        ops = read_ops(t, 4000)
        total_insts = sum(op.gap + 1 for op in ops)
        ratio = len(ops) / total_insts
        assert abs(ratio - app.mem_ratio) < 0.05

    def test_store_fraction_roughly_respected(self):
        app = app_by_code("c")  # store_frac 0.40
        t = make_trace(app, seed=1, phase="eval")
        # skip the (load-only) prologue
        skip = t._hot_lines + t._l2_lines
        ops = read_ops(t, skip + 4000)[skip:]
        frac = sum(op.is_write for op in ops) / len(ops)
        assert abs(frac - app.store_frac) < 0.06

    def test_prologue_touches_every_resident_line(self):
        app = app_by_code("a")
        t = make_trace(app, seed=1, phase="eval")
        n = t._hot_lines + t._l2_lines
        lines = {op.addr // 64 for op in read_ops(t, n)}
        assert len(lines) == n  # each exactly once

    def test_streaming_app_emits_strided_row_runs(self):
        # swim: seq_frac 0.95, 4 streams, stride 32 lines. Ops of one
        # stream are n_streams apart in the merged order and advance by
        # stride_lines — consecutive columns of one DRAM row.
        app = app_by_code("c")
        t = make_trace(app, seed=1, phase="eval")
        skip = t._hot_lines + t._l2_lines
        lines = [op.addr // 64 for op in read_ops(t, skip + 3000)[skip:]]
        k, stride = app.n_streams, app.stride_lines
        strided_pairs = sum(
            1 for x, y in zip(lines, lines[k:]) if y == x + stride
        )
        assert strided_pairs > 100

    def test_pointer_chaser_has_no_stride_pattern(self):
        app = app_by_code("k")  # mcf: seq_frac 0.05
        t = make_trace(app, seed=1, phase="eval")
        skip = t._hot_lines + t._l2_lines
        lines = [op.addr // 64 for op in read_ops(t, skip + 3000)[skip:]]
        k, stride = app.n_streams, app.stride_lines
        strided_pairs = sum(
            1 for x, y in zip(lines, lines[k:]) if y == x + stride
        )
        assert strided_pairs < 50

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([a.code for a in APPS]), st.integers(1, 100))
    def test_stream_is_infinite_and_valid(self, code, seed):
        t = make_trace(app_by_code(code), seed=seed, phase="eval")
        ops = read_ops(t, 300)
        assert len(ops) == 300
        for op in ops:
            assert op.gap >= 0
            assert op.addr >= CORE_ADDR_STRIDE  # inside core 0's space

    @pytest.mark.parametrize("loop", ["closed", "open"])
    def test_stream_determinism_both_loop_families(self, loop):
        if loop == "closed":
            def mk():
                return make_trace(app_by_code("k"), seed=5, phase="eval")
        else:
            from repro.workloads.cloud import make_cloud_trace, service_by_code

            def mk():
                return make_cloud_trace(service_by_code("K"), seed=5, core_id=0)
        assert read_ops(mk(), 200) == read_ops(mk(), 200)


class TestBuilder:
    @pytest.mark.parametrize(
        "codes,loop,names",
        [
            ("kcb", "closed", ["mcf", "swim", "wupwise"]),
            ("Kb", "open", ["kvstore", "wupwise"]),
        ],
        ids=["closed", "open"],
    )
    def test_custom_mix(self, codes, loop, names):
        from repro.workloads.builder import custom_mix

        mix = custom_mix(codes)
        assert mix.num_cores == len(codes)
        if loop == "closed":
            assert type(mix).__name__ == "Mix"
            assert [a.name for a in mix.apps()] == names
        else:
            assert type(mix).__name__ == "CloudMix"
            got = [s.name for s in mix.services()]
            got += [a.name for a in mix.batch_apps()]
            assert got == names

    @pytest.mark.parametrize("codes", ["k?", "K?"], ids=["closed", "open"])
    def test_custom_mix_validates_codes(self, codes):
        from repro.workloads.builder import custom_mix

        with pytest.raises(KeyError):
            custom_mix(codes)



class TestMpkiContract:
    """The generator must honour each app's mpki target (the property the
    whole Table 2 calibration rests on)."""

    @pytest.mark.parametrize("code", ["c", "k", "b", "a", "t"])
    def test_miss_density_tracks_mpki(self, code):
        from repro.workloads.synthetic import (
            _CHASE_BASE_LINE,
            _STREAM_BASE_LINE,
        )

        app = app_by_code(code)
        t = make_trace(app, seed=3, phase="eval")
        skip = t._hot_lines + t._l2_lines  # the prologue
        n_ops = 60_000
        insts = 0
        misses = 0
        for op in read_ops(t, skip + n_ops)[skip:]:
            insts += op.gap + 1
            line = (op.addr - t.base_addr) // 64
            if line >= _CHASE_BASE_LINE or line >= _STREAM_BASE_LINE:
                misses += 1
        measured_mpki = misses / insts * 1000
        # generous band: stochastic burst structure wobbles short windows
        assert measured_mpki == pytest.approx(app.mpki, rel=0.35, abs=0.05)
