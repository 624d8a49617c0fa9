"""Tests for JSON result serialisation."""

import json

import pytest

from repro.metrics.serialize import to_jsonable
from repro.sim.runner import CoreResult, RunResult


def sample_run_result():
    core = CoreResult(
        app="swim", code="c", core_id=0, ipc=1.25, finish_cycle=1000,
        committed=2000, reads=50, avg_read_latency=250.0,
        bytes_total=6400, bw_gbps=2.0,
    )
    return RunResult(
        mix_name="2MEM-1", policy_name="HF-RF", per_core=(core,),
        end_cycle=1000, row_hit_rate=0.3, drain_entries=1,
    )


class TestToJsonable:
    def test_scalars_pass_through(self):
        assert to_jsonable(5) == 5
        assert to_jsonable(1.5) == 1.5
        assert to_jsonable("x") == "x"
        assert to_jsonable(None) is None
        assert to_jsonable(True) is True

    def test_dataclass_recursion(self):
        d = to_jsonable(sample_run_result())
        assert d["mix_name"] == "2MEM-1"
        assert d["per_core"][0]["app"] == "swim"
        json.dumps(d)  # fully JSON-compatible

    def test_tuple_becomes_list(self):
        assert to_jsonable((1, 2)) == [1, 2]

    def test_composite_dict_keys_stringified(self):
        d = to_jsonable({(4, "MEM"): 1.0})
        (key,) = d
        assert json.loads(key) == [4, "MEM"]

    def test_unserialisable_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())
