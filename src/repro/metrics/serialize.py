"""JSON serialisation of experiment results.

Downstream analysis (plotting notebooks, regression tracking, the
telemetry exporters) wants experiment outputs as plain data, not Python
objects.  :func:`to_jsonable` maps the result dataclasses
(:class:`~repro.sim.runner.RunResult`,
:class:`~repro.experiments.harness.PolicyOutcome`,
:class:`~repro.experiments.figure2.Figure2Row`, ...) onto JSON-able
dicts.  Dataclasses are introspected recursively, so new result fields
serialise without touching this module.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

__all__ = ["to_jsonable"]


def to_jsonable(obj: Any) -> Any:
    """Convert result objects into JSON-compatible structures.

    Handles dataclasses (recursively), mappings, sequences, and scalars;
    anything else raises ``TypeError`` — silent ``str()`` coercion would
    hide schema mistakes.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                k = json.dumps(to_jsonable(k))  # canonical composite keys
            out[k] = to_jsonable(v)
        return out
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialise {type(obj).__name__} to JSON")
