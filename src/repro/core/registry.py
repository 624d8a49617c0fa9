"""Name -> policy factory registry.

Experiments refer to policies by the short names the paper uses (``HF-RF``,
``ME``, ``RR``, ``LREQ``, ``ME-LREQ``, ``FIX-3210`` ...).  The registry maps
those names to constructors; FIX-* names are parsed dynamically so any core
permutation can be requested, matching Section 5.2's 'assign a different
priority sequence' experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.complexity import HardwareCost
    from repro.core.policy import SchedulingPolicy

__all__ = [
    "register_policy",
    "make_policy",
    "available_policies",
    "registered_policies",
    "policy_class",
    "policy_complexity",
    "reads_me",
]

_REGISTRY: dict[str, Type["SchedulingPolicy"]] = {}


def register_policy(name: str) -> Callable[[type], type]:
    """Class decorator registering a policy under ``name`` (upper-cased)."""

    def deco(cls: type) -> type:
        key = name.upper()
        if key in _REGISTRY:
            raise ValueError(f"policy {key!r} already registered")
        _REGISTRY[key] = cls
        cls.name = key
        return cls

    return deco


def available_policies() -> list[str]:
    """Registered policy names (FIX-* is available but parameterised)."""
    return sorted(_REGISTRY) + ["FIX-<order>"]


def registered_policies() -> list[str]:
    """Only the concrete registry names, without the FIX-* placeholder."""
    return sorted(_REGISTRY)


def policy_class(name: str) -> Type["SchedulingPolicy"]:
    """The class policy ``name`` builds, without instantiating it.

    ``FIX-<digits>`` and the generic ``FIX-<order>`` / ``FIX-DESC``
    spellings all map to :class:`FixedPriorityPolicy`.
    """
    # Imports here to avoid a cycle (policies import the base class).
    from repro.core.fixed import FixedPriorityPolicy

    key = name.upper()
    if key.startswith("FIX-"):
        return FixedPriorityPolicy
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; available: {', '.join(available_policies())}"
        ) from None


def reads_me(name: str) -> bool:
    """Whether policy ``name`` is built from the profiled ME vector (its
    class's :attr:`~SchedulingPolicy.reads_me`); False for ``FIX-*`` and
    for names no policy is registered under."""
    cls = _REGISTRY.get(name.upper())
    return cls is not None and cls.reads_me


def policy_complexity(name: str, num_cores: int) -> "HardwareCost":
    """Hardware cost sheet of policy ``name`` on an ``num_cores`` system
    (resolved from the class: ``ME``/``ME-LREQ`` need no profile here)."""
    return policy_class(name).describe_hardware(num_cores)


def make_policy(name: str, **kwargs) -> "SchedulingPolicy":
    """Instantiate a policy by its paper name.

    ``me_values`` (the profiled memory efficiencies, indexed by core) is
    passed only to classes that :attr:`~SchedulingPolicy.reads_me`: ``ME``
    and ``ME-LREQ`` require it, every other policy ignores it.
    ``FIX-<digits>`` builds a fixed-priority policy: ``FIX-3210`` gives
    core 3 the highest priority, then 2, 1, 0.

    >>> make_policy("RR").name
    'RR'
    >>> make_policy("FIX-0123").order
    (0, 1, 2, 3)
    """
    key = name.upper()
    cls = policy_class(name)
    if key.startswith("FIX-"):
        digits = key[len("FIX-") :]
        if not digits.isdigit():
            raise ValueError(f"bad FIX policy spec {name!r}")
        kwargs["order"] = tuple(int(d) for d in digits)
    if not cls.reads_me:
        kwargs.pop("me_values", None)
    elif "me_values" in kwargs and kwargs["me_values"] is None:
        raise ValueError(f"policy {key} requires me_values")
    return cls(**kwargs)
