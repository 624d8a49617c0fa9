"""Deterministic random-number streams.

The simulator is fully deterministic given an experiment seed.  Each
component (one trace generator per core, the controller's tie-breaker, ...)
gets its own independent stream derived from ``(root_seed, *labels)`` so that
adding a component or reordering draws in one component never perturbs
another.  This mirrors the paper's methodology of using *different SimPoints*
for profiling and evaluation: we use different derived streams.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "geometric_p", "RngStream"]


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a stable 63-bit child seed from ``root_seed`` and labels.

    Uses SHA-256 over a canonical encoding, so the result is stable across
    Python processes and versions (unlike ``hash()``).

    >>> derive_seed(1, "core", 0) == derive_seed(1, "core", 0)
    True
    >>> derive_seed(1, "core", 0) != derive_seed(1, "core", 1)
    True
    """
    payload = repr((int(root_seed),) + tuple(str(x) for x in labels)).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def geometric_p(p: float) -> float:
    """``p`` clamped into [1e-12, 1], the range numpy's geometric accepts."""
    return min(max(p, 1e-12), 1.0)


class RngStream:
    """A labelled, reproducible random stream.

    Thin wrapper over :class:`numpy.random.Generator` adding the scalar
    draws the simulator's components use, plus cheap child-stream spawning.

    Parameters
    ----------
    root_seed:
        The experiment root seed.
    labels:
        Arbitrary hashable labels identifying this stream (component path).
    """

    __slots__ = ("root_seed", "labels", "_gen")

    def __init__(self, root_seed: int, *labels: object) -> None:
        self.root_seed = int(root_seed)
        self.labels = tuple(labels)
        self._gen = np.random.default_rng(derive_seed(root_seed, *labels))

    def child(self, *labels: object) -> "RngStream":
        """Spawn an independent stream labelled beneath this one."""
        return RngStream(self.root_seed, *self.labels, *labels)

    # -- draws -------------------------------------------------------------

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high) — numpy ``integers`` semantics."""
        return int(self._gen.integers(low, high))

    def geometric(self, p: float) -> int:
        """Geometric draw (number of trials to first success, >= 1)."""
        return int(self._gen.geometric(geometric_p(p)))

    def generator(self) -> np.random.Generator:
        """Expose the underlying numpy generator (vectorised draws, and
        the trace kernel's bit generator)."""
        return self._gen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.root_seed}, labels={self.labels!r})"
