"""The memory controller under the name ``bench/ledger.py`` wraps.

The benchmark ledger imports ``FastMemoryController`` from here and keys
its per-layer counters on the controller's qualified method names, so
this import path stays until the ledger moves to
:class:`repro.controller.controller.MemoryController`.
"""

from repro.controller.controller import FastMemoryController

__all__ = ["FastMemoryController"]
