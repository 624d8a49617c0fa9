"""The simulator's model kernel, built and loaded once.

``cpu/_core.c`` (package data) defines the C types the model runs on:
``MemoryRequest`` and the bases of :class:`~repro.sim.engine.EventEngine`,
:class:`~repro.controller.controller.FastMemoryController`,
:class:`~repro.cache.hierarchy.CacheHierarchy` and
:class:`~repro.cpu.core_model.TraceCore`.  Each of those modules imports
:data:`kernel` from here, so the extension is built into the kernel cache
(see :mod:`repro.util.kernels`) and loaded at the first import of any of
them, which the first machine build triggers; ``import repro`` loads none
of them.
"""

from pathlib import Path

from repro.util.kernels import load_extension

__all__ = ["kernel"]

#: the loaded ``repro.cpu._core`` extension module
kernel = load_extension("repro.cpu._core", Path(__file__).with_name("_core.c"))
