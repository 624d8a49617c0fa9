"""Load the trace-generation kernel, ``_tracegen.c``.

The kernel runs :class:`~repro.workloads.synthetic.SyntheticApp`'s per-op
draw loop in C, drawing through numpy's own distribution functions, so the
streams stay bit-identical to numpy's ``Generator`` methods.  It is compiled
on first use with the platform's C compiler (sysconfig's ``CC``) against
the Python and numpy headers and numpy's random-distributions library
(``numpy/random/lib/libnpyrandom.a``), and cached by
:mod:`repro.util.kernels` as
``_tracegen-<source digest>-numpy<version>-<platform>.so``, so a changed
source, numpy version or platform gets a new entry.  A failed build raises
:class:`KernelBuildError`; there is no Python fallback.

:mod:`repro.workloads.synthetic` imports this module at its first
generation, so ``import repro`` neither loads nor builds anything.
"""

from __future__ import annotations

import ctypes
import functools
import shlex
import sysconfig
from array import array
from pathlib import Path

import numpy as np

from repro.util.kernels import KernelBuildError, build, cached_object

__all__ = ["KernelBuildError", "TraceKernel", "kernel", "object_path"]

#: the kernel's C source, shipped as package data
SOURCE = Path(__file__).with_name("_tracegen.c")


class _App(ctypes.Structure):
    """``app_t`` in ``_tracegen.c``: field for field, in order."""

    _fields_ = [
        *((name, ctypes.c_double) for name in (
            "gap_p", "burst_start_p", "burst_len_p", "l2_frac", "seq_frac",
            "store_frac")),
        *((name, ctypes.c_int64) for name in (
            "base_addr", "line_bytes", "hot_base", "hot_lines", "l2_base",
            "l2_lines", "chase_base", "chase_lines", "stream_base",
            "stream_regions", "stream_run", "stride", "n_streams",
            "stream_idx", "burst_left")),
        ("streams", ctypes.POINTER(ctypes.c_int64)),
    ]


def object_path() -> Path:
    """The cache entry for this source, numpy version and platform."""
    return cached_object(
        SOURCE, f"-numpy{np.__version__}-{sysconfig.get_platform()}.so")


def load() -> ctypes.CDLL:
    """Build the kernel into the cache if it is missing, then load it."""
    path = object_path()
    if not path.is_file():
        npy_lib = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
        # numpy/random/distributions.h includes Python.h.
        build(SOURCE, path, [
            *shlex.split(sysconfig.get_config_var("CC") or "cc"), "-shared",
            "-fPIC", "-O2", "-ffp-contract=off", "-I", np.get_include(),
            "-I", sysconfig.get_paths()["include"], str(SOURCE), str(npy_lib),
            "-lm"])
    lib = ctypes.CDLL(str(path))
    app_p = ctypes.POINTER(_App)
    lib.tracegen_seat.argtypes = [app_p, ctypes.c_void_p]
    lib.tracegen_seat.restype = None
    lib.tracegen_fill.argtypes = [app_p, ctypes.c_void_p, ctypes.c_int64,
                                  ctypes.c_void_p, ctypes.c_void_p,
                                  ctypes.c_void_p]
    lib.tracegen_fill.restype = None
    return lib


#: the process's loaded kernel, built on first call
kernel = functools.cache(load)


class TraceKernel:
    """One application's draw-loop state, bound to its numpy generator.

    Construction seats every array stream (two ``integers`` draws each);
    :meth:`fill` then draws ops.  Both hold the bit generator's ``lock``
    around the kernel call, as numpy's own methods do.
    """

    __slots__ = ("_lib", "_app", "_streams", "_bitgen", "_state")

    def __init__(self, generator: np.random.Generator, n_streams: int,
                 **params: float) -> None:
        # The kernel divides by both.
        if n_streams < 1 or params["stride"] < 1:
            raise ValueError("n_streams and stride must be >= 1")
        self._lib = kernel()
        #: referenced here: the struct's pointer does not keep it alive
        self._streams = (ctypes.c_int64 * (2 * n_streams))()
        self._app = _App(n_streams=n_streams, streams=self._streams, **params)
        #: referenced here too: the kernel holds its ``bitgen_t`` address
        self._bitgen = generator.bit_generator
        self._state = self._bitgen.ctypes.bit_generator
        with self._bitgen.lock:
            self._lib.tracegen_seat(self._app, self._state)

    def fill(self, n: int) -> tuple[array, array, array]:
        """Draw the next ``n`` ops as typed columns: gaps and addresses
        (``array('q')``) and store flags (``array('B')``, 0 or 1).

        The kernel writes into the columns directly.  Recordings store
        them as they are, so the checks :class:`~repro.cpu.trace.MemOp`
        makes per op run here, once per chunk.
        """
        gaps = array("q", bytes(8 * n))
        addrs = array("q", bytes(8 * n))
        writes = array("B", bytes(n))
        with self._bitgen.lock:
            self._lib.tracegen_fill(self._app, self._state, n,
                                    gaps.buffer_info()[0],
                                    addrs.buffer_info()[0],
                                    writes.buffer_info()[0])
        if (np.frombuffer(gaps, np.int64).min(initial=0) < 0
                or np.frombuffer(addrs, np.int64).min(initial=0) < 0):
            raise ValueError("trace kernel drew a negative gap or address")
        return gaps, addrs, writes
