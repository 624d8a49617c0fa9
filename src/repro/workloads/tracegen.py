"""Build, cache and load the trace-generation kernel, ``_tracegen.c``.

The kernel runs :class:`~repro.workloads.synthetic.SyntheticApp`'s per-op
draw loop in C, drawing through numpy's own distribution functions, so the
streams stay bit-identical to numpy's ``Generator`` methods.  It is compiled
on first use with the platform's C compiler (sysconfig's ``CC``) against
the Python and numpy headers and numpy's random-distributions library
(``numpy/random/lib/libnpyrandom.a``), and cached as
``$XDG_CACHE_HOME/repro/`` (default ``~/.cache/repro/``)
``_tracegen-<source digest>-numpy<version>-<platform>.so``.  A changed
source, numpy version or platform therefore gets a new entry, and a build
is installed with an atomic ``os.replace``, so concurrent first users each
load a whole object.  A failed build raises :class:`KernelBuildError`;
there is no Python fallback.

:mod:`repro.workloads.synthetic` imports this module at its first
generation, so ``import repro`` neither loads nor builds anything.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["KernelBuildError", "TraceKernel", "cache_dir", "kernel", "object_path"]

#: the kernel's C source, shipped as package data
SOURCE = Path(__file__).with_name("_tracegen.c")


class KernelBuildError(RuntimeError):
    """The trace kernel could not be compiled."""


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


def cache_dir() -> Path:
    """Where built kernels live: ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro"


def object_path() -> Path:
    """The cache entry for this source, numpy version and platform."""
    digest = hashlib.sha256(SOURCE.read_bytes()).hexdigest()[:16]
    platform = sysconfig.get_platform()
    name = f"_tracegen-{digest}-numpy{np.__version__}-{platform}.so"
    return cache_dir() / name


def _build(target: Path) -> None:
    """Compile ``SOURCE`` and install it at ``target`` atomically."""
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    npy_lib = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp",
                               dir=target.parent)
    os.close(fd)
    # numpy/random/distributions.h includes Python.h.
    cmd = [*compiler, "-shared", "-fPIC", "-O2", "-ffp-contract=off",
           "-I", np.get_include(), "-I", sysconfig.get_paths()["include"],
           str(SOURCE), str(npy_lib), "-lm", "-o", tmp]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        os.unlink(tmp)
        raise KernelBuildError(
            f"cannot compile {SOURCE.name}: {shlex.join(cmd)!r} did not "
            f"run ({exc}); the trace kernel needs a C compiler"
        ) from exc
    if proc.returncode != 0:
        os.unlink(tmp)
        raise KernelBuildError(
            f"cannot compile {SOURCE.name}: {shlex.join(cmd)!r} exited "
            f"{proc.returncode}:\n{proc.stderr}"
        )
    os.replace(tmp, target)


def load() -> ctypes.CDLL:
    """Build the kernel into the cache if it is missing, then load it."""
    path = object_path()
    if not path.is_file():
        _build(path)
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

    def fill(self, n: int) -> tuple[list[int], list[int], list[bool]]:
        """Draw the next ``n`` ops as (gaps, addresses, store flags).

        Recordings store these columns as they are, so the checks
        :class:`~repro.cpu.trace.MemOp` makes per op run here, once per
        chunk.
        """
        gaps = np.empty(n, np.int64)
        addrs = np.empty(n, np.int64)
        writes = np.empty(n, np.bool_)
        with self._bitgen.lock:
            self._lib.tracegen_fill(self._app, self._state, n,
                                    gaps.ctypes.data, addrs.ctypes.data,
                                    writes.ctypes.data)
        if gaps.min(initial=0) < 0 or addrs.min(initial=0) < 0:
            raise ValueError("trace kernel drew a negative gap or address")
        return gaps.tolist(), addrs.tolist(), writes.tolist()
