"""Build, cache and load the simulator's C kernels.

Two kernels ship as C source in the package: the trace generator
(``workloads/_tracegen.c``, loaded with ctypes by
:mod:`repro.workloads.tracegen`) and the core model
(``cpu/_core.c``, a CPython extension type that
:class:`~repro.cpu.core_model.TraceCore` subclasses).  Each is compiled on
first use with sysconfig's compiler and cached under
``$XDG_CACHE_HOME/repro/`` (default ``~/.cache/repro/``) as
``<stem>-<source digest><tag>``, where the tag names whatever else the
object depends on: numpy's version and the platform for the trace kernel,
the interpreter's extension suffix for the core.  A changed source or
interpreter therefore gets a new entry, and a build is installed with an
atomic ``os.replace``, so concurrent first users each load a whole
object.  A failed build raises :class:`KernelBuildError`; there is no
Python fallback.

Nothing imports this module before the first trace generation or the
first machine build, so ``import repro`` neither loads nor builds a
kernel.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType

__all__ = ["KernelBuildError", "build", "cache_dir", "cached_object",
           "load_extension"]


class KernelBuildError(RuntimeError):
    """A C kernel could not be compiled."""


def cache_dir() -> Path:
    """Where built kernels live: ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro"


def cached_object(source: Path, tag: str) -> Path:
    """The cache entry for ``source`` built under ``tag``."""
    digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    return cache_dir() / f"{source.stem}-{digest}{tag}"


def build(source: Path, target: Path, command: list[str]) -> None:
    """Run ``command -o TMP`` and install ``TMP`` at ``target`` atomically.

    ``command`` is the whole compiler invocation but its output flag; it
    names ``source``, which appears in the error of a failed build.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp",
                               dir=target.parent)
    os.close(fd)
    cmd = [*command, "-o", tmp]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        os.unlink(tmp)
        raise KernelBuildError(
            f"cannot compile {source.name}: {shlex.join(cmd)!r} did not "
            f"run ({exc}); the simulator's kernels need a C compiler"
        ) from exc
    if proc.returncode != 0:
        os.unlink(tmp)
        raise KernelBuildError(
            f"cannot compile {source.name}: {shlex.join(cmd)!r} exited "
            f"{proc.returncode}:\n{proc.stderr}"
        )
    os.replace(tmp, target)


def load_extension(name: str, source: Path) -> ModuleType:
    """Import the CPython extension module ``name`` built from ``source``,
    compiling it into the cache first if it is missing.

    The build is the one sysconfig describes for this interpreter's
    extensions (``LDSHARED`` with ``CFLAGS`` and ``CCSHARED``), and the
    entry's name ends in the interpreter's extension suffix.
    """
    path = cached_object(source, sysconfig.get_config_var("EXT_SUFFIX"))
    if not path.is_file():
        var = sysconfig.get_config_var
        build(source, path, [
            *shlex.split(var("LDSHARED")), *shlex.split(var("CFLAGS") or ""),
            *shlex.split(var("CCSHARED") or ""),
            "-I", sysconfig.get_paths()["include"], str(source)])
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
