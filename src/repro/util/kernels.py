"""Build, cache and load the simulator's C kernel.

The model kernel ships as C source in the package (``cpu/_core.c``, a
CPython extension module: the synthetic traces' draw loop and the core,
memory side and event loop types).  It is compiled on first use with
sysconfig's compiler and flags for this interpreter's extensions, against
numpy's headers and its random-distributions library
(``numpy/random/lib/libnpyrandom.a``), so the trace draws are numpy's own.
The build is cached under ``$XDG_CACHE_HOME/repro/`` (default
``~/.cache/repro/``) as ``<stem>-<source digest>-numpy<version><extension
suffix>``: a changed source, numpy version or interpreter gets a new
entry.  A build is installed with an atomic ``os.replace``, so concurrent
first users each load a whole object.  A failed build raises
:class:`KernelBuildError`; there is no Python fallback.

Nothing imports this module before the first trace generation or the
first machine build, so ``import repro`` neither loads nor builds the
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

import numpy as np

__all__ = ["KernelBuildError", "build", "cache_dir", "load_extension",
           "object_path"]


class KernelBuildError(RuntimeError):
    """The C kernel could not be compiled."""


def cache_dir() -> Path:
    """Where built kernels live: ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro"


def object_path(source: Path) -> Path:
    """The cache entry for ``source`` under this numpy and interpreter."""
    digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    return cache_dir() / (f"{source.stem}-{digest}-numpy{np.__version__}"
                          f"{sysconfig.get_config_var('EXT_SUFFIX')}")


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
            f"run ({exc}); the simulator's kernel needs a C compiler"
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
    extensions (``LDSHARED`` with ``CFLAGS`` and ``CCSHARED``), plus
    numpy's include directory and random-distributions library, with
    floating-point contraction off so the draws round as numpy's do.
    """
    path = object_path(source)
    if not path.is_file():
        var = sysconfig.get_config_var
        npyrandom = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
        build(source, path, [
            *shlex.split(var("LDSHARED")), *shlex.split(var("CFLAGS") or ""),
            *shlex.split(var("CCSHARED") or ""), "-fno-fast-math",
            "-ffp-contract=off", "-I", sysconfig.get_paths()["include"],
            "-I", np.get_include(), str(source), str(npyrandom), "-lm"])
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
