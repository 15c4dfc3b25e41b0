"""Small C kernels, built on first use by the system C compiler.

Each kernel is one C source shipped in this package (``<name>.c``).
:func:`load` compiles it into a shared library with the compiler Python
was built with (``sysconfig``'s ``CC``, else ``cc``) and loads it with
:mod:`ctypes`.  There is no Python extension module and no build step at
install time.

Libraries are cached per user under ``$XDG_CACHE_HOME/repro/native``
(``~/.cache/repro/native`` when that is unset), or under the temp
directory when the cache directory cannot be written.  A library's file
name carries the sha256 of its source, the compiler command, the flags
and the platform, so an edited source or another compiler never loads a
stale build.  A build is written under a temporary name and moved into
place with :func:`os.replace`, so processes that race to build the same
library each load a complete one.

Every kernel has a numpy twin that stays the reference.  When a library
cannot be built or loaded (no compiler, a failed compile), :func:`load`
returns ``None`` and emits a
:class:`~repro.backend.base.BackendFallbackWarning`; callers memoise the
result, so a process warns once per kernel and then runs the numpy code.
The flags keep the compiler from contracting or reordering float
arithmetic (``-ffp-contract=off -fno-fast-math``), which the kernels'
bit-identity with numpy relies on.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from repro.backend.base import BackendFallbackWarning

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable

__all__ = ["FLAGS", "cache_dirs", "compiler", "load", "source"]

FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-fast-math")


def compiler() -> list[str]:
    """The C compiler command: ``sysconfig``'s ``CC`` if found, else ``cc``."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if cc and shutil.which(cc[0]):
        return cc
    return ["cc"]


def cache_dirs() -> list[Path]:
    """Where libraries are cached, in order of preference."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return [base / "repro" / "native",
            Path(tempfile.gettempdir()) / f"repro-native-{_uid()}"]


def source(name: str) -> Traversable:
    """The shipped C source of kernel ``name``."""
    return resources.files(__name__) / f"{name}.c"


def _uid() -> int:
    return os.getuid() if hasattr(os, "getuid") else 0


def _private_dir(directory: Path) -> bool:
    """Create ``directory`` if needed; True if it is ours to build into."""
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        # a directory someone else made could hold a planted library
        return directory.stat().st_uid == _uid()
    except OSError:
        return False


def _fallback(name: str, reason: str) -> None:
    warnings.warn(
        f"native kernel {name!r} is unavailable ({reason}); "
        "running its numpy reference code instead",
        BackendFallbackWarning, stacklevel=3)


def load(name: str) -> ctypes.CDLL | None:
    """Build (once per cache) and load kernel ``name``; ``None`` if it can't.

    ``None`` comes with one :class:`BackendFallbackWarning`.  A cache
    directory that cannot be written is skipped for the next one.
    """
    cc = compiler()
    with resources.as_file(source(name)) as src:
        key = hashlib.sha256(b"\0".join([
            src.read_bytes(), shlex.join([*cc, *FLAGS]).encode(),
            f"{sys.platform}-{platform.machine()}".encode(),
        ])).hexdigest()[:16]
        for directory in cache_dirs():
            if not _private_dir(directory):
                continue
            lib = directory / f"{name}-{key}.so"
            if not lib.exists():
                try:
                    fd, tmp = tempfile.mkstemp(
                        prefix=f".{name}-", suffix=".so", dir=directory)
                except OSError:
                    continue
                os.close(fd)
                try:
                    subprocess.run([*cc, *FLAGS, "-o", tmp, str(src)],
                                   check=True, capture_output=True)
                    os.replace(tmp, lib)
                except (OSError, subprocess.CalledProcessError) as exc:
                    Path(tmp).unlink(missing_ok=True)
                    _fallback(name, f"{shlex.join(cc)} failed: "
                                    f"{_first_line(exc)}")
                    return None
            try:
                return ctypes.CDLL(str(lib))
            except OSError as exc:
                _fallback(name, f"cannot load {lib}: {exc}")
                return None
    _fallback(name, "no writable cache directory")
    return None


def _first_line(exc: Exception) -> str:
    stderr = getattr(exc, "stderr", None) or b""
    lines = stderr.decode(errors="replace").strip().splitlines()
    return lines[0] if lines else str(exc)
