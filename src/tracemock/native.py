"""Native DP kernels: build ``_dp.c`` on first use and load it with ctypes.

ctypes releases the GIL for the duration of each call, so alignment work
in one thread does not stall the others.  The shared library is compiled
with the system ``cc`` into a per-user cache directory, keyed by a hash of
the source, the compiler and the flags, and published by atomic rename; it
is never written next to the source.  When there is no compiler, or the
build or load fails, one warning is logged and ``kernels()`` returns None:
callers then use the numpy reference code, which gives identical results.
"""

import ctypes
import functools
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_dp.c")
_FLAGS = ("-O3", "-shared", "-fPIC", "-fno-fast-math", "-ffp-contract=off")
_BUILD_TIMEOUT_S = 120

_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p
_SIGNATURES = {  # name: (argument types, result type)
    "prototype_scores": ((_ptr, _i64, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr,
                          _i64, _i64, _ptr), None),
    "dp_fill": ((_ptr, _ptr, _ptr, _i64, _i64, _ptr, _ptr, _ptr), None),
    "dp_trace": ((_ptr, _ptr, _i64, _i64, _ptr), _i64),
}
_VIEW = ctypes.c_char * 0


def pointer(array):
    """A kernel's pointer argument for the data of a contiguous numpy array.

    A zero-length ctypes view of a writable array converts in about a third
    of the time ``array.ctypes.data`` takes; a read-only array, which ctypes
    cannot view, takes the slow way.
    """
    try:
        return _VIEW.from_buffer(array)
    except TypeError:
        return array.ctypes.data


def cache_dir() -> Path:
    """Per-user cache directory for built kernels."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "tracemock"


def _build(compiler: str, source: Path, directory: Path) -> Path:
    code = source.read_bytes()
    key = hashlib.sha256(b"\0".join(
        [code, compiler.encode(), platform.machine().encode(),
         *(f.encode() for f in _FLAGS)])).hexdigest()[:16]
    target = directory / f"{source.stem}-{key}.so"
    if target.exists():
        return target
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=target.name, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([compiler, *_FLAGS, "-o", tmp, str(source)],
                       check=True, capture_output=True, timeout=_BUILD_TIMEOUT_S)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def load(source: Path, directory: Path) -> ctypes.CDLL | None:
    """Build (if needed) and load the kernels; None, with a warning, on failure."""
    compiler = shutil.which("cc")
    if compiler is None:
        logger.warning("no C compiler (cc) found; using the numpy DP path")
        return None
    try:
        lib = ctypes.CDLL(str(_build(compiler, source, directory)))
        for name, (argtypes, restype) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = restype
    except subprocess.CalledProcessError as exc:
        logger.warning("building %s failed; using the numpy DP path: %s",
                       source.name, exc.stderr.decode(errors="replace").strip())
        return None
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        logger.warning("cannot build or load %s; using the numpy DP path: %s",
                       source.name, exc)
        return None
    return lib


@functools.cache
def kernels() -> ctypes.CDLL | None:
    """The process-wide kernel library, built on first call; None if unavailable."""
    return load(SOURCE, cache_dir())
