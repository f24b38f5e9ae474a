"""Build, cache and load the native acquisition walk, `_walk.c`.

The library is compiled with the system C compiler on the first call of
`load` (the first walk), not on import, and cached in the package's
`__pycache__` under a name carrying the hash of the source and the flags.
It is compiled under a temporary name and moved into place with
`os.replace`, so processes that build a cold cache at once all load a
complete file. `-ffp-contract=off` forbids fused multiply-adds and
`-ffast-math` is not used, so the kernel does the Python walk's IEEE
operations in the same order and the two paths give bit-identical results.
Without a compiler, or when the cache cannot be written, `load` returns
None, warns once per process, and the walk runs in Python.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import warnings

__all__ = ["load"]

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_walk.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
COMPILER = "cc"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
_HIGH = [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR]  # n_high, width, g, c, CSR ptr/index, coords
_SIGNATURES = {
    "flip_walk": [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR] + _HIGH,
    "swap_walk": [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR] + _HIGH,
}

_UNSET = object()
_library = _UNSET


def load() -> ctypes.CDLL | None:
    """The walk library, built on first use; None when it cannot be built."""
    global _library
    if _library is _UNSET:
        try:
            _library = _build_and_open()
        except (OSError, subprocess.CalledProcessError) as exc:
            _library = None
            reason = exc.stderr.strip() if getattr(exc, "stderr", None) else exc
            warnings.warn(f"native walk kernel unavailable, using the Python walk: {reason}",
                          RuntimeWarning, stacklevel=3)
    return _library


def _build_and_open() -> ctypes.CDLL:
    with open(SOURCE, "rb") as f:
        source = f.read()
    tag = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()[:16]
    path = os.path.join(CACHE_DIR, f"_walk-{tag}.so")
    if not os.path.exists(path):
        os.makedirs(CACHE_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=CACHE_DIR) as tmp:
            built = os.path.join(tmp, "_walk.so")
            subprocess.run([COMPILER, *FLAGS, "-o", built, SOURCE],
                           check=True, capture_output=True, text=True)
            os.replace(built, path)
    library = ctypes.CDLL(path)
    for name, argtypes in _SIGNATURES.items():
        function = getattr(library, name)
        function.argtypes, function.restype = argtypes, _I64
    return library
