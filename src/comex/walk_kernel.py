"""Build, cache and load the native comex step, `_walk.c`; bind buffers to it.

The library is compiled with the system C compiler on the first call of
`load` (the first update or walk), not on import, and cached in the
package's `__pycache__` under a name carrying the hash of the source and the flags.
It is compiled under a temporary name and moved into place with
`os.replace`, so processes that build a cold cache at once all load a
complete file. `-ffp-contract=off` forbids fused multiply-adds and
`-ffast-math` is not used, so the kernel does the Python reference's IEEE
operations in the same order and the two paths give bit-identical results.
Without a compiler, or when the cache cannot be written, `load` returns
None, warns once per process, and the Python reference runs instead.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
import warnings

import numpy as np

__all__ = ["Workspace", "load"]

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_walk.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
COMPILER = "cc"
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_SIGNATURES = {      # name: (argument types after the workspace, result type)
    "surrogate_update": ([_F64, _F64, _F64, _F64], _I64),
    "field_build": ([], None),
    "flip_walk": ([_I64, _PTR, _PTR], _I64),
    "swap_walk": ([_I64, _PTR, _PTR, _PTR], _I64),
}
_BUFFERS = ("w", "psi", "x_aug", "stats", "A", "h", "c", "g")
_TABLES = ("padded", "high_ptr", "high_index")


class _Struct(ctypes.Structure):
    """The kernel's `Workspace` struct: sizes, then buffer and table addresses."""
    _fields_ = ([(name, _I64) for name in ("d", "p", "m", "n_high")]
                + [(name, _PTR) for name in _BUFFERS + _TABLES])


class Workspace:
    """One model's weights w, kernel buffers and basis tables, their
    addresses taken once, in `address`; a model keeps one for life. x is
    the view x_aug[:d] (x_aug[d] stays 1.0). The update writes w, psi and
    stats (loss, var_increment, z_range) from x; a LocalField's point and
    field are x, A, h, c and g, so each LocalField or update overwrites them."""

    def __init__(self, basis):
        d, p = basis.d, basis.p
        self.basis, self.w = basis, np.empty(2 * p)
        self.psi, self.x_aug, self.stats = np.empty(p), np.ones(d + 1), np.empty(3)
        self.x, self.A, self.h = self.x_aug[:d], np.zeros((d, d)), np.empty(d)
        self.c, self.g = np.empty(p - basis.high_start), np.zeros(d + 1)
        self._struct = _Struct(d, p, basis.m, self.c.size,
                               *(getattr(self, name).ctypes.data for name in _BUFFERS),
                               *(getattr(basis, name).ctypes.data for name in _TABLES))
        self.address = ctypes.addressof(self._struct)


@functools.cache
def load() -> ctypes.CDLL | None:
    """The kernel library, built on first use; None when it cannot be built."""
    try:
        return _build_and_open()
    except (OSError, subprocess.CalledProcessError) as exc:
        reason = exc.stderr.strip() if getattr(exc, "stderr", None) else exc
        warnings.warn(f"native walk kernel unavailable, using the Python walk: {reason}",
                      RuntimeWarning, stacklevel=3)
        return None


def _build_and_open() -> ctypes.CDLL:
    with open(SOURCE, "rb") as f:
        source = f.read()
    tag = hashlib.sha256(source + " ".join(FLAGS + LIBS).encode()).hexdigest()[:16]
    path = os.path.join(CACHE_DIR, f"_walk-{tag}.so")
    if not os.path.exists(path):
        os.makedirs(CACHE_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=CACHE_DIR) as tmp:
            built = os.path.join(tmp, "_walk.so")
            subprocess.run([COMPILER, *FLAGS, "-o", built, SOURCE, *LIBS],
                           check=True, capture_output=True, text=True)
            os.replace(built, path)
    library = ctypes.CDLL(path)
    for name, (argtypes, restype) in _SIGNATURES.items():
        function = getattr(library, name)
        function.argtypes, function.restype = [_PTR, *argtypes], restype
    return library
