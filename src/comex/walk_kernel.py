"""The comex step on a model's `Workspace`, and the stage loop of a
contamination instance bound as a `Contamination`: native in `_walk.c`, or
their Python twins.

`surrogate_update`, `flip_walk`, `swap_walk` and `contamination_violation`
call the kernel function of the same name when `load` gives the library,
and otherwise its twin here, `_surrogate_update`, `_flip_walk`,
`_swap_walk` or `_contamination_violation`. Each C function with a
reference has a twin named with a leading underscore (`_field_build`,
`_pair_sum` and `_negate_high` too) that does its IEEE operations in the
same order, so the path changes speed, never results. Each exported
function takes its bound struct first: a `Workspace` or a `Contamination`,
whose nested `_Struct` mirrors the C typedef of the same name.

`load` compiles the library with the system C compiler on first use, not on
import, and caches it in the package's `__pycache__` under a name carrying
the hash of the source and the flags. It is compiled under a temporary name
and moved into place with `os.replace`, so processes that build a cold cache
at once all load a complete file. `-ffp-contract=off` forbids fused
multiply-adds and `-ffast-math` is not used. Without a compiler, or when
the cache cannot be written, `load` returns None and warns once per process.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import operator
import os
import warnings

import numpy as np

__all__ = ["Workspace", "Contamination", "load", "ordered_sum", "surrogate_update",
           "flip_walk", "swap_walk", "contamination_violation"]

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_walk.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
COMPILER = "cc"
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_SIGNATURES = {      # name: (argument types after the bound struct, result type)
    "surrogate_update": ([_F64, _F64, _F64, _F64], _I64),
    "flip_walk": ([_I64, _PTR, _PTR], _I64),
    "swap_walk": ([_I64, _PTR, _PTR, _PTR], _I64),
    "contamination_violation": ([], _F64),
}
_BUFFERS = ("w", "psi", "x_aug", "stats", "A", "h", "c", "g")
_TABLES = ("padded", "high_ptr", "high_index")
_STAGE_ARRAYS = ("x", "init_z", "rates_a", "rates_b", "z")


class Workspace:
    """One model's weights w, kernel buffers and basis tables, their
    addresses taken once, in `address`; a model keeps one for life. x is
    the view x_aug[:d] (x_aug[d] stays 1.0). The update writes w, psi and
    stats (loss, var_increment, z_range) from x; a walk writes x and its
    field A, h, c and g, which the next walk builds afresh."""

    class _Struct(ctypes.Structure):
        """The C `Workspace`: sizes, then buffer and table addresses."""
        _fields_ = ([(name, _I64) for name in ("d", "p", "m", "n_high")]
                    + [(name, _PTR) for name in _BUFFERS + _TABLES])

    def __init__(self, basis):
        d, p = basis.d, basis.p
        self.basis, self.w = basis, np.empty(2 * p)
        self.psi, self.x_aug, self.stats = np.empty(p), np.ones(d + 1), np.empty(3)
        self.x, self.A, self.h = self.x_aug[:d], np.zeros((d, d)), np.empty(d)
        self.c, self.g = np.empty(p - basis.high_start), np.zeros(d + 1)
        self._struct = self._Struct(d, p, basis.m, self.c.size,
                                    *(getattr(self, name).ctypes.data for name in _BUFFERS),
                                    *(getattr(basis, name).ctypes.data for name in _TABLES))
        self.address = ctypes.addressof(self._struct)


class Contamination:
    """A contamination instance's limit u and arrays init_z, rates_a and
    rates_b, read in place, with the buffers x (the bits of the evaluation
    at hand) and z (the paths' contamination, scratch), their addresses
    taken once, in `address`. The arrays must be C-contiguous float64 of
    shapes (n_paths,), (d, n_paths) and (d, n_paths). The addresses hold
    in one process only, so a pickled instance leaves its binding out."""

    class _Struct(ctypes.Structure):
        """The C `Contamination`: sizes, the limit, then array addresses."""
        _fields_ = ([("d", _I64), ("n_paths", _I64), ("u", _F64)]
                    + [(name, _PTR) for name in _STAGE_ARRAYS])

    def __init__(self, problem):
        self.u, self.init_z = float(problem.u), problem.init_z
        self.rates_a, self.rates_b = problem.rates_a, problem.rates_b
        d, n_paths = self.rates_a.shape[0], self.init_z.size
        for name, shape in (("init_z", (n_paths,)), ("rates_a", (d, n_paths)),
                            ("rates_b", (d, n_paths))):
            array = getattr(self, name)
            if array.dtype != np.float64 or not array.flags.c_contiguous or array.shape != shape:
                raise ValueError(f"{name} must be a C-contiguous float64 array of shape {shape}")
        self.x, self.z = np.empty(d), np.empty(n_paths)
        self._struct = self._Struct(d, n_paths, self.u,
                                    *(getattr(self, name).ctypes.data for name in _STAGE_ARRAYS))
        self.address = ctypes.addressof(self._struct)


def ordered_sum(values: np.ndarray, axis: int = -1):
    """Sum along `axis` one term at a time from 0.0 in index order, as the
    native kernel does (ndarray.sum adds pairwise). + 0.0 turns cumsum's
    -0.0 for all -0.0 terms into the +0.0 of a sum started at 0.0."""
    return np.cumsum(values, axis=axis)[..., -1] + 0.0


def surrogate_update(ws: Workspace, fx: float, eta: float, sparsity: float, v: float) -> int:
    """One observation step on ws.w at ws.x, v being the variance so far:
    psi, the prediction and ws.stats (loss, var_increment, z_range), then
    every weight times 1 or r, renormalised to mass `sparsity`. Returns 0,
    or 1 when the statistics overflow and 2 when the mass is too small to
    renormalise, leaving w as it was."""
    library = load()
    if library is None:
        return _surrogate_update(ws, fx, eta, sparsity, v)
    return library.surrogate_update(ws.address, fx, eta, sparsity, v)


def flip_walk(ws: Workspace, flips: np.ndarray, limits: np.ndarray) -> int:
    """Build the field at ws.x, then propose flipping flips[t], accepted when
    its delta is at most limits[t]; returns the number accepted. The draws
    are contiguous int64 and float64 arrays."""
    library = load()
    if library is None:
        return _flip_walk(ws, flips, limits)
    return library.flip_walk(ws.address, limits.size, flips.ctypes.data, limits.ctypes.data)


def swap_walk(ws: Workspace, take_plus: np.ndarray, take_minus: np.ndarray,
              limits: np.ndarray) -> int:
    """flip_walk for swaps of the take_plus[t]-th +1 coordinate with the
    take_minus[t]-th -1 coordinate, in lists built ascending from ws.x
    whose entries trade places on an accepted swap."""
    library = load()
    if library is None:
        return _swap_walk(ws, take_plus, take_minus, limits)
    return library.swap_walk(ws.address, limits.size, take_plus.ctypes.data,
                             take_minus.ctypes.data, limits.ctypes.data)


def contamination_violation(inst: Contamination) -> float:
    """The fraction of paths whose contamination exceeds inst.u after each
    stage, summed in stage order, for the bits in inst.x: stage i maps z to
    (1 - b_i) z where x_i is nonzero (intervene) and to a_i (1 - z) + z
    where it is 0, starting from init_z."""
    library = load()
    if library is None:
        return _contamination_violation(inst)
    return library.contamination_violation(inst.address)


def _surrogate_update(ws: Workspace, fx: float, eta: float, sparsity: float, v: float) -> int:
    p, w = ws.basis.p, ws.w
    ws.psi[:] = np.prod(ws.x_aug[ws.basis.padded], axis=1)
    loss = float(ordered_sum((w[:p] - w[p:]) * ws.psi)) - fx
    k = -2.0 * sparsity * loss
    z = np.concatenate([k * ws.psi, -(k * ws.psi)])
    with np.errstate(over="ignore", invalid="ignore"):
        w_pre = w / ordered_sum(w)
        z_bar = ordered_sum(w_pre * z)
        var_increment = float(ordered_sum(w_pre * (z - z_bar) ** 2))
    z_range = 4.0 * sparsity * abs(loss)
    ws.stats[:] = loss, var_increment, z_range
    if not (math.isfinite(z_range) and math.isfinite(v + var_increment)):
        return 1
    reweighted = np.where(z < 0.0, w * math.exp(-2.0 * abs(eta * k)), w)
    with np.errstate(divide="ignore", over="ignore"):
        scale = sparsity / ordered_sum(reweighted)
    if not math.isfinite(scale):
        return 2
    w[:] = reweighted * scale
    return 0


def _field_build(ws: Workspace) -> None:
    """A, h, c and g at ws.x for the coefficients w_plus - w_minus."""
    basis, d, p, start = ws.basis, ws.basis.d, ws.basis.p, ws.basis.high_start
    a, pairs, high = ws.w[:p] - ws.w[p:], slice(1 + d, start), basis.padded[start:]
    rows, cols = basis.padded[pairs, :2].reshape(-1, 2).T
    ws.A.fill(0.0)
    ws.A[rows, cols] = ws.A[cols, rows] = a[pairs]
    ws.h[:] = a[1:1 + d] + ordered_sum(ws.A * ws.x, axis=1)
    ws.c[:] = a[start:] * np.prod(ws.x_aug[high], axis=1)
    ws.g[:] = np.bincount(high.ravel(), minlength=d + 1, weights=np.repeat(ws.c, basis.m))


def _pair_sum(ws: Workspace, i: int, j: int) -> float:
    """sum of c_I over the degree >= 3 terms I containing i and j, added one
    by one in term order."""
    basis = ws.basis
    pos = basis.high_index[basis.high_ptr[i]:basis.high_ptr[i + 1]]
    both = (basis.padded[basis.high_start:][pos] == j).any(axis=1)
    return functools.reduce(operator.add, ws.c[pos[both]].tolist(), 0.0)


def _negate_high(ws: Workspace, k: int) -> None:
    """Negate c_I for the degree >= 3 terms containing k, updating g term by term."""
    basis = ws.basis
    pos = basis.high_index[basis.high_ptr[k]:basis.high_ptr[k + 1]]
    old = ws.c[pos]
    ws.c[pos] = -old
    coords = basis.padded[basis.high_start:][pos]
    np.subtract.at(ws.g, coords.ravel(), np.repeat(2.0 * old, coords.shape[1]))


def _flip_walk(ws: Workspace, flips: np.ndarray, limits: np.ndarray) -> int:
    _field_build(ws)
    h, g, h_at = ws.h, ws.g, ws.h.item
    rows = list(2.0 * ws.A)
    high = ws.c.size > 0
    x = ws.x.tolist()
    accepted = 0
    for i, limit in zip(flips.tolist(), limits.tolist()):
        xi = x[i]
        delta = -2.0 * xi * h_at(i)
        if high:
            delta -= 2.0 * g[i]
        if delta <= limit:
            h -= xi * rows[i]
            x[i] = -xi
            if high:
                _negate_high(ws, i)
            accepted += 1
    ws.x[:] = x
    return accepted


def _swap_walk(ws: Workspace, take_plus: np.ndarray, take_minus: np.ndarray,
               limits: np.ndarray) -> int:
    _field_build(ws)
    h, g, x, h_at = ws.h, ws.g, ws.x, ws.h.item
    rows = list(2.0 * ws.A)
    quad = (4.0 * ws.A).tolist()
    high = ws.c.size > 0
    plus, minus = np.flatnonzero(x == 1.0).tolist(), np.flatnonzero(x == -1.0).tolist()
    accepted = 0
    for a, b, limit in zip(take_plus.tolist(), take_minus.tolist(), limits.tolist()):
        i, j = plus[a], minus[b]            # x_i = +1, x_j = -1
        delta = 2.0 * (h_at(j) - h_at(i)) - quad[i][j]
        if high:
            delta += 4.0 * _pair_sum(ws, i, j) - 2.0 * (g[i] + g[j])
        if delta <= limit:
            plus[a], minus[b] = j, i
            x[i], x[j] = -1.0, 1.0
            h -= rows[i]
            h += rows[j]
            if high:
                _negate_high(ws, i)
                _negate_high(ws, j)
            accepted += 1
    return accepted


def _contamination_violation(inst: Contamination) -> float:
    restore = 1.0 - inst.rates_b
    z = inst.init_z
    violation = 0.0
    for i, intervene in enumerate(inst.x.tolist()):
        z = restore[i] * z if intervene else inst.rates_a[i] * (1.0 - z) + z
        violation += np.count_nonzero(z > inst.u) / z.size
    return violation


@functools.cache
def load() -> ctypes.CDLL | None:
    """The kernel library, built on first use; None when it cannot be built."""
    try:
        return _build_and_open()
    except OSError as exc:
        warnings.warn(f"native kernel unavailable, using the Python twins: {exc}",
                      RuntimeWarning, stacklevel=4)
        return None


def _build_and_open() -> ctypes.CDLL:
    with open(SOURCE, "rb") as f:
        source = f.read()
    tag = hashlib.sha256(source + " ".join(FLAGS + LIBS).encode()).hexdigest()[:16]
    path = os.path.join(CACHE_DIR, f"_walk-{tag}.so")
    if not os.path.exists(path):
        # Imported only to compile: subprocess and its modules take ~0.4 MB,
        # which a run from a warm cache does without.
        import subprocess
        import tempfile
        os.makedirs(CACHE_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=CACHE_DIR) as tmp:
            built = os.path.join(tmp, "_walk.so")
            compiled = subprocess.run([COMPILER, *FLAGS, "-o", built, SOURCE, *LIBS],
                                      capture_output=True, text=True)
            if compiled.returncode:
                raise OSError(compiled.stderr.strip())
            os.replace(built, path)
    library = ctypes.CDLL(path)
    for name, (argtypes, restype) in _SIGNATURES.items():
        function = getattr(library, name)
        function.argtypes, function.restype = [_PTR, *argtypes], restype
    return library
