"""The loader of the native kernel: build on first use, cache by source
hash, race-free installs, the fallback to the Python twins, and the
conventions that bind each exported C function to its ctypes declaration."""

import ctypes
import inspect
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import comex
from comex import walk_kernel
from comex.acquisition import walk
from comex.basis import MonomialBasis
from comex.domain import SumConstrained, Unconstrained, sample_uniform
from comex.surrogate import MonomialSurrogate

needs_compiler = pytest.mark.skipif(shutil.which(walk_kernel.COMPILER) is None,
                                    reason="no C compiler")


@pytest.fixture
def fresh_loader(monkeypatch):
    """A loader that has not run yet, and is reset again after the test."""
    walk_kernel.load.cache_clear()
    yield
    monkeypatch.undo()
    walk_kernel.load.cache_clear()


@pytest.fixture
def cold_cache(tmp_path, monkeypatch, fresh_loader):
    """An empty cache directory and a loader that has not run yet."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(walk_kernel, "CACHE_DIR", str(cache))
    return cache


def walk_results():
    """Final points and fields of walks on both constraint families, m = 3."""
    rng = np.random.default_rng(11)
    model = MonomialSurrogate(MonomialBasis(7, 3), 1.0, learning_rate=0.3)
    for _ in range(6):
        model.update(sample_uniform(Unconstrained(7), rng), rng.uniform(-1.0, 1.0))
    results = []
    for constraint in (Unconstrained(7), SumConstrained(7, 3)):
        x, accepted = walk(model, sample_uniform(constraint, rng), constraint, 0.2, 200, rng)
        ws = model.workspace
        results.append((x.tobytes(), ws.h.tobytes(), ws.g.tobytes(), accepted))
    return results


def reload_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = walk_results()
    return results, [str(w.message) for w in caught if w.category is RuntimeWarning]


def test_without_a_compiler_the_walk_falls_back_once_with_the_same_results(
        native_walk, cold_cache, tmp_path, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(walk_kernel, "load", lambda: native_walk)
        native = walk_results()
    monkeypatch.setenv("PATH", str(tmp_path))           # no compiler on PATH
    fallback, messages = reload_warnings()
    assert len(messages) == 1 and "using the Python twins" in messages[0]
    assert walk_kernel.COMPILER in messages[0]
    assert walk_kernel.load() is None
    assert fallback == native


def test_an_unwritable_cache_falls_back_with_a_warning(tmp_path, monkeypatch, fresh_loader):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(walk_kernel, "CACHE_DIR", str(blocker / "cache"))
    _, messages = reload_warnings()
    assert len(messages) == 1 and str(blocker) in messages[0]


@needs_compiler
def test_two_processes_building_a_cold_cache_load_the_same_file(tmp_path):
    script = ("import sys; from comex import walk_kernel; "
              "walk_kernel.CACHE_DIR = sys.argv[1]; print(walk_kernel.load()._name)")
    src = str(Path(comex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    procs = [subprocess.Popen([sys.executable, "-W", "error", "-c", script, str(tmp_path)],
                              stdout=subprocess.PIPE, env=env, text=True)
             for _ in range(2)]
    loaded = [proc.communicate(timeout=120)[0].strip() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert loaded[0] == loaded[1]
    assert os.listdir(tmp_path) == [os.path.basename(loaded[0])]   # no temporaries left


@needs_compiler
def test_an_edited_source_is_rebuilt_and_an_unchanged_one_is_not(cold_cache, tmp_path,
                                                                 monkeypatch):
    source = tmp_path / "_walk.c"
    source.write_text(Path(walk_kernel.SOURCE).read_text())
    monkeypatch.setattr(walk_kernel, "SOURCE", str(source))
    built = [walk_kernel.load()._name]
    source.write_text(source.read_text() + "\n/* edited */\n")
    walk_kernel.load.cache_clear()
    built.append(walk_kernel.load()._name)
    assert built[0] != built[1]
    assert sorted(os.listdir(cold_cache)) == sorted(os.path.basename(p) for p in built)

    monkeypatch.setattr(walk_kernel, "COMPILER", "no-such-compiler")
    walk_kernel.load.cache_clear()
    assert walk_kernel.load()._name == built[1]         # from the cache, no compile


@needs_compiler
def test_a_source_that_does_not_compile_falls_back_naming_the_error(cold_cache, tmp_path,
                                                                    monkeypatch):
    source = tmp_path / "_walk.c"
    source.write_text("this is not C\n")
    monkeypatch.setattr(walk_kernel, "SOURCE", str(source))
    with pytest.warns(RuntimeWarning, match="using the Python twins: .*error"):
        assert walk_kernel.load() is None
    assert os.listdir(cold_cache) == []                 # no temporaries left


def test_importing_comex_loads_neither_the_kernel_nor_scipy():
    script = ("import sys; import comex; from comex import walk_kernel; "
              "assert walk_kernel.load.cache_info().currsize == 0; "
              "assert 'scipy' not in sys.modules; "
              "assert 'multiprocessing' not in sys.modules")
    src = str(Path(comex.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0


@needs_compiler
def test_the_kernel_compiles_cleanly_with_all_warnings(tmp_path):
    result = subprocess.run([walk_kernel.COMPILER, *walk_kernel.FLAGS, "-Wall", "-Wextra",
                             "-Werror", "-o", str(tmp_path / "_walk.so"), walk_kernel.SOURCE,
                             *walk_kernel.LIBS], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def c_typedefs() -> dict[str, list]:
    """Each `typedef struct {...} Name;` in the kernel source: its fields in
    order, as (name, ctypes type)."""
    source = Path(walk_kernel.SOURCE).read_text()
    structs = {}
    for body, typename in re.findall(r"typedef struct \{(.*?)\} (\w+);", source, re.S):
        declared = []
        for declaration in filter(str.strip, body.split(";")):
            ctype, names = re.fullmatch(r"\s*(?:const\s+)?(int64_t|double)\s+(.*)",
                                        declaration, re.S).groups()
            for name in (name.strip() for name in names.split(",")):
                scalar = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}[ctype]
                declared.append((name.lstrip("*"), ctypes.c_void_p if "*" in name else scalar))
        structs[typename] = declared
    return structs


def test_each_struct_mirror_declares_its_c_typedef_fields_in_order():
    """walk_kernel.Name._Struct and the C typedef Name must agree, or the
    kernel reads wrong addresses."""
    structs = c_typedefs()
    assert structs
    for typename, declared in structs.items():
        assert declared == getattr(walk_kernel, typename)._Struct._fields_, typename


def test_the_signatures_declare_the_exported_c_prototypes():
    """_SIGNATURES and the exported C functions must agree, or ctypes passes
    wrong arguments with no error: a pointer to a struct typedef `Name` first
    (whose mirror the test above checks), then each argument's kind, and the
    result type. Each exported function `name` is called through
    walk_kernel.name, which falls back to its twin _name, and both take the
    bound walk_kernel.Name first."""
    source, structs = Path(walk_kernel.SOURCE).read_text(), c_typedefs()
    kinds = {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "void": None}
    declared, bound = {}, {}
    for result, name, params in re.findall(r"^(\w+) (\w+)\(([^)]*)\)\s*\{", source, re.M):
        args = [re.fullmatch(r"\s*(?:const\s+)?(\w+)\s*(\*?)\s*\w+\s*", param).groups()
                for param in params.split(",")]
        bound[name], star = args[0]
        assert star == "*" and bound[name] in structs, name
        declared[name] = ([ctypes.c_void_p if star else kinds[ctype] for ctype, star in args[1:]],
                          kinds[result])
    assert declared == walk_kernel._SIGNATURES
    for name in declared:
        assert name in walk_kernel.__all__
        for function in (getattr(walk_kernel, name), getattr(walk_kernel, f"_{name}")):
            first = next(iter(inspect.signature(function).parameters.values()))
            assert first.annotation == bound[name], function
