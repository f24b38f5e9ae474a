"""Instance files: frozen benchmark parameters in a text format.

JSON documents in which every real number is stored as a hex-float string,
so instances round-trip bit exactly across machines. Arrays become (nested)
lists. A file holds the "kind" tag (the registry key) and then the init
fields of that kind's dataclass in declaration order; the dataclass is the
only declaration of the format.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .registry import PROBLEMS, as_scalar, kind_of

__all__ = ["save_instance", "load_instance"]


def _encode(value):
    if isinstance(value, float):
        return {"hex": value.hex()}
    if isinstance(value, np.floating):
        return {"hex": float(value).hex()}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_encode(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _decode(value):
    if isinstance(value, dict):
        if set(value) == {"hex"}:
            return float.fromhex(value["hex"])
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def save_instance(problem, path) -> None:
    doc = {"kind": kind_of(problem)}
    doc.update((f.name, getattr(problem, f.name)) for f in fields(problem) if f.init)
    Path(path).write_text(json.dumps(_encode(doc), indent=2) + "\n")


def load_instance(path):
    """Build the instance a file holds. A missing or unknown key, or an int or
    float field of the wrong type (see registry.as_scalar), is a ValueError
    naming the file and the key; so is any parameter the class's
    constructor rejects."""
    data = _decode(json.loads(Path(path).read_text()))
    kind = data.pop("kind", None) if isinstance(data, dict) else None
    if not isinstance(kind, str) or kind not in PROBLEMS:
        raise ValueError(f"{path}: unknown instance kind {kind!r}")
    cls = PROBLEMS[kind].cls
    types = get_type_hints(cls)
    names = [f.name for f in fields(cls) if f.init]
    for key in data:
        if key not in names:
            raise ValueError(f"{path}: unknown key {key!r} for a {kind} instance")
    for name in names:
        if name not in data:
            raise ValueError(f"{path}: missing key {name!r}")
        if types[name] in (int, float):
            data[name] = as_scalar(data[name], types[name], f"{path}: key {name!r}")
    try:
        return cls(**data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
