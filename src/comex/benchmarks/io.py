"""Instance files: frozen benchmark parameters in a text format.

JSON documents in which every real number is stored as a hex-float string,
so instances round-trip bit exactly across machines. Arrays become (nested)
lists; a "kind" tag selects the problem class on load.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .registry import PROBLEMS

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
    doc = _encode(problem.to_dict())
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_instance(path):
    data = _decode(json.loads(Path(path).read_text()))
    kind = data.get("kind")
    if kind not in PROBLEMS:
        raise ValueError(f"{path}: unknown instance kind {kind!r}")
    return PROBLEMS[kind].cls.from_dict(data)
