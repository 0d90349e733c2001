"""Artifact IO helpers: results tables, model parameters and JSON metadata."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np


def save_json(path: str | Path, payload: Mapping[str, Any]) -> Path:
    """Serialise ``payload`` to pretty-printed JSON, converting numpy scalars."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=_to_builtin)
    return path


def load_json(path: str | Path) -> dict[str, Any]:
    """Load a JSON file written by :func:`save_json`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)


def save_arrays(path: str | Path, arrays: Mapping[str, np.ndarray]) -> Path:
    """Save a mapping of named arrays as a compressed ``.npz`` archive."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **{key: np.asarray(value) for key, value in arrays.items()})
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Load an ``.npz`` archive back into a plain dictionary."""
    with np.load(Path(path)) as archive:
        return {key: archive[key] for key in archive.files}


def _to_builtin(value: Any) -> Any:
    """Convert numpy types to JSON-serialisable built-ins."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value)!r} is not JSON serialisable")
