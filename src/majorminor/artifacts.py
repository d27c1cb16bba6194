"""Strict JSON for the package's artifacts.

`json.dumps` writes non-finite floats as the tokens NaN and Infinity, which
are not JSON: strict readers reject a file holding one.  Every JSON artifact
(`manifest.json`, `report.json`, `certification.json`) is written through
`strict_json`, which writes each non-finite float as null, so a value that
left the finite range reads as missing.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["strict_json"]


def _finite(obj):
    if isinstance(obj, np.ndarray):
        return _finite(obj.tolist())
    if isinstance(obj, np.generic):
        return _finite(obj.item())
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def strict_json(payload, **kwargs) -> str:
    """`json.dumps(payload, **kwargs)` with every non-finite float written as
    null; NumPy arrays and scalars are written as lists and numbers."""
    return json.dumps(_finite(payload), allow_nan=False, **kwargs)
