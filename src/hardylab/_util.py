"""Shared helpers: deterministic JSON, digests, slope fits."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def stable_json(obj) -> str:
    """Serialize with sorted keys and repr-exact floats (byte-reproducible)."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def sha256_of_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def fit_slope(xs, ys) -> float:
    """Least-squares slope of ys against xs."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xm = xs - xs.mean()
    denom = float(np.dot(xm, xm))
    if denom == 0.0:
        return 0.0
    return float(np.dot(xm, ys - ys.mean()) / denom)


def fixed_order_sum(values) -> float:
    """Pairwise (fixed reduction tree) sum for bit-reproducible accumulation."""
    vals = np.asarray(values, dtype=float).reshape(-1)
    if not vals.size:
        return 0.0
    while vals.size > 1:
        odd = vals.size % 2
        nxt = vals[0:vals.size - odd:2] + vals[1::2]
        vals = np.append(nxt, vals[-1:]) if odd else nxt
    return float(vals[0])
