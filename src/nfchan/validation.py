"""Input validation helpers shared by the functional API."""

from __future__ import annotations

import numpy as np

from .errors import InvalidGeometry


def as_vec2(p, name: str = "point") -> np.ndarray:
    """Coerce ``p`` to a finite float ndarray of shape (2,)."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (2,):
        raise InvalidGeometry(f"{name} must be a 2-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidGeometry(f"{name} must be finite, got {arr}")
    return arr


def as_points(pts, name: str = "points") -> np.ndarray:
    """Coerce to a finite float ndarray of shape (n, 2)."""
    arr = np.asarray(pts, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidGeometry(f"{name} must have shape (n, 2), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidGeometry(f"{name} must be finite")
    return arr


def check_positive(value, name: str):
    if not np.isfinite(value) or value <= 0:
        raise InvalidGeometry(f"{name} must be positive, got {value}")
    return float(value)


def check_finite(value, name: str):
    """A finite real or complex scalar, returned unchanged."""
    if not np.isfinite(value):
        raise InvalidGeometry(f"{name} must be finite, got {value}")
    return value


def check_parity(s) -> int:
    if s not in (+1, -1):
        raise InvalidGeometry(f"parity must be +1 or -1, got {s!r}")
    return int(s)


def check_strictly_increasing(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidGeometry(f"{name} must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise InvalidGeometry(f"{name} must be finite")
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise InvalidGeometry(f"{name} must be strictly increasing")
    return arr
