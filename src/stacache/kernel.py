"""Small numeric primitives used by the caches and the attention engine.

Everything here works on float64 and is deliberately boring: these are the
operations whose exact semantics the rest of the package is built on, so
they validate their inputs strictly instead of broadcasting their way past
mistakes.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateVectorError, DimensionError

# Largest finite float16 value; casts beyond this saturate instead of
# producing inf so that cache contents stay finite.
HALF_MAX = 65504.0


def _vec(a, name: str = "vector") -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {a.shape}")
    return a


def weighted_mean(vectors, weights) -> np.ndarray:
    """Convex combination sum(w_i * v_i) / sum(w_i) of row vectors."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise DimensionError(f"need a non-empty 2-D stack of vectors, got shape {vectors.shape}")
    weights = _vec(weights, "weights")
    if weights.shape[0] != vectors.shape[0]:
        raise DimensionError(f"{vectors.shape[0]} vectors but {weights.shape[0]} weights")
    if not (weights > 0.0).all():
        raise DegenerateVectorError("weights must be strictly positive")
    return (weights[:, None] * vectors).sum(axis=0) / weights.sum()


def half_roundtrip(a) -> np.ndarray:
    """Quantize through float16 and back to float64.

    Values past the float16 range saturate to +-HALF_MAX; callers that
    care can count those entries beforehand with np.abs(a) > HALF_MAX.
    Idempotent: a second roundtrip is the identity.
    """
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(over="ignore"):
        h = a.astype(np.float16)
    out = h.astype(np.float64)
    np.copyto(out, np.copysign(HALF_MAX, out), where=np.isinf(h))
    return out
