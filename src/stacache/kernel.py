"""Float16 quantization of cache contents, on float64 arrays.

With quantization on, both caches round the keys and values they keep
through half precision; this is the one definition of that rounding.
"""

from __future__ import annotations

import numpy as np

# Largest finite float16 value; casts beyond this saturate instead of
# producing inf so that cache contents stay finite.
HALF_MAX = 65504.0


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
