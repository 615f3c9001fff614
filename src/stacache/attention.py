"""Chunk-causal attention over cached and in-flight tokens.

Queries of one chunk attend bidirectionally to every token assembled for
that chunk (the cache snapshot plus the chunk itself); causality across
chunks is enforced upstream by what the caller puts into the key set, not
by masking here. The logit for a merged token carries an additive ln(count)
so that one representative with count n reproduces exactly the attention a
set of n duplicated keys would have received.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptySupportError


@dataclass
class AttentionResult:
    outputs: np.ndarray  # (n_queries, d_h) attention outputs
    mass: np.ndarray     # (n_keys,) attention mass received per key


def attend(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    counts: np.ndarray,
    d_h: int,
) -> AttentionResult:
    """Scaled dot-product attention with a count-duplication bias.

    logit[i, j] = q_i . k_j / sqrt(d_h) + ln(counts[j]); rows are
    softmax-normalized over all keys. Returns the outputs and the per-key
    attention mass summed over queries; the mass sums to the number of
    queries up to rounding.

    The logits, shifted logits and weights share one Q x K buffer: every
    step after the product writes in place, with the same IEEE operations
    in the same order as the allocating form, so the results are
    bit-identical to it.
    """
    queries = np.asarray(queries, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    if queries.ndim != 2 or keys.ndim != 2 or values.ndim != 2:
        raise DimensionError("queries, keys, values must all be 2-D")
    if keys.shape[0] == 0:
        raise EmptySupportError("attend called with an empty key set")
    if queries.shape[1] != d_h or keys.shape[1] != d_h:
        raise DimensionError(
            f"head dim mismatch: queries {queries.shape}, keys {keys.shape}, d_h={d_h}"
        )
    if values.shape != keys.shape:
        raise DimensionError(f"values shape {values.shape} != keys shape {keys.shape}")
    if counts.shape != (keys.shape[0],):
        raise DimensionError(f"counts shape {counts.shape} != ({keys.shape[0]},)")
    # written so that NaN fails too; an infinite count would turn ln(count)
    # into inf and the whole row into NaN
    if not (np.isfinite(counts).all() and (counts >= 1.0).all()):
        raise DimensionError("counts must all be finite and >= 1")

    w = queries @ keys.T
    np.divide(w, np.sqrt(float(d_h)), out=w)
    np.add(w, np.log(counts)[None, :], out=w)
    np.subtract(w, w.max(axis=1, keepdims=True), out=w)
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    return AttentionResult(outputs=w @ values, mass=w.sum(axis=0))
