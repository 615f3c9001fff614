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
from typing import Optional

import numpy as np

from .errors import DimensionError, EmptySupportError


@dataclass
class AttentionResult:
    outputs: np.ndarray  # (n_queries, d_h) attention outputs
    mass: np.ndarray     # (n_keys,) attention mass received per key


class Workspace:
    """A reusable float64 buffer for `attend`'s Q x K weights.

    One workspace serves a sequence of calls that never overlap; it must
    not be shared between threads. It grows geometrically, so a key set
    that grows by a chunk per call reallocates O(log t) times, and it never
    shrinks: a smaller call uses a prefix, and the slack pages it never
    touches stay non-resident.
    """

    def __init__(self) -> None:
        self._buf = np.empty(0)

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        """A C-contiguous (rows, cols) view over the buffer's prefix."""
        size = rows * cols
        if size > self._buf.size:
            self._buf = np.empty(max(size, 2 * self._buf.size))
        return self._buf[:size].reshape(rows, cols)


def attend(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    counts: np.ndarray,
    d_h: int,
    workspace: Optional[Workspace] = None,
) -> AttentionResult:
    """Scaled dot-product attention with a count-duplication bias.

    logit[i, j] = q_i . k_j / sqrt(d_h) + ln(counts[j]); rows are
    softmax-normalized over all keys. Returns the outputs and the per-key
    attention mass summed over queries; the mass sums to the number of
    queries up to rounding.

    The logits, shifted logits and weights share one Q x K buffer: every
    step after the product writes in place, with the same IEEE operations
    in the same order as the allocating form, so the results are
    bit-identical to it. With a `workspace` that buffer is the workspace's
    and the call allocates only O(Q + K); without one it is allocated
    afresh. The outputs and mass are always fresh arrays, so a later call
    through the same workspace leaves them unchanged.
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

    out = None if workspace is None else workspace.matrix(queries.shape[0], keys.shape[0])
    w = np.matmul(queries, keys.T, out=out)
    np.divide(w, np.sqrt(float(d_h)), out=w)
    bias = np.log(counts)
    # With every count 1 the bias is all zeros. Adding it changes no bit
    # that survives: x + 0.0 differs from x only by turning -0.0 into
    # +0.0, and the max shift and exp map both to the same weight.
    if bias.any():
        np.add(w, bias[None, :], out=w)
    np.subtract(w, w.max(axis=1, keepdims=True), out=w)
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    return AttentionResult(outputs=w @ values, mass=w.sum(axis=0))
