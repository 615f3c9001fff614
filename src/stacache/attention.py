"""Chunk-causal attention over cached and in-flight tokens.

Queries of one chunk attend bidirectionally to every token assembled for
that chunk (the cache snapshot plus the chunk itself); causality across
chunks is enforced upstream by what the caller puts into the key set, not
by masking here. The logit for a merged token carries an additive ln(count)
so that one representative with count n reproduces exactly the attention a
set of n duplicated keys would have received.

The softmax is normalized after the products, as in FlashAttention (Dao
et al., 2022): each output row and each query's share of the mass is
divided by its row sum once, and the queries carry the 1/sqrt(d_h) scale
into Q.K^T, so no pass divides the Q x K weights.
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


# The ufunc buffer size, in elements, for attend's passes after the product.
# Under numpy's default of 8192, numpy 2 runs a row broadcast over rows
# shorter than the buffer through its buffered iterator: at 256 x 797 on a
# 2-vCPU AVX-512 host the max subtract took 216 us that way and 126 us
# unbuffered. Key sets of a frame's tokens or more are far longer than 64
# columns. The operations and their order are the same either way, so only
# the speed changes, never a bit.
_ROW_BUFSIZE = 64


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

    The product takes the queries already divided by sqrt(d_h). The logits,
    shifted logits and unnormalized weights e[i, j] = exp(logit[i, j] -
    max_j logit[i, j]) then share one Q x K buffer, each step writing in
    place. With the row sums s_i, the outputs are (e @ values) / s and the
    mass is the GEMV (1 / s) @ e, so no pass divides the Q x K weights.
    With a `workspace` the buffer is the workspace's and the call allocates
    only O(Q + K); without one it is allocated afresh. The outputs and mass
    are always fresh arrays, so a later call through the same workspace
    leaves them unchanged. The passes after the product run under a small
    ufunc buffer, set for the call only.
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
    w = np.matmul(queries / np.sqrt(float(d_h)), keys.T, out=out)
    bias = np.log(counts)
    # A count of 1 has a zero bias, and adding it changes no bit that
    # survives: x + 0.0 differs from x only by turning -0.0 into +0.0, and
    # the max shift and exp map both to the same weight. So the add covers
    # only the span of columns from the first count above 1 to the last,
    # and nothing when every count is 1.
    hot = np.flatnonzero(bias)
    with np.errstate():  # restores the caller's buffer size too
        np.setbufsize(_ROW_BUFSIZE)
        if hot.size:
            span = slice(hot[0], hot[-1] + 1)
            np.add(w[:, span], bias[span], out=w[:, span])
        np.subtract(w, w.max(axis=1, keepdims=True), out=w)
        np.exp(w, out=w)
        total = w.sum(axis=1)
    return AttentionResult(outputs=(w @ values) / total[:, None], mass=np.dot(1.0 / total, w))
