"""Independent reference implementations the tests check the library against.

Everything here is written with plain Python loops and math.* so that a
bug in the library's vectorized numpy path cannot hide in a shared helper.
The exceptions: the three attend forms are numpy references for the
arithmetic of `attend`, `weighted_mean` is the numpy mean the scalar
insertion references in the tests share, `store_cells` reads a
VoxelStore's cell tables back per cell, `take_rows` and `concat_blocks`
slice and join token blocks column by column, and the replay helpers at
the end collect every frame's output from whole replays, where the
divergence reference works on those with the library's own per-frame
metrics, so that `compare` can be held to its bytes.
"""

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np

from stacache import (
    DegenerateVectorError,
    DimensionError,
    StreamReplayer,
    TokenBlock,
    VoxelCoord,
    morton_encode,
)
from stacache.pipeline import _frame_cosine, _frame_rel_l2


def py_dot(a, b):
    return sum(float(x) * float(y) for x, y in zip(a, b))


def py_cosine(a, b):
    na = math.sqrt(py_dot(a, a))
    nb = math.sqrt(py_dot(b, b))
    c = py_dot(a, b) / (na * nb)
    return max(-1.0, min(1.0, c))


def py_softmax(logits, mask):
    sel = [float(l) for l, m in zip(logits, mask) if m]
    top = max(sel)
    z = sum(math.exp(l - top) for l in sel)
    out = []
    for l, m in zip(logits, mask):
        out.append(math.exp(float(l) - top) / z if m else 0.0)
    return out


def naive_attend(queries, keys, values, counts, allowed, d_h):
    """Triple-loop scaled dot-product attention with the ln(count) bias."""
    n_q, n_k = len(queries), len(keys)
    dim_v = len(values[0])
    outputs = [[0.0] * dim_v for _ in range(n_q)]
    mass = [0.0] * n_k
    scale = math.sqrt(d_h)
    for i in range(n_q):
        logits = [
            py_dot(queries[i], keys[j]) / scale + math.log(float(counts[j]))
            for j in range(n_k)
        ]
        weights = py_softmax(logits, [allowed[i][j] for j in range(n_k)])
        for j in range(n_k):
            if weights[j]:
                mass[j] += weights[j]
                for t in range(dim_v):
                    outputs[i][t] += weights[j] * float(values[j][t])
    return outputs, mass


def allocating_attend(q, k, v, counts, d_h):
    """attend's arithmetic with a fresh array for every step: the queries
    scaled by 1/sqrt(d_h) before the product, the bias added on every
    column, exp of the max-shifted logits, then the outputs and the mass
    divided by the row sums after their products. The logits are taken
    through np.matmul, as in attend, so a test may patch that product."""
    logits = np.matmul(q / np.sqrt(float(d_h)), k.T) + np.log(counts)[None, :]
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    total = weights.sum(axis=1)
    return (weights @ v) / total[:, None], np.dot(1.0 / total, weights)


def previous_attend(q, k, v, counts, d_h):
    """The arithmetic attend used before it normalized after the products:
    the logits and the weights divided over the whole Q x K array."""
    logits = q @ k.T / np.sqrt(float(d_h)) + np.log(counts)[None, :]
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ v, weights.sum(axis=0)


def longdouble_attend(q, k, v, counts, d_h):
    """The softmax attention taken in np.longdouble (numpy's own loops,
    no BLAS), as the yardstick for attend's rounding error."""
    q, k, v, counts = (np.asarray(a, dtype=np.longdouble) for a in (q, k, v, counts))
    logits = q @ k.T / np.sqrt(np.longdouble(d_h)) + np.log(counts)[None, :]
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ v, weights.sum(axis=0)


def morton_oracle(ix, iy, iz):
    """Bit-at-a-time interleave of the three biased 21-bit indices."""
    bias = 1 << 20
    ux, uy, uz = ix + bias, iy + bias, iz + bias
    code = 0
    for b in range(21):
        code |= ((ux >> b) & 1) << (3 * b)
        code |= ((uy >> b) & 1) << (3 * b + 1)
        code |= ((uz >> b) & 1) << (3 * b + 2)
    return code


def decayed_score(mass_sequence, gamma):
    """Replay s <- gamma * s + m step by step."""
    s = 0.0
    for m in mass_sequence:
        s = gamma * s + float(m)
    return s


def geometric_closed_form(a, gamma, t):
    """Score after t updates with constant mass a: a * (1 - gamma^t) / (1 - gamma)."""
    return a * (1.0 - gamma**t) / (1.0 - gamma)


class FusionOracle:
    """One-pass weighted-mean accumulator mirroring iterative fusion.

    Feed it the same items in the same order; it recomputes each item's
    weight from its own running mean, so it shares no state with the
    implementation under test.
    """

    def __init__(self, first_vec, first_weight):
        self.num = [first_weight * float(x) for x in first_vec]
        self.den = first_weight

    def mean(self):
        return [x / self.den for x in self.num]

    def add(self, vec, weight):
        for t, x in enumerate(vec):
            self.num[t] += weight * float(x)
        self.den += weight


def weighted_mean(vectors, weights):
    """Convex combination sum(w_i * v_i) / sum(w_i) of row vectors: the
    mean VoxelStore.aggregate takes, for one buffer at a time."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise DimensionError(f"need a non-empty 2-D stack of vectors, got shape {vectors.shape}")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != vectors.shape[:1]:
        raise DimensionError(f"{vectors.shape[0]} vectors but weights of shape {weights.shape}")
    if not (weights > 0.0).all():
        raise DegenerateVectorError("weights must be strictly positive")
    return (weights[:, None] * vectors).sum(axis=0) / weights.sum()


def take_rows(block, index):
    """The block's rows at index, in index order: copies for an index
    array, views for a slice."""
    return TokenBlock(*(getattr(block, f.name)[index] for f in dataclasses.fields(block)))


def concat_blocks(blocks):
    """The blocks' rows one after another, as one new block."""
    return TokenBlock(*(np.concatenate([getattr(b, f.name) for b in blocks])
                        for f in dataclasses.fields(TokenBlock)))


_encoded = functools.lru_cache(maxsize=4096)(morton_encode)  # tests revisit few cells


class Cell(NamedTuple):
    """One voxel cell of a VoxelStore: its cell number, its voxel, and the
    pool rows of its long-term entries and of its buffer, oldest first."""

    index: int
    coord: VoxelCoord
    long_term: list
    buffer: list


def store_cells(store):
    """Every cell of store by (channel, Morton code), in creation order,
    read once from the cell tables: a snapshot, so read it again after an
    insert."""
    n = store.cell_count
    lt, lt_len = store.lt_rows[:n].tolist(), store.lt_len[:n].tolist()
    buf, buf_len = store.buf_rows[:n].tolist(), store.buf_len[:n].tolist()
    voxels = [VoxelCoord(*v) for v in store.cell_voxel[:n].tolist()]
    return {(c, _encoded(v)): Cell(i, v, lt[i][: lt_len[i]], buf[i][: buf_len[i]])
            for i, (c, v) in enumerate(zip(store.cell_channel[:n].tolist(), voxels))}


def retrieve_oracle(store, visible, quota, channel=0):
    """The pool rows a VoxelStore must retrieve for one channel, best first:
    every cell walked, each distance taken on its own, one Python sort on
    (tier, distance, -weight, arrival)."""
    vis_coords = np.unique(np.floor(np.asarray(visible) / store.voxel_size).astype(np.int64), axis=0)
    vis_centers = (vis_coords + 0.5) * store.voxel_size
    radius = store.knn_radius_mult * store.voxel_size
    ranked = []
    for (c, _), cell in store_cells(store).items():
        if c != channel:
            continue
        center = (np.asarray(cell.coord, dtype=np.float64) + 0.5) * store.voxel_size
        dmin = float(np.sqrt(((center[None, :] - vis_centers) ** 2).sum(axis=1)).min())
        if dmin > radius + 1e-12:
            continue
        for r in cell.long_term:
            ranked.append((0, dmin, -store.weight[r], store.seq[r], r))
        for r in cell.buffer:
            ranked.append((1, dmin, -store.weight[r], store.seq[r], r))
    ranked.sort(key=lambda r: r[:4])
    return [r[4] for r in ranked[:quota]]


class VoxelMirror:
    """Plain-Python replay of single-voxel routing and fusion.

    Long-term entries are kept as weighted-sum accumulators (numerator
    lists plus the omega-sum Z) rather than running means, so agreement
    with the library's in-place mean updates is a real check of the
    recurrences, not a shared formula.
    """

    def __init__(self, merge_lambda, g_cap, e_cap):
        self.lam = merge_lambda
        self.g_cap = g_cap
        self.e_cap = e_cap
        self.long_term = []  # dicts: knum, vnum, z, count, score
        self.buffer = []  # dicts: key, value, score, count

    @staticmethod
    def _mean(num, den):
        return [x / den for x in num]

    def key_mean(self, rep):
        return self._mean(rep["knum"], rep["z"])

    def value_mean(self, rep):
        return self._mean(rep["vnum"], rep["z"])

    def count_mass(self):
        held = sum(r["count"] for r in self.long_term)
        return held + sum(t["count"] for t in self.buffer)

    def _fuse(self, rep, key, value, count, omega):
        for t, x in enumerate(key):
            rep["knum"][t] += omega * float(x)
        for t, x in enumerate(value):
            rep["vnum"][t] += omega * float(x)
        rep["z"] += omega
        rep["count"] += count

    def insert(self, key, value, score, count=1):
        key = [float(x) for x in key]
        value = [float(x) for x in value]
        best, best_cos = None, -2.0
        for rep in self.long_term:
            c = py_cosine(self.key_mean(rep), key)
            if c > best_cos:
                best, best_cos = rep, c
        if best is not None and best_cos > self.lam:
            self._fuse(best, key, value, count, math.exp(best_cos))
            return "fused"
        self.buffer.append({"key": key, "value": value, "score": score, "count": count})
        if len(self.buffer) >= self.e_cap:
            self._aggregate()
            return "aggregated"
        return "buffered"

    def _aggregate(self):
        pivot = max(self.buffer, key=lambda t: t["score"])
        omegas = [math.e if t is pivot else math.exp(py_cosine(pivot["key"], t["key"]))
                  for t in self.buffer]
        d = len(pivot["key"])
        rep = {
            "knum": [sum(w * t["key"][i] for w, t in zip(omegas, self.buffer)) for i in range(d)],
            "vnum": [sum(w * t["value"][i] for w, t in zip(omegas, self.buffer)) for i in range(d)],
            "z": sum(omegas),
            "count": sum(t["count"] for t in self.buffer),
            "score": pivot["score"],
        }
        self.buffer = []
        self._admit(rep)

    def _admit(self, rep):
        if len(self.long_term) >= self.g_cap:
            if self.g_cap == 1:
                old = self.long_term.pop()
                c = py_cosine(self.key_mean(rep), self.key_mean(old))
                self._fuse(rep, self.key_mean(old), self.value_mean(old),
                           old["count"], math.exp(c))
            else:
                vi = min(range(len(self.long_term)), key=lambda i: (self.long_term[i]["z"], i))
                victim = self.long_term.pop(vi)
                bi, bc = 0, -2.0
                for i, r in enumerate(self.long_term):
                    c = py_cosine(self.key_mean(r), self.key_mean(victim))
                    if c > bc:
                        bi, bc = i, c
                self._fuse(self.long_term[bi], self.key_mean(victim),
                           self.value_mean(victim), victim["count"], math.exp(bc))
        self.long_term.append(rep)


def feed_all(replayer, records):
    """Feed every record, then finish; returns the stats and every frame's
    output, frame -> (L, H, N, d_h), copied from `replayer.outputs` after
    each chunk."""
    outputs = {}
    for record in records:
        if replayer.feed(record) is not None:
            outputs.update(replayer.outputs)
    stats = replayer.finish()
    outputs.update(replayer.outputs)  # a partial last chunk, if there was one
    return stats, outputs


def replay_outputs(trace, policy, chunk_size):
    """Replay (header, records) under one policy; see feed_all."""
    header, records = trace
    return feed_all(StreamReplayer(header, policy, chunk_size=chunk_size), records)


def reference_divergence(replay_a, replay_b):
    """The divergence report of b against a, taken after both whole replays
    (each a feed_all result) have finished, over every frame at once."""
    (stats_a, outputs_a), (stats_b, outputs_b) = replay_a, replay_b
    assert sorted(outputs_a) == sorted(outputs_b)
    h = stats_a.header
    per_frame = []
    chan_cos = np.zeros((h.layers, h.heads))
    chan_rel = np.zeros((h.layers, h.heads))
    for f in sorted(outputs_a):
        a, b = outputs_a[f], outputs_b[f]
        per_frame.append(
            {"frame": f, "cosine": _frame_cosine(a, b), "rel_l2": _frame_rel_l2(a, b)}
        )
        for li in range(h.layers):
            for hi in range(h.heads):
                chan_cos[li, hi] += _frame_cosine(a[li, hi], b[li, hi])
                chan_rel[li, hi] += _frame_rel_l2(a[li, hi], b[li, hi])
    n = max(1, len(per_frame))
    per_channel = [
        {
            "layer": li,
            "head": hi,
            "mean_cosine": chan_cos[li, hi] / n,
            "mean_rel_l2": chan_rel[li, hi] / n,
        }
        for li in range(h.layers)
        for hi in range(h.heads)
    ]
    return {
        "type": "divergence",
        "policy_a": stats_a.policy,
        "policy_b": stats_b.policy,
        "per_frame": per_frame,
        "per_channel": per_channel,
        "overall": {
            "mean_cosine": sum(r["cosine"] for r in per_frame) / n,
            "mean_rel_l2": sum(r["rel_l2"] for r in per_frame) / n,
            "max_rel_l2": max((r["rel_l2"] for r in per_frame), default=0.0),
        },
        "summary_a": stats_a.summary,
        "summary_b": stats_b.summary,
    }


def reference_compare(trace, policy_a, policy_b, chunk_size):
    """compare() as two whole replays, one after the other, then the report."""
    header, records = trace
    records = list(records)  # the records are traversed twice
    return reference_divergence(replay_outputs((header, records), policy_a, chunk_size),
                                replay_outputs((header, records), policy_b, chunk_size))
