"""Long-term spatial cache: a voxel hash grid of merged token representatives.

Evicted tokens land in the voxel containing their 3-D position. Each voxel
keeps a small long-term list of merged representatives plus a short buffer
of recent arrivals; one-to-one fusion, buffer aggregation, and re-merge keep
both under fixed caps, so occupied space bounds memory no matter how long
the stream runs. Cells are addressed by Morton code so nearby voxels get
nearby keys in the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateVectorError, DimensionError, VoxelRangeError
from .kernel import HALF_MAX, cosine, half_roundtrip, weighted_mean
from .tokens import CachedToken, Origin, TokenId

# Signed voxel indices live in [-2^20, 2^20); the Morton bias shifts them
# into 21 unsigned bits per axis, 63 bits total.
COORD_LIMIT = 1 << 20


class VoxelCoord(NamedTuple):
    ix: int
    iy: int
    iz: int


def voxel_of(position, voxel_size: float) -> VoxelCoord:
    """Integer cell containing a 3-D point: floor(p / voxel_size) per axis."""
    p = np.asarray(position, dtype=np.float64)
    if p.shape != (3,):
        raise DimensionError(f"position must have shape (3,), got {p.shape}")
    # plain floats: this runs once per evicted token
    x, y, z = p.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise VoxelRangeError(f"non-finite position {p}")
    if not voxel_size > 0.0:
        raise DimensionError(f"voxel_size must be positive, got {voxel_size}")
    coord = VoxelCoord(
        math.floor(x / voxel_size), math.floor(y / voxel_size), math.floor(z / voxel_size)
    )
    if not (-COORD_LIMIT <= min(coord) and max(coord) < COORD_LIMIT):
        raise VoxelRangeError(f"voxel index {coord} outside [-2^20, 2^20)")
    return coord


def _part1by2(v: int) -> int:
    # Spread the low 21 bits of v so they occupy every third bit.
    v &= 0x1FFFFF
    v = (v | (v << 32)) & 0x1F00000000FFFF
    v = (v | (v << 16)) & 0x1F0000FF0000FF
    v = (v | (v << 8)) & 0x100F00F00F00F00F
    v = (v | (v << 4)) & 0x10C30C30C30C30C3
    v = (v | (v << 2)) & 0x1249249249249249
    return v


def _compact1by2(v: int) -> int:
    v &= 0x1249249249249249
    v = (v ^ (v >> 2)) & 0x10C30C30C30C30C3
    v = (v ^ (v >> 4)) & 0x100F00F00F00F00F
    v = (v ^ (v >> 8)) & 0x1F0000FF0000FF
    v = (v ^ (v >> 16)) & 0x1F00000000FFFF
    v = (v ^ (v >> 32)) & 0x1FFFFF
    return v


def morton_encode(coord: VoxelCoord) -> int:
    """Interleave the three biased 21-bit indices; x takes bits 0, 3, 6, ..."""
    for c in coord:
        if not (-COORD_LIMIT <= c < COORD_LIMIT):
            raise VoxelRangeError(f"voxel index {c} outside [-2^20, 2^20)")
    ix, iy, iz = (c + COORD_LIMIT for c in coord)
    return _part1by2(ix) | (_part1by2(iy) << 1) | (_part1by2(iz) << 2)


def morton_decode(code: int) -> VoxelCoord:
    """Inverse of morton_encode."""
    if not (0 <= code < (1 << 63)):
        raise VoxelRangeError(f"Morton code {code} outside [0, 2^63)")
    return VoxelCoord(
        _compact1by2(code) - COORD_LIMIT,
        _compact1by2(code >> 1) - COORD_LIMIT,
        _compact1by2(code >> 2) - COORD_LIMIT,
    )


@dataclass
class VoxelCell:
    """Per-voxel dual store: merged long-term entries plus an arrival buffer."""

    coord: VoxelCoord
    long_term: list[CachedToken] = field(default_factory=list)
    buffer: list[CachedToken] = field(default_factory=list)


class VoxelStore:
    """All voxel cells of one (layer, head) channel, plus event counters.

    Deterministic by construction: every argmax/argmin is resolved by list
    order (first wins), and retrieval breaks ranking ties by a store-wide
    insertion sequence number.
    """

    def __init__(
        self,
        voxel_size: float,
        merge_lambda: float,
        g_cap: int,
        e_cap: int,
        knn_radius_mult: float,
        quantize: bool = False,
    ):
        if g_cap < 1 or e_cap < 1:
            raise DimensionError(f"g_cap and e_cap must be >= 1, got {g_cap}, {e_cap}")
        self.voxel_size = float(voxel_size)
        self.merge_lambda = float(merge_lambda)
        self.g_cap = int(g_cap)
        self.e_cap = int(e_cap)
        self.knn_radius_mult = float(knn_radius_mult)
        self.quantize = quantize
        self.half_saturations = 0
        self.cells: dict[int, VoxelCell] = {}
        self.events = {"fused": 0, "buffered": 0, "aggregated": 0, "re_merged": 0, "dropped": 0}
        self.dropped_count_mass = 0  # summed counts of dropped tokens
        self._merged_serial = 0
        self._seq = 0  # store-wide arrival order, used as the final ranking tie-break
        self._seqs: dict[int, int] = {}  # id(token) -> seq
        self._center_rows: list[tuple[float, float, float]] = []
        self._center_codes: list[int] = []
        # voxel coordinate -> (Morton code, cell), so a revisited cell costs
        # one tuple lookup instead of an encode
        self._by_coord: dict[VoxelCoord, tuple[int, VoxelCell]] = {}
        # running totals; a recount over every cell gives the same numbers
        self._token_count = 0
        self._count_mass = 0  # held plus dropped

    # -- sizing -----------------------------------------------------------

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    @property
    def token_count(self) -> int:
        return self._token_count

    @property
    def count_mass(self) -> int:
        """Total source-token count represented by the store plus drops."""
        return self._count_mass

    def occupancy(self) -> dict[str, int]:
        g = sum(len(c.long_term) for c in self.cells.values())
        e = sum(len(c.buffer) for c in self.cells.values())
        return {"cells": len(self.cells), "g_tokens": g, "e_tokens": e}

    # -- insertion --------------------------------------------------------

    def insert_evicted(self, token: CachedToken) -> str:
        """Route one evicted token; returns the event that happened.

        "fused": merged into a sufficiently similar long-term entry.
        "buffered": parked in the voxel buffer.
        "aggregated": the park filled the buffer and collapsed it.
        "dropped": the token has no position and cannot be placed.
        """
        if token.position is None:
            self._count_mass += token.count
            self.events["dropped"] += 1
            self.dropped_count_mass += token.count
            return "dropped"
        coord = voxel_of(token.position, self.voxel_size)
        entry = self._by_coord.get(coord)
        if entry is None:
            code = morton_encode(coord)
            cell = VoxelCell(coord)
            self.cells[code] = cell
            self._by_coord[coord] = (code, cell)
            self._center_codes.append(code)
            self._center_rows.append(
                tuple((c + 0.5) * self.voxel_size for c in coord)
            )
        else:
            code, cell = entry

        if cell.long_term:
            best_idx, best_cos = _best_match(cell.long_term, token.key)
            if best_idx >= 0 and best_cos > self.merge_lambda:
                self._fuse(cell.long_term[best_idx], token, best_cos)
                self._count_mass += token.count
                self.events["fused"] += 1
                return "fused"

        token.origin = Origin.BUFFERED
        cell.buffer.append(token)
        self._token_count += 1
        self._count_mass += token.count
        self._seqs[id(token)] = self._seq
        self._seq += 1
        if len(cell.buffer) >= self.e_cap:
            self.aggregate(code)
            self.events["aggregated"] += 1
            return "aggregated"
        self.events["buffered"] += 1
        return "buffered"

    def aggregate(self, code: int) -> None:
        """Collapse a full buffer into one representative around its pivot.

        The pivot is the highest-score buffered token (earliest arrival on
        ties); every member, pivot included, contributes with weight
        exp(cos(pivot_key, member_key)). The representative inherits the
        pivot's score and a count/weight summed over the members.
        """
        cell = self.cells[code]
        if not cell.buffer:
            raise DimensionError("aggregate called on an empty buffer")
        members = cell.buffer
        pivot = max(members, key=lambda t: t.score)  # first max wins ties
        # the pivot's own weight is e^1 by definition; exponentiating its
        # self-cosine would admit rounding noise below 1.0
        omegas = np.array([
            math.e if t is pivot else math.exp(_safe_cos(pivot.key, t.key))
            for t in members
        ])
        keys = np.stack([t.key for t in members])
        values = np.stack([t.value for t in members])
        positions = np.stack([t.position for t in members])
        rep = CachedToken(
            id=TokenId(-1, self._merged_serial),
            key=self._quantized(weighted_mean(keys, omegas)),
            value=self._quantized(weighted_mean(values, omegas)),
            score=pivot.score,
            position=weighted_mean(positions, omegas),
            count=sum(t.count for t in members),
            weight=float(omegas.sum()),
            origin=Origin.MERGED,
        )
        self._merged_serial += 1
        for t in members:
            self._seqs.pop(id(t), None)
        cell.buffer = []
        self._token_count -= len(members)
        self._admit(cell, rep, code)

    def re_merge(self, code: int) -> None:
        """Free a long-term slot by folding the lightest entry into a peer.

        Victim is the minimum-weight entry (earliest on ties); it fuses
        into its most key-similar remaining neighbor regardless of the
        merge threshold.
        """
        cell = self.cells[code]
        if len(cell.long_term) < 2:
            raise DimensionError("re_merge needs at least two long-term entries")
        victim_idx = min(range(len(cell.long_term)), key=lambda i: (cell.long_term[i].weight, i))
        victim = cell.long_term.pop(victim_idx)
        best_idx, best_cos = 0, -2.0
        for i, rep in enumerate(cell.long_term):
            c = _safe_cos(rep.key, victim.key)
            if c > best_cos:
                best_idx, best_cos = i, c
        self._fuse(cell.long_term[best_idx], victim, best_cos)
        self._seqs.pop(id(victim), None)
        self._token_count -= 1
        self.events["re_merged"] += 1

    # -- retrieval ----------------------------------------------------------

    def retrieve(self, visible_positions: np.ndarray, quota: int) -> list[CachedToken]:
        """Tokens from voxels near the currently visible ones, best first.

        Neighborhood: active cells whose center lies within
        knn_radius_mult * voxel_size of some visible voxel's center.
        Ranking: long-term entries before buffered ones, then nearer home
        voxel, then larger merge weight, then earlier arrival. Returns at
        most quota tokens; callers must treat them as read-only.
        """
        if quota <= 0 or not self.cells:
            return []
        vis = np.asarray(visible_positions, dtype=np.float64)
        if vis.size == 0:
            return []
        if vis.ndim != 2 or vis.shape[1] != 3:
            raise DimensionError(f"visible_positions must be (V, 3), got {vis.shape}")
        vis_coords = np.unique(np.floor(vis / self.voxel_size).astype(np.int64), axis=0)
        vis_centers = (vis_coords + 0.5) * self.voxel_size
        centers = np.asarray(self._center_rows)
        d = np.sqrt(((centers[:, None, :] - vis_centers[None, :, :]) ** 2).sum(axis=2))
        dmin = d.min(axis=1)
        radius = self.knn_radius_mult * self.voxel_size
        ranked: list[tuple[int, float, float, int, CachedToken]] = []
        for cell_i in np.flatnonzero(dmin <= radius + 1e-12):
            cell = self.cells[self._center_codes[cell_i]]
            dist = float(dmin[cell_i])
            for t in cell.long_term:
                ranked.append((0, dist, -t.weight, self._seqs[id(t)], t))
            for t in cell.buffer:
                ranked.append((1, dist, -t.weight, self._seqs[id(t)], t))
        ranked.sort(key=lambda r: r[:4])
        return [r[4] for r in ranked[:quota]]

    # -- helpers ----------------------------------------------------------

    def _admit(self, cell: VoxelCell, rep: CachedToken, code: int) -> None:
        # Long-term insertion; at capacity a slot is freed first. With
        # g_cap=1 the sole resident folds into the newcomer instead, since
        # there is no peer to re-merge with.
        if len(cell.long_term) >= self.g_cap:
            if self.g_cap == 1:
                old = cell.long_term.pop()
                self._fuse(rep, old, _safe_cos(rep.key, old.key))
                self._seqs.pop(id(old), None)
                self._token_count -= 1
                self.events["re_merged"] += 1
            else:
                self.re_merge(code)
        cell.long_term.append(rep)
        self._token_count += 1
        self._seqs[id(rep)] = self._seq
        self._seq += 1

    def _fuse(self, rep: CachedToken, incoming: CachedToken, cos_k: float) -> None:
        # One-to-one fusion: the newcomer joins with weight exp(cos) while
        # the representative keeps its accumulated weight Z and its score.
        omega = math.exp(cos_k)
        z = rep.weight
        rep.key = self._quantized((z * rep.key + omega * incoming.key) / (z + omega))
        rep.value = self._quantized((z * rep.value + omega * incoming.value) / (z + omega))
        if rep.position is not None and incoming.position is not None:
            rep.position = (z * rep.position + omega * incoming.position) / (z + omega)
        rep.weight = z + omega
        rep.count += incoming.count
        rep.origin = Origin.MERGED

    def _quantized(self, vec: np.ndarray) -> np.ndarray:
        if not self.quantize:
            return vec
        self.half_saturations += int((np.abs(vec) > HALF_MAX).sum())
        return half_roundtrip(vec)


def _best_match(reps: list[CachedToken], key) -> tuple[int, float]:
    """Index and cosine of the representative most similar to key.

    Each pair costs one dot product and two norms, the same IEEE operations
    (ndarray.dot, then sqrt, divide and clip) kernel.cosine performs, so
    every cosine is bit-identical to it; only the incoming key's norm is
    taken once instead of once per pair. A NaN cosine never wins, and a
    zero-norm key scores -1 against everything.
    """
    key = np.asarray(key, dtype=np.float64)
    if key.ndim != 1:
        raise DimensionError(f"key must be 1-D, got shape {key.shape}")
    nb = math.sqrt(key.dot(key))
    best_idx, best_cos = -1, -2.0
    for i, rep in enumerate(reps):
        rk = rep.key
        if rk.shape != key.shape:
            raise DimensionError(f"length mismatch: {rk.shape[0]} vs {key.shape[0]}")
        na = math.sqrt(rk.dot(rk))
        if na == 0.0 or nb == 0.0:
            c = -1.0
        else:
            # explicit comparisons keep a NaN, as np.clip does; min/max would not
            c = float(rk.dot(key)) / (na * nb)
            if c > 1.0:
                c = 1.0
            elif c < -1.0:
                c = -1.0
        if c > best_cos:
            best_idx, best_cos = i, c
    return best_idx, best_cos


def _safe_cos(a: np.ndarray, b: np.ndarray) -> float:
    # Quantization can flush a tiny key to exact zero; a directionless key
    # is treated as dissimilar to everything instead of failing the insert.
    try:
        return cosine(a, b)
    except DegenerateVectorError:
        return -1.0
