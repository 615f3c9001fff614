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
from .tokens import TokenBlock

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
    """Per-voxel dual store: pool rows of merged long-term entries plus an
    arrival buffer, each list oldest first."""

    coord: VoxelCoord
    long_term: list[int] = field(default_factory=list)
    buffer: list[int] = field(default_factory=list)


class VoxelStore:
    """All voxel cells of one (layer, head) channel, plus event counters.

    Every long-term and buffered entry is one row of `data`, laid out like
    a TokenBlock row as [key | value | position], with parallel per-row
    columns: merge weight, count, score, birth frame and token index
    (-1 and a serial for merged rows) and a store-wide arrival sequence
    number. The scalar columns are Python lists, because insertion reads
    and writes single entries, which a list does several times faster
    than an ndarray. The pool grows on demand and reuses freed rows; a
    cell is two lists of row indices. Deterministic by construction: every
    argmax/argmin is resolved by list order (first wins), and retrieval
    breaks ranking ties by the arrival sequence number.
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
        if not voxel_size > 0.0:
            raise DimensionError(f"voxel_size must be positive, got {voxel_size}")
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
        self._centers = np.empty((0, 3))  # cell centers in creation order
        self._center_codes: list[int] = []
        # voxel coordinate -> (Morton code, cell), so a revisited cell costs
        # one tuple lookup instead of an encode
        self._by_coord: dict[tuple, tuple[int, VoxelCell]] = {}
        # running totals; a recount over every cell gives the same numbers
        self._token_count = 0
        self._count_mass = 0  # held plus dropped
        # the row pool; its width is fixed by the first block inserted
        self.d_h = 0
        self.data = np.empty((0, 0))
        self._keys = self.data  # view of the key columns of data
        self.weight: list[float] = []
        self.count: list[int] = []
        self.score: list[float] = []
        self.frame: list[int] = []
        self.token: list[int] = []
        self.seq: list[int] = []
        self._key_norm: list[float] = []  # sqrt(k.k) of long-term rows, refreshed on write
        self._free: list[int] = []

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

    def block(self, rows) -> TokenBlock:
        """Copies of the given pool rows as a TokenBlock, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        idx = rows.tolist()
        return TokenBlock(
            self.data[rows],
            np.ones(len(idx), dtype=bool),
            np.array([self.score[r] for r in idx], dtype=np.float64),
            np.array([self.frame[r] for r in idx], dtype=np.int64),
            np.array([self.token[r] for r in idx], dtype=np.int64),
            np.array([self.count[r] for r in idx], dtype=np.int64),
        )

    # -- insertion --------------------------------------------------------

    def insert_block(self, block: TokenBlock) -> list[str]:
        """Route a block of evicted rows in order; returns their events.

        The voxels of all placed rows are computed at once (the floor and
        range check of voxel_of); each row then goes through
        insert_evicted.
        """
        n = len(block)
        if n == 0:
            return []
        width = block.rows.shape[1]
        if self.d_h == 0:
            self.d_h = block.d_h
            self.data = np.empty((0, width))
            self._keys = self.data[:, : self.d_h]
        elif width != self.data.shape[1]:
            raise DimensionError(f"length mismatch: {block.d_h} vs {self.d_h}")
        coords: list = [None] * n
        placed = np.flatnonzero(block.mask)
        if placed.size:
            cells = np.floor(block.positions[placed] / self.voxel_size)
            if not np.isfinite(cells).all():
                raise VoxelRangeError(f"non-finite position in {block.positions[placed]}")
            if not ((cells >= -COORD_LIMIT) & (cells < COORD_LIMIT)).all():
                raise VoxelRangeError("voxel index outside [-2^20, 2^20)")
            for i, coord in zip(placed.tolist(), cells.astype(np.int64).tolist()):
                coords[i] = tuple(coord)
        return [self.insert_evicted(block, i, coord) for i, coord in enumerate(coords)]

    def insert_evicted(self, block: TokenBlock, i: int, coord: tuple | None) -> str:
        """Route row i of block, whose voxel is coord; returns the event.

        coord is the row's voxel as insert_block computes it, None for a
        row without a position.
        "fused": merged into a sufficiently similar long-term entry.
        "buffered": parked in the voxel buffer.
        "aggregated": the park filled the buffer and collapsed it.
        "dropped": the token has no position and cannot be placed.
        """
        count = block.counts.item(i)
        if coord is None:
            self._count_mass += count
            self.events["dropped"] += 1
            self.dropped_count_mass += count
            return "dropped"
        entry = self._by_coord.get(coord)
        if entry is None:
            code = morton_encode(coord)
            cell = VoxelCell(VoxelCoord(*coord))
            self.cells[code] = cell
            self._by_coord[coord] = (code, cell)
            self._add_center(code, coord)
        else:
            code, cell = entry

        row = block.rows[i]
        if cell.long_term:
            best, best_cos = self._best_match(cell.long_term, row[: self.d_h])
            if best >= 0 and best_cos > self.merge_lambda:
                self._fuse(best, row, count, best_cos)
                self._count_mass += count
                self.events["fused"] += 1
                return "fused"

        r = self._alloc()
        self.data[r] = row
        self.weight[r] = 1.0
        self.count[r] = count
        self.score[r] = block.scores.item(i)
        self.frame[r] = block.frames.item(i)
        self.token[r] = block.tokens.item(i)
        self.seq[r] = self._seq
        self._seq += 1
        cell.buffer.append(r)
        self._token_count += 1
        self._count_mass += count
        if len(cell.buffer) >= self.e_cap:
            self.aggregate(code)
            self.events["aggregated"] += 1
            return "aggregated"
        self.events["buffered"] += 1
        return "buffered"

    def aggregate(self, code: int) -> None:
        """Collapse a full buffer into one representative around its pivot.

        The pivot is the highest-score buffered row (earliest arrival on
        ties); every member, pivot included, contributes with weight
        exp(cos(pivot_key, member_key)). The representative inherits the
        pivot's score and a count/weight summed over the members.
        """
        cell = self.cells[code]
        if not cell.buffer:
            raise DimensionError("aggregate called on an empty buffer")
        members = cell.buffer
        score = self.score
        p = max(range(len(members)), key=lambda j: score[members[j]])  # first max wins ties
        keys = self._keys
        pivot_key = keys[members[p]]
        # the pivot's own weight is e^1 by definition; exponentiating its
        # self-cosine would admit rounding noise below 1.0
        omegas = np.array([
            math.e if j == p else math.exp(_safe_cos(pivot_key, keys[r]))
            for j, r in enumerate(members)
        ])
        d = self.d_h
        rows = self.data[members]
        key = self._quantized(weighted_mean(rows[:, :d], omegas))
        value = self._quantized(weighted_mean(rows[:, d : 2 * d], omegas))
        position = weighted_mean(rows[:, 2 * d :], omegas)
        count = sum(self.count[r] for r in members)
        pivot_score = score[members[p]]
        for r in members:
            self._free.append(r)
        cell.buffer = []
        self._token_count -= len(members)
        r = self._alloc()
        self.data[r, :d] = key
        self.data[r, d : 2 * d] = value
        self.data[r, 2 * d :] = position
        self.weight[r] = float(omegas.sum())
        self.count[r] = count
        self.score[r] = pivot_score
        self.frame[r] = -1
        self.token[r] = self._merged_serial
        self._merged_serial += 1
        self._key_norm[r] = math.sqrt(key.dot(key))
        self._admit(cell, r, code)

    def re_merge(self, code: int) -> None:
        """Free a long-term slot by folding the lightest entry into a peer.

        Victim is the minimum-weight entry (earliest on ties); it fuses
        into its most key-similar remaining neighbor regardless of the
        merge threshold.
        """
        cell = self.cells[code]
        long_term = cell.long_term
        if len(long_term) < 2:
            raise DimensionError("re_merge needs at least two long-term entries")
        weight = self.weight
        victim = long_term.pop(
            min(range(len(long_term)), key=lambda i: (weight[long_term[i]], i))
        )
        keys = self._keys
        best, best_cos = long_term[0], -2.0
        for r in long_term:
            c = _safe_cos(keys[r], keys[victim])
            if c > best_cos:
                best, best_cos = r, c
        self._fuse(best, self.data[victim], self.count[victim], best_cos)
        self._free.append(victim)
        self._token_count -= 1
        self.events["re_merged"] += 1

    # -- retrieval ----------------------------------------------------------

    def retrieve(self, visible_positions: np.ndarray, quota: int) -> TokenBlock:
        """Entries from voxels near the currently visible ones, best first.

        Neighborhood: active cells whose center lies within
        knn_radius_mult * voxel_size of some visible voxel's center.
        Ranking: long-term entries before buffered ones, then nearer home
        voxel, then larger merge weight, then earlier arrival. Returns
        copies of at most quota rows.
        """
        if quota <= 0 or not self.cells:
            return self.block([])
        vis = np.asarray(visible_positions, dtype=np.float64)
        if vis.size == 0:
            return self.block([])
        if vis.ndim != 2 or vis.shape[1] != 3:
            raise DimensionError(f"visible_positions must be (V, 3), got {vis.shape}")
        # Only the nearest visible voxel counts, so the visible voxels need
        # no particular order; duplicates are dropped after a lexsort.
        coords = np.floor(vis / self.voxel_size).astype(np.int64)
        coords = coords[np.lexsort(coords.T)]
        coords = coords[np.r_[True, (coords[1:] != coords[:-1]).any(axis=1)]]
        vis_centers = (coords + 0.5) * self.voxel_size
        centers = self._centers[: len(self.cells)]
        # Squared distances summed x, y, z left to right, the order of
        # ((c - v) ** 2).sum(axis=-1); sqrt is monotone, so the root of the
        # minimum is the minimum of the roots.
        sq = (centers[:, :1] - vis_centers[:, 0]) ** 2
        sq += (centers[:, 1:2] - vis_centers[:, 1]) ** 2
        sq += (centers[:, 2:] - vis_centers[:, 2]) ** 2
        dmin = np.sqrt(sq.min(axis=1))
        radius = self.knn_radius_mult * self.voxel_size
        rows: list[int] = []
        tier: list[int] = []
        dist: list[float] = []
        for cell_i in np.flatnonzero(dmin <= radius + 1e-12).tolist():
            cell = self.cells[self._center_codes[cell_i]]
            long_term, buffer = cell.long_term, cell.buffer
            rows += long_term + buffer
            tier += [0] * len(long_term) + [1] * len(buffer)
            dist += [dmin[cell_i]] * (len(long_term) + len(buffer))
        weight, seq = self.weight, self.seq
        order = np.lexsort((
            np.array([seq[r] for r in rows]),
            -np.array([weight[r] for r in rows]),
            np.array(dist),
            np.array(tier),
        ))
        return self.block(np.array(rows, dtype=np.int64)[order[:quota]])

    # -- helpers ----------------------------------------------------------

    def _add_center(self, code: int, coord: tuple) -> None:
        n = len(self._center_codes)
        if n == len(self._centers):
            self._centers = _grown(self._centers)
        self._centers[n] = [(c + 0.5) * self.voxel_size for c in coord]
        self._center_codes.append(code)

    def _alloc(self) -> int:
        if self._free:
            return self._free.pop()
        r = len(self.seq)
        if r == len(self.data):
            self.data = _grown(self.data)
            self._keys = self.data[:, : self.d_h]
        for column in (self.weight, self.count, self.score, self.frame, self.token,
                       self.seq, self._key_norm):
            column.append(0)
        return r

    def _admit(self, cell: VoxelCell, r: int, code: int) -> None:
        # Long-term insertion; at capacity a slot is freed first. With
        # g_cap=1 the sole resident folds into the newcomer instead, since
        # there is no peer to re-merge with.
        if len(cell.long_term) >= self.g_cap:
            if self.g_cap == 1:
                old = cell.long_term.pop()
                cos_k = _safe_cos(self._keys[r], self._keys[old])
                self._fuse(r, self.data[old], self.count[old], cos_k)
                self._free.append(old)
                self._token_count -= 1
                self.events["re_merged"] += 1
            else:
                self.re_merge(code)
        cell.long_term.append(r)
        self._token_count += 1
        self.seq[r] = self._seq
        self._seq += 1

    def _fuse(self, r: int, incoming: np.ndarray, count: int, cos_k: float) -> None:
        # One-to-one fusion of an incoming [key | value | position] row into
        # row r: the newcomer joins with weight exp(cos) while the
        # representative keeps its accumulated weight Z and its score.
        omega = math.exp(cos_k)
        z = self.weight[r]
        row = self.data[r]
        row *= z
        row += omega * incoming
        row /= z + omega
        d = self.d_h
        if self.quantize:
            row[: 2 * d] = self._quantized(row[: 2 * d])
        key = row[:d]
        self._key_norm[r] = math.sqrt(key.dot(key))
        self.weight[r] = z + omega
        self.count[r] += count

    def _best_match(self, rows: list[int], key: np.ndarray) -> tuple[int, float]:
        """Row and cosine of the long-term entry most similar to key.

        Each pair costs one dot product, the same IEEE operations
        (ndarray.dot, then sqrt, divide and clip) kernel.cosine performs,
        so every cosine is bit-identical to it; the norms are the incoming
        key's, taken once, and each entry's, kept from its last write. A
        NaN cosine never wins, and a zero-norm key scores -1 against
        everything.
        """
        nb = math.sqrt(key.dot(key))
        keys, norms = self._keys, self._key_norm
        best, best_cos = -1, -2.0
        for r in rows:
            na = norms[r]
            if na == 0.0 or nb == 0.0:
                c = -1.0
            else:
                # explicit comparisons keep a NaN, as np.clip does; min/max would not
                c = float(keys[r].dot(key)) / (na * nb)
                if c > 1.0:
                    c = 1.0
                elif c < -1.0:
                    c = -1.0
            if c > best_cos:
                best, best_cos = r, c
        return best, best_cos

    def _quantized(self, vec: np.ndarray) -> np.ndarray:
        if not self.quantize:
            return vec
        self.half_saturations += int((np.abs(vec) > HALF_MAX).sum())
        return half_roundtrip(vec)


def _grown(rows: np.ndarray) -> np.ndarray:
    # Twice the rows (at least 16), the old ones copied to the front.
    grown = np.empty((max(16, 2 * len(rows)), rows.shape[1]))
    grown[: len(rows)] = rows
    return grown


def _safe_cos(a: np.ndarray, b: np.ndarray) -> float:
    # Quantization can flush a tiny key to exact zero; a directionless key
    # is treated as dissimilar to everything instead of failing the insert.
    try:
        return cosine(a, b)
    except DegenerateVectorError:
        return -1.0
