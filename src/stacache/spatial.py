"""Long-term spatial cache: a voxel hash grid of merged token representatives.

Evicted tokens land in the voxel containing their 3-D position. Each voxel
keeps a small long-term list of merged representatives plus a short buffer
of recent arrivals; one-to-one fusion, buffer aggregation, and re-merge keep
both under fixed caps, so occupied space bounds memory no matter how long
the stream runs. Cells are addressed by Morton code so nearby voxels get
nearby keys in the table. One store serves every (layer, head) channel of
a replay, with a separate set of cells per channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, VoxelRangeError
from .kernel import HALF_MAX, half_roundtrip, weighted_mean
from .tokens import TokenBlock

# Routing events, in the order of the per-channel event counters. Every
# evicted row gets one of fused, buffered, aggregated or dropped; re_merged
# counts the slots freed inside a cell.
EVENTS = ("fused", "buffered", "aggregated", "re_merged", "dropped")
FUSED, BUFFERED, AGGREGATED, RE_MERGED, DROPPED = range(len(EVENTS))

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
    """The voxel cells of every (layer, head) channel, plus event counters.

    A cell is keyed by (channel, Morton code) and holds two lists of rows
    of one shared pool. Every long-term and buffered entry is one row of
    `data`, laid out like a TokenBlock row as [key | value | position],
    with parallel ndarray columns: merge weight, count, score, birth frame
    and token index (-1 and a per-channel serial for merged rows), an
    arrival sequence number and the key norm. Channels never share a cell,
    so each channel behaves as if it had a store of its own; token counts,
    count mass, event counters, merged serials and cell centers are kept
    per channel. The pool grows on demand and reuses freed rows.
    Deterministic by construction: every argmax/argmin is resolved by list
    order (first wins), and retrieval breaks ranking ties by the arrival
    sequence number.
    """

    def __init__(
        self,
        voxel_size: float,
        merge_lambda: float,
        g_cap: int,
        e_cap: int,
        knn_radius_mult: float,
        quantize: bool = False,
        channels: int = 1,
    ):
        if g_cap < 1 or e_cap < 1:
            raise DimensionError(f"g_cap and e_cap must be >= 1, got {g_cap}, {e_cap}")
        if not voxel_size > 0.0:
            raise DimensionError(f"voxel_size must be positive, got {voxel_size}")
        if channels < 1:
            raise DimensionError(f"channels must be >= 1, got {channels}")
        self.voxel_size = float(voxel_size)
        self.merge_lambda = float(merge_lambda)
        self.g_cap = int(g_cap)
        self.e_cap = int(e_cap)
        self.knn_radius_mult = float(knn_radius_mult)
        self.quantize = quantize
        self.channels = int(channels)
        self.half_saturations = 0
        self.cells: dict[tuple[int, int], VoxelCell] = {}
        # per channel: event counts (columns in EVENTS order), held tokens,
        # and the source-token count mass held plus dropped
        self.channel_events = np.zeros((self.channels, len(EVENTS)), dtype=np.int64)
        self.token_counts = np.zeros(self.channels, dtype=np.int64)
        self.count_masses = np.zeros(self.channels, dtype=np.int64)
        self.dropped_count_mass = 0  # summed counts of dropped tokens
        # per channel: the keys of the cells the last insert_evicted touched
        self.touched: list[list[tuple[int, int]]] = [[] for _ in range(self.channels)]
        self._merged_serials = [0] * self.channels
        self._seq = 0  # store-wide arrival order, used as the final ranking tie-break
        self._centers = [np.empty((0, 3)) for _ in range(self.channels)]  # creation order
        self._center_keys: list[list[tuple[int, int]]] = [[] for _ in range(self.channels)]
        # (channel, ix, iy, iz) -> (cell key, cell), so a revisited cell
        # costs one tuple lookup instead of an encode
        self._by_coord: dict[tuple, tuple[tuple[int, int], VoxelCell]] = {}
        # the row pool; its width is fixed by the first block inserted
        self.d_h = 0
        self.data = np.empty((0, 0))
        self._keys = self.data  # view of the key columns of data
        self.weight = np.empty(0)
        self.count = np.empty(0, dtype=np.int64)
        self.score = np.empty(0)
        self.frame = np.empty(0, dtype=np.int64)
        self.token = np.empty(0, dtype=np.int64)
        self.seq = np.empty(0, dtype=np.int64)
        self._key_norm = np.empty(0)  # sqrt(k.k) of each held row, refreshed on write
        self._rows = 0  # pool rows handed out so far, freed ones included
        self._free: list[int] = []

    # -- sizing -----------------------------------------------------------

    @property
    def token_count(self) -> int:
        return int(self.token_counts.sum())

    @property
    def count_mass(self) -> int:
        """Total source-token count represented by the store plus drops."""
        return int(self.count_masses.sum())

    @property
    def events(self) -> dict[str, int]:
        """Event counts summed over the channels."""
        return dict(zip(EVENTS, self.channel_events.sum(axis=0).tolist()))

    def occupancy(self) -> dict[str, int]:
        g = sum(len(c.long_term) for c in self.cells.values())
        e = sum(len(c.buffer) for c in self.cells.values())
        return {"cells": len(self.cells), "g_tokens": g, "e_tokens": e}

    def block(self, rows) -> TokenBlock:
        """Copies of the given pool rows as a TokenBlock, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        return TokenBlock(
            self.data[rows],
            np.ones(len(rows), dtype=bool),
            self.score[rows],
            self.frame[rows],
            self.token[rows],
            self.count[rows],
        )

    # -- insertion --------------------------------------------------------

    def insert_evicted(self, block: TokenBlock, channels=None) -> list[str]:
        """Route every row of block into its channel's voxels; returns the
        events in row order.

        channels gives each row's channel (all 0 when omitted). The outcome
        is that of routing the rows one at a time in row order, bit for
        bit. Rows of different cells never interact, so they are routed in
        waves: wave k takes the k-th row of every touched (channel, voxel)
        cell, and a wave's cosines, fusions and buffer writes are batched.
        Per row:
        "fused": merged into a sufficiently similar long-term entry.
        "buffered": parked in the voxel buffer.
        "aggregated": the park filled the buffer and collapsed it.
        "dropped": the token has no position and cannot be placed.
        """
        self.touched = [[] for _ in range(self.channels)]
        n = len(block)
        if n == 0:
            return []
        width = block.rows.shape[1]
        if self.d_h == 0:
            self.d_h = block.d_h
            self.data = np.empty((0, width))
            self._reserve(16)
        elif width != self.data.shape[1]:
            raise DimensionError(f"length mismatch: {block.d_h} vs {self.d_h}")
        if channels is None:
            channels = np.zeros(n, dtype=np.int64)
        else:
            channels = np.asarray(channels, dtype=np.int64)
            if channels.shape != (n,):
                raise DimensionError(f"{n} rows but channels has shape {channels.shape}")
            if not ((channels >= 0) & (channels < self.channels)).all():
                raise DimensionError(f"channel outside [0, {self.channels})")
        placed = np.flatnonzero(block.mask)
        voxels = np.floor(block.positions[placed] / self.voxel_size)
        if not np.isfinite(voxels).all():
            raise VoxelRangeError(f"non-finite position in {block.positions[placed]}")
        if not ((voxels >= -COORD_LIMIT) & (voxels < COORD_LIMIT)).all():
            raise VoxelRangeError("voxel index outside [-2^20, 2^20)")

        # Every row's count is accounted, whatever its event.
        np.add.at(self.count_masses, channels, block.counts)
        events = np.full(n, -1, dtype=np.int64)
        dropped = ~block.mask
        events[dropped] = DROPPED
        self.dropped_count_mass += int(block.counts[dropped].sum())
        base = self._seq
        serials = list(self._merged_serials)
        merged: list[tuple[int, int, int]] = []  # (row index, channel, pool row)
        try:
            if placed.size:
                self._route(block, channels, placed, voxels.astype(np.int64), events, merged)
        finally:
            # Row i arrives as 2i (its representative, if it aggregates, as
            # 2i + 1), past every number handed out before: the order of
            # routing row by row.
            self._seq = base + 2 * n
            # Merged serials follow row order per channel, as row-by-row
            # routing assigns them; one folded away already needs none.
            for marker, (_, ch, r) in sorted(enumerate(merged), key=lambda m: m[1][0]):
                if self.frame[r] == -1 and self.token[r] == -2 - marker:
                    self.token[r] = serials[ch]
                serials[ch] += 1
            done = events >= 0
            np.add.at(self.channel_events, (channels[done], events[done]), 1)
        return [EVENTS[e] for e in events.tolist()]

    def _route(self, block, channels, placed, voxels, events, merged) -> None:
        # The distinct (channel, voxel) cells of the placed rows; the stable
        # lexsort keeps each cell's rows in row order, so a row's rank in
        # its cell is its wave.
        m = placed.size
        chan = channels[placed]
        order = np.lexsort((voxels[:, 2], voxels[:, 1], voxels[:, 0], chan))
        cell_rows = np.column_stack([chan, voxels])[order]
        new_cell = np.ones(m, dtype=bool)
        new_cell[1:] = (cell_rows[1:] != cell_rows[:-1]).any(axis=1)
        starts = np.flatnonzero(new_cell)
        group = np.cumsum(new_cell) - 1
        rank = np.arange(m) - starts[group]

        # Look up or create each cell once, in order of first appearance,
        # and tabulate its long-term rows, padded with -1 to g_cap.
        cells: list = [None] * starts.size
        keys: list = [None] * starts.size
        long_terms: list = [None] * starts.size
        cell_coords = cell_rows[starts].tolist()
        for g in np.argsort(order[starts], kind="stable").tolist():
            coord = tuple(cell_coords[g])
            entry = self._by_coord.get(coord)
            if entry is None:
                c = coord[0]
                key = (c, morton_encode(coord[1:]))
                cell = VoxelCell(VoxelCoord(*coord[1:]))
                self.cells[key] = cell
                self._by_coord[coord] = (key, cell)
                self._add_center(c, key, coord[1:])
            else:
                key, cell = entry
            cells[g], keys[g], long_terms[g] = cell, key, cell.long_term
            self.touched[key[0]].append(key)
        pad = [-1] * self.g_cap
        table = np.array([(lt + pad)[: self.g_cap] for lt in long_terms], dtype=np.int64)

        # Waves are contiguous runs of the placed rows sorted by rank, row
        # order within a wave.
        by_wave = np.argsort(rank * m + order)
        group = group[by_wave]
        by_wave = order[by_wave]
        chan = chan[by_wave]
        rows = placed[by_wave]
        inc_norm = np.sqrt(np.vecdot(block.keys, block.keys))[rows]
        arrival = self._seq + 2 * rows
        wave_events = np.full(m, FUSED)
        lo = 0
        for hi in np.cumsum(np.bincount(rank)).tolist():
            fused = self._fuse_wave(table[group[lo:hi]], block, rows[lo:hi], inc_norm[lo:hi])
            if fused.all():
                lo = hi
                continue
            # The rest park in their cells' buffers; a buffer that fills
            # collapses at once, before its cell's next row arrives.
            rest = np.flatnonzero(~fused) + lo
            lo = hi
            new = self._alloc(rest.size)
            i = rows[rest]
            self.data[new] = block.rows[i]
            self.weight[new] = 1.0
            self.count[new] = block.counts[i]
            self.score[new] = block.scores[i]
            self.frame[new] = block.frames[i]
            self.token[new] = block.tokens[i]
            self.seq[new] = arrival[rest]
            self._key_norm[new] = inc_norm[rest]
            self.token_counts += np.bincount(chan[rest], minlength=self.channels)
            wave_events[rest] = BUFFERED
            for r, g, j in zip(new.tolist(), group[rest].tolist(), rest.tolist()):
                cell = cells[g]
                cell.buffer.append(r)
                if len(cell.buffer) < self.e_cap:
                    continue
                self._seq = int(arrival[j]) + 1
                self.aggregate(keys[g])
                wave_events[j] = AGGREGATED
                long_term = cell.long_term
                self.token[long_term[-1]] = -2 - len(merged)
                merged.append((int(rows[j]), keys[g][0], long_term[-1]))
                table[g] = -1
                table[g, : len(long_term)] = long_term
        events[rows] = wave_events

    def _fuse_wave(self, reps: np.ndarray, block: TokenBlock, rows: np.ndarray,
                   norms: np.ndarray) -> np.ndarray:
        # Fuses the given rows of block (key norms norms), one per cell,
        # each into the most similar long-term entry of its cell (reps, -1
        # padded) where the cosine beats merge_lambda; returns which fused.
        incoming = block.rows[rows]
        cos = _cosines(self._keys[reps], incoming[:, None, : self.d_h],
                       self._key_norm[reps], norms[:, None])
        # a pad reads the pool's last row; neither it nor a NaN ever wins
        np.fmax(cos, -np.inf, out=cos)
        cos[reps < 0] = -np.inf
        best = cos.argmax(axis=1)
        pick = np.arange(rows.size), best
        best_cos = cos[pick]
        fused = best_cos > self.merge_lambda
        if fused.all():
            self._fuse(reps[pick], incoming, block.counts[rows], best_cos)
        elif fused.any():
            hit = np.flatnonzero(fused)
            self._fuse(reps[hit, best[hit]], incoming[hit], block.counts[rows[hit]],
                       best_cos[hit])
        return fused

    def aggregate(self, code: tuple[int, int]) -> None:
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
        scores = self.score[members].tolist()
        p = max(range(len(members)), key=scores.__getitem__)  # first max wins ties
        d = self.d_h
        rows = self.data[members]
        norms = self._key_norm[members]
        cos = _cosines(rows[:, :d], rows[p, :d], norms, norms[p]).tolist()
        # the pivot's own weight is e^1 by definition; exponentiating its
        # self-cosine would admit rounding noise below 1.0
        omegas = np.array([math.e if j == p else math.exp(c) for j, c in enumerate(cos)])
        mean = weighted_mean(rows, omegas)
        if self.quantize:
            mean[: 2 * d] = self._quantized(mean[: 2 * d])
        count = int(self.count[members].sum())
        channel = code[0]
        self._free.extend(members)
        cell.buffer = []
        self.token_counts[channel] -= len(members)
        r = int(self._alloc(1)[0])
        self.data[r] = mean
        self.weight[r] = float(omegas.sum())
        self.count[r] = count
        self.score[r] = scores[p]
        self.frame[r] = -1
        self.token[r] = self._merged_serials[channel]
        self._merged_serials[channel] += 1
        key = mean[:d]
        self._key_norm[r] = math.sqrt(key.dot(key))
        self._admit(cell, r, code)

    def re_merge(self, code: tuple[int, int]) -> None:
        """Free a long-term slot by folding the lightest entry into a peer.

        Victim is the minimum-weight entry (earliest on ties); it fuses
        into its most key-similar remaining neighbor regardless of the
        merge threshold.
        """
        cell = self.cells[code]
        long_term = cell.long_term
        if len(long_term) < 2:
            raise DimensionError("re_merge needs at least two long-term entries")
        weights = self.weight[long_term].tolist()
        victim = long_term.pop(min(range(len(weights)), key=lambda i: (weights[i], i)))
        cos = _cosines(self._keys[long_term], self._keys[victim],
                       self._key_norm[long_term], self._key_norm[victim]).tolist()
        best, best_cos = long_term[0], -2.0
        for r, c in zip(long_term, cos):
            if c > best_cos:
                best, best_cos = r, c
        self._fold(best, victim, best_cos, code[0])

    # -- retrieval ----------------------------------------------------------

    def retrieve(self, visible_positions: np.ndarray, quota: int, channel: int = 0) -> TokenBlock:
        """One channel's entries from voxels near the visible ones, best first.

        Neighborhood: the channel's cells whose center lies within
        knn_radius_mult * voxel_size of some visible voxel's center.
        Ranking: long-term entries before buffered ones, then nearer home
        voxel, then larger merge weight, then earlier arrival. Returns
        copies of at most quota rows.
        """
        keys = self._center_keys[channel]
        if quota <= 0 or not keys:
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
        centers = self._centers[channel][: len(keys)]
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
            cell = self.cells[keys[cell_i]]
            long_term, buffer = cell.long_term, cell.buffer
            rows += long_term + buffer
            tier += [0] * len(long_term) + [1] * len(buffer)
            dist += [dmin[cell_i]] * (len(long_term) + len(buffer))
        rows = np.array(rows, dtype=np.int64)
        order = np.lexsort((self.seq[rows], -self.weight[rows], np.array(dist), np.array(tier)))
        return self.block(rows[order[:quota]])

    # -- helpers ----------------------------------------------------------

    def _add_center(self, channel: int, key: tuple[int, int], coord: tuple) -> None:
        keys = self._center_keys[channel]
        n = len(keys)
        if n == len(self._centers[channel]):
            self._centers[channel] = _grown(self._centers[channel], max(16, 2 * n))
        self._centers[channel][n] = [(c + 0.5) * self.voxel_size for c in coord]
        keys.append(key)

    def _alloc(self, k: int) -> np.ndarray:
        # k pool rows: freed ones first, latest freed first, then new ones.
        reuse = min(k, len(self._free))
        rows = self._free[len(self._free) - reuse :][::-1]
        del self._free[len(self._free) - reuse :]
        start, self._rows = self._rows, self._rows + k - reuse
        if self._rows > len(self.seq):
            self._reserve(max(2 * len(self.seq), self._rows))
        return np.array(rows + list(range(start, self._rows)), dtype=np.int64)

    def _reserve(self, size: int) -> None:
        # Grow every pool column to size rows, the old ones copied over.
        self.data = _grown(self.data, size)
        self._keys = self.data[:, : self.d_h]
        for name in ("weight", "count", "score", "frame", "token", "seq", "_key_norm"):
            setattr(self, name, _grown(getattr(self, name), size))

    def _admit(self, cell: VoxelCell, r: int, code: tuple[int, int]) -> None:
        # Long-term insertion; at capacity a slot is freed first. With
        # g_cap=1 the sole resident folds into the newcomer instead, since
        # there is no peer to re-merge with.
        channel = code[0]
        if len(cell.long_term) >= self.g_cap:
            if self.g_cap == 1:
                old = cell.long_term.pop()
                cos = _cosines(self._keys[r : r + 1], self._keys[old],
                               self._key_norm[r : r + 1], self._key_norm[old])
                self._fold(r, old, float(cos[0]), channel)
            else:
                self.re_merge(code)
        cell.long_term.append(r)
        self.token_counts[channel] += 1
        self.seq[r] = self._seq
        self._seq += 1

    def _fold(self, r: int, old: int, cos: float, channel: int) -> None:
        # Fuse held row old into held row r and free old's slot.
        self._fuse(np.array([r]), self.data[old][None], self.count[old : old + 1],
                   np.array([cos]))
        self._free.append(old)
        self.token_counts[channel] -= 1
        self.channel_events[channel, RE_MERGED] += 1

    def _fuse(self, targets: np.ndarray, incoming: np.ndarray, counts: np.ndarray,
              cos: np.ndarray) -> None:
        # One-to-one fusion of incoming [key | value | position] rows into
        # the distinct pool rows targets: a newcomer joins with weight
        # omega = exp(cos) while the representative keeps its accumulated
        # weight Z and its score. Every operation is elementwise, so each
        # row gets the bits of a fusion on its own.
        omega = np.array([math.exp(c) for c in cos.tolist()])
        z = self.weight[targets]
        rows = self.data[targets]
        rows *= z[:, None]
        rows += omega[:, None] * incoming
        z += omega
        rows /= z[:, None]
        d = self.d_h
        if self.quantize:
            rows[:, : 2 * d] = self._quantized(rows[:, : 2 * d])
        self.data[targets] = rows
        keys = rows[:, :d]
        self._key_norm[targets] = np.sqrt(np.vecdot(keys, keys))
        self.weight[targets] = z
        self.count[targets] += counts

    def _quantized(self, vec: np.ndarray) -> np.ndarray:
        if not self.quantize:
            return vec
        self.half_saturations += int((np.abs(vec) > HALF_MAX).sum())
        return half_roundtrip(vec)


def _cosines(keys: np.ndarray, key: np.ndarray, norms, norm) -> np.ndarray:
    """Cosines of the rows of keys with key (broadcast), given their norms.

    np.vecdot gives each row the bits of one ndarray.dot, so every cosine
    equals the scalar dot / (norm * norm) of a single pair. The result is
    clipped into [-1, 1] with NaN kept, and a zero norm scores -1:
    quantization can flush a tiny key to exact zero, and a directionless
    key is dissimilar to everything. keys must have two or more axes.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cos = np.vecdot(keys, key)
        cos /= norms * norm
    np.minimum(cos, 1.0, out=cos)
    np.maximum(cos, -1.0, out=cos)
    cos[(norms == 0.0) | (norm == 0.0)] = -1.0
    return cos


def _grown(rows: np.ndarray, size: int) -> np.ndarray:
    # An array of size rows with the old ones copied to the front.
    grown = np.empty((size, *rows.shape[1:]), dtype=rows.dtype)
    grown[: len(rows)] = rows
    return grown
