"""Long-term spatial cache: a voxel hash grid of merged token representatives.

Evicted tokens land in the voxel containing their 3-D position. Each voxel
keeps a small long-term list of merged representatives plus a short buffer
of recent arrivals; one-to-one fusion, buffer aggregation, and re-merge keep
both under fixed caps, so occupied space bounds memory no matter how long
the stream runs. Cells are numbered in creation order and found by their
(channel, voxel) coordinates; a cell's Morton code is its label. One store
serves every (layer, head) channel of a replay, with a separate set of
cells per channel.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateVectorError, DimensionError, VoxelRangeError
from .kernel import HALF_MAX, half_roundtrip
from .tokens import TokenBlock

# Routing events, in the order of the per-channel event counters. Every
# evicted row gets one of fused, buffered, aggregated or dropped; re_merged
# counts the slots freed inside a cell.
EVENTS = ("fused", "buffered", "aggregated", "re_merged", "dropped")
FUSED, BUFFERED, AGGREGATED, RE_MERGED, DROPPED = range(len(EVENTS))

# Signed voxel indices live in [-2^20, 2^20); the Morton bias shifts them
# into 21 unsigned bits per axis, 63 bits total.
COORD_LIMIT = 1 << 20

# Cells per block of retrieval's distance pass, which bounds its (cells, V)
# temporaries however many cells the store holds.
_DISTANCE_BLOCK = 256


class VoxelCoord(NamedTuple):
    ix: int
    iy: int
    iz: int


def voxel_indices(positions, voxel_size: float, where=None) -> np.ndarray:
    """Cells of the (n, 3) points, floor(p / voxel_size), as (n, 3) int64.

    The first row whose index is not finite or not in [-2^20, 2^20) fails
    with a VoxelRangeError, which names the row by where(i) when given.
    """
    p = np.asarray(positions, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 3:
        raise DimensionError(f"positions must be (n, 3), got {p.shape}")
    if not voxel_size > 0.0:
        raise DimensionError(f"voxel_size must be positive, got {voxel_size}")
    with np.errstate(over="ignore"):  # a huge finite position overflows to inf: out of range
        v = np.floor(p / voxel_size)
    bad = ~((v >= -COORD_LIMIT) & (v < COORD_LIMIT)).all(axis=1)  # NaN compares False
    if bad.any():
        i = int(bad.argmax())
        what = "not finite" if not np.isfinite(p[i]).all() else \
            f"outside the voxel index range [-2^20, 2^20) at voxel size {voxel_size}"
        at = f" of {where(i)}" if where is not None else ""
        raise VoxelRangeError(f"position {p[i].tolist()}{at} is {what}")
    return v.astype(np.int64)


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


_NO_CELLS = np.empty(0, dtype=np.int64)


class VoxelStore:
    """The voxel cells of every (layer, head) channel, plus event counters.

    A cell is numbered in creation order and labelled (channel, Morton
    code) in `cell_keys`. Per cell number the store keeps the cell's
    channel and center and two index tables into one shared row pool:
    `lt_rows`, the long-term rows (cells x g_cap), and `buf_rows`, the
    buffered rows (cells x e_cap), each oldest first with -1 in unused
    slots, plus their lengths `lt_len` and `buf_len`; the tables are the
    only record of which rows a cell holds. Every long-term and buffered
    entry is one row of `data`, laid out like a TokenBlock row as
    [key | value | position], with parallel ndarray columns: merge weight, count, score, birth frame
    and token index (-1 and a per-channel serial for merged rows), an
    arrival sequence number and the key norm. Channels never share a cell,
    so each channel behaves as if it had a store of its own; token counts,
    count mass, event counters and merged serials are kept per channel.
    The pool grows on demand and reuses freed rows.
    Deterministic by construction: every argmax/argmin is resolved by table
    order (first wins), every live row has its own arrival sequence number,
    and retrieval breaks ranking ties by it.
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
        self.cell_keys: list[tuple[int, int]] = []  # by cell number
        # per channel: event counts (columns in EVENTS order), held tokens,
        # and the source-token count mass held plus dropped
        self.channel_events = np.zeros((self.channels, len(EVENTS)), dtype=np.int64)
        self.token_counts = np.zeros(self.channels, dtype=np.int64)
        self.count_masses = np.zeros(self.channels, dtype=np.int64)
        # per channel: the numbers of the cells the last insert_evicted touched
        self.touched: list[np.ndarray] = [_NO_CELLS] * self.channels
        self._merged_serials = [0] * self.channels
        self._seq = 0  # store-wide arrival order, used as the final ranking tie-break
        # (channel, ix, iy, iz) -> cell number, so a revisited cell costs one
        # tuple lookup instead of an encode
        self._by_coord: dict[tuple, int] = {}
        # the cell tables, by cell number; they grow on demand
        self.cell_channel = np.empty(0, dtype=np.int64)
        self._centers = np.empty((0, 3))
        self.lt_rows = np.empty((0, self.g_cap), dtype=np.int64)
        self.lt_len = np.empty(0, dtype=np.int64)
        self.buf_rows = np.empty((0, self.e_cap), dtype=np.int64)
        self.buf_len = np.empty(0, dtype=np.int64)
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

    # -- reading ----------------------------------------------------------

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
        cell, and a wave's cosines, fusions, buffer writes and
        aggregations are batched.
        Per row:
        "fused": merged into a sufficiently similar long-term entry.
        "buffered": parked in the voxel buffer.
        "aggregated": the park filled the buffer and collapsed it.
        "dropped": the token has no position and cannot be placed.
        """
        self.touched = [_NO_CELLS] * self.channels
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
        voxels = voxel_indices(block.positions[placed], self.voxel_size, lambda i: (
            f"channel {channels[placed[i]]}, (frame {block.frames[placed[i]]}, "
            f"token {block.tokens[placed[i]]})"))

        # Every row's count is accounted, whatever its event.
        np.add.at(self.count_masses, channels, block.counts)
        events = np.full(n, -1, dtype=np.int64)
        events[~block.mask] = DROPPED
        base = self._seq
        serials = list(self._merged_serials)
        merged: list[tuple] = []  # per wave: (row indices, channels, representatives)
        try:
            if placed.size:
                self._route(block, channels, placed, voxels, events, merged)
        finally:
            # Row i arrives as 2i (its representative, if it aggregates, as
            # 2i + 1), past every number handed out before: the order of
            # routing row by row.
            self._seq = base + 2 * n
            if merged:
                # Merged serials follow row order per channel, as row-by-row
                # routing assigns them; one folded away already needs none.
                i, ch, r = (np.concatenate(part) for part in zip(*merged))
                order = np.argsort(i)
                i, r = i[order], r[order]
                serial = []
                for c in ch[order].tolist():
                    serial.append(serials[c])
                    serials[c] += 1
                live = (self.frame[r] == -1) & (self.token[r] == -2 - i)
                self.token[r[live]] = np.array(serial)[live]
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

        # Number each cell, in order of first appearance; new ones are
        # appended to the tables.
        appearance = np.argsort(order[starts], kind="stable")
        coords = [tuple(c) for c in cell_rows[starts[appearance]].tolist()]
        found = [self._by_coord.get(c, -1) for c in coords]
        if -1 in found:
            self._add_cells([c for c, i in zip(coords, found) if i < 0])
            found = [self._by_coord[c] for c in coords]
        touched = np.array(found, dtype=np.int64)
        cell_of = np.empty(starts.size, dtype=np.int64)
        cell_of[appearance] = touched
        touched_chan = self.cell_channel[touched]
        self.touched = [touched[touched_chan == c] for c in range(self.channels)]

        # Waves are contiguous runs of the placed rows sorted by rank, row
        # order within a wave.
        by_wave = np.argsort(rank * m + order)
        cell = cell_of[group[by_wave]]
        by_wave = order[by_wave]
        chan = chan[by_wave]
        rows = placed[by_wave]
        inc_norm = np.sqrt(np.vecdot(block.keys, block.keys))[rows]
        arrival = self._seq + 2 * rows
        wave_events = np.full(m, FUSED)
        lo = 0
        for hi in np.cumsum(np.bincount(rank)).tolist():
            fused = self._fuse_wave(self.lt_rows[cell[lo:hi]], block, rows[lo:hi],
                                    inc_norm[lo:hi])
            if fused.all():
                lo = hi
                continue
            # The rest park in their cells' buffers with one scatter; a
            # buffer that fills collapses at once, before its cell's next
            # row arrives.
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
            at = cell[rest]
            slot = self.buf_len[at]
            if slot.max() >= self.buf_rows.shape[1]:
                # only a buffer whose aggregation failed outgrows e_cap
                self.buf_rows = np.pad(self.buf_rows, ((0, 0), (0, self.buf_rows.shape[1])),
                                       constant_values=-1)
            self.buf_rows[at, slot] = new
            slot += 1
            self.buf_len[at] = slot
            full = slot >= self.e_cap
            if not full.any():
                continue
            j = rest[full]
            reps = self.aggregate(at[full])
            wave_events[j] = AGGREGATED
            # Each representative arrives right after the row that filled
            # its buffer; its serial waits for insert_evicted.
            self.seq[reps] = arrival[j] + 1
            self.token[reps] = -2 - rows[j]
            merged.append((rows[j], chan[j], reps))
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

    def aggregate(self, cells) -> np.ndarray:
        """Collapse the buffer of each given cell into one representative
        around its pivot; returns the representatives' pool rows.

        The pivot is the highest-score buffered row (earliest arrival on
        ties); every member, pivot included, contributes with weight
        exp(cos(pivot_key, member_key)). The representative inherits the
        pivot's score and a count/weight summed over the members. cells are
        distinct cell numbers, and the outcome is that of aggregating them
        one at a time in the given order, bit for bit: every cosine is one
        pair's, every weight one math.exp, every sum runs over the buffer
        axis alone, and freed rows join the free list in that order.
        """
        cells = np.asarray(cells, dtype=np.int64)
        lens = self.buf_len[cells]
        if not lens.all():
            raise DimensionError("aggregate called on an empty buffer")
        k, d = cells.size, self.d_h
        means = np.empty((k, self.data.shape[1]))
        z = np.empty(k)
        counts = np.empty(k, dtype=np.int64)
        scores = np.empty(k)
        # Buffers of one length collapse together; in a replay every buffer
        # collapses at e_cap rows, so this is one pass. Nothing is written
        # before every weight has passed its check.
        lengths = sorted(set(lens.tolist()))
        for n in lengths:
            sel = slice(None) if len(lengths) == 1 else np.flatnonzero(lens == n)
            members = self.buf_rows[cells[sel], :n]
            pick = np.arange(len(members)), self.score[members].argmax(axis=1)  # first max wins
            rows = self.data[members]
            norms = self._key_norm[members]
            keys = rows[:, :, :d]
            cos = _cosines(keys, keys[pick][:, None], norms, norms[pick][:, None])
            omegas = np.array([math.exp(c) for c in cos.ravel().tolist()]).reshape(cos.shape)
            # the pivot's own weight is e^1 by definition; exponentiating
            # its self-cosine would admit rounding noise below 1.0
            omegas[pick] = math.e
            if not (omegas > 0.0).all():
                raise DegenerateVectorError("weights must be strictly positive")
            total = omegas.sum(axis=1)
            z[sel] = total
            means[sel] = (omegas[:, :, None] * rows).sum(axis=1) / total[:, None]
            counts[sel] = self.count[members].sum(axis=1)
            scores[sel] = self.score[members[pick]]
        if self.quantize:
            means[:, : 2 * d] = self._quantized(means[:, : 2 * d])

        # Freeing a buffer and then taking one row hands back its last row.
        last = lens - 1
        reps = self.buf_rows[cells, last]
        freed = self.buf_rows[cells]
        channel = self.cell_channel[cells]
        self.data[reps] = means
        self.weight[reps] = z
        self.count[reps] = counts
        self.score[reps] = scores
        self.frame[reps] = -1
        serials, tokens = self._merged_serials, []
        for c in channel.tolist():
            tokens.append(serials[c])
            serials[c] += 1
        self.token[reps] = tokens
        keys = means[:, :d]
        self._key_norm[reps] = np.sqrt(np.vecdot(keys, keys))
        self.buf_rows[cells] = -1
        self.buf_len[cells] = 0
        np.add.at(self.token_counts, channel, 1 - lens)  # members out, representative in

        # Long-term insertion; a cell at capacity frees a slot first. With
        # g_cap=1 the sole resident folds into the newcomer instead, since
        # there is no peer to re-merge with.
        victims = np.full(k, -1, dtype=np.int64)
        at_cap = self.lt_len[cells] >= self.g_cap
        if at_cap.any():
            capped = cells[at_cap]
            if self.g_cap == 1:
                slot = self.lt_len[capped] - 1
                old = self.lt_rows[capped, slot]
                self.lt_rows[capped, slot] = -1
                self.lt_len[capped] = slot
                r = reps[at_cap]
                cos = _cosines(self._keys[r], self._keys[old], self._key_norm[r],
                               self._key_norm[old])
                self._fold(r, old, cos, channel[at_cap])
                victims[at_cap] = old
            else:
                victims[at_cap] = self.re_merge(capped)
                # taken back off the free list, to rejoin it after each
                # victim's own cell's members below
                del self._free[-capped.size :]
        slot = self.lt_len[cells]
        self.lt_rows[cells, slot] = reps
        self.lt_len[cells] = slot + 1
        self.seq[reps] = self._seq + np.arange(k)
        self._seq += k
        freed[np.arange(k), last] = victims
        keep = (np.arange(freed.shape[1]) < lens[:, None]) & (freed >= 0)
        self._free.extend(freed[keep].tolist())
        return reps

    def re_merge(self, cells) -> np.ndarray:
        """Free a long-term slot in each given cell by folding its lightest
        entry into a peer; returns the freed pool rows.

        Victim is the minimum-weight entry (earliest on ties); it fuses
        into its most key-similar remaining neighbor regardless of the
        merge threshold. cells are distinct cell numbers, and the outcome
        is that of re-merging them one at a time in the given order.
        """
        cells = np.asarray(cells, dtype=np.int64)
        held = self.lt_len[cells]
        if (held < 2).any():
            raise DimensionError("re_merge needs at least two long-term entries")
        k, g = cells.size, self.g_cap
        table = self.lt_rows[cells]
        weights = np.where(table >= 0, self.weight[table], np.inf)
        pick = np.arange(k), weights.argmin(axis=1)  # first min wins
        victims = table[pick]
        rest = table[np.arange(g) != pick[1][:, None]].reshape(k, g - 1)
        cos = _cosines(self._keys[rest], self._keys[victims][:, None],
                       self._key_norm[rest], self._key_norm[victims][:, None])
        # The first peer that beats -2 takes the victim, so a NaN cosine
        # never wins and an all-NaN cell folds into its first peer at -2.
        np.fmax(cos, -2.0, out=cos)
        cos[rest < 0] = -np.inf
        best = np.arange(k), cos.argmax(axis=1)
        self.lt_rows[cells, : g - 1] = rest
        self.lt_rows[cells, g - 1] = -1
        self.lt_len[cells] = held - 1
        self._fold(rest[best], victims, cos[best], self.cell_channel[cells])
        self._free.extend(victims.tolist())
        return victims

    # -- retrieval ----------------------------------------------------------

    def retrieve(self, visible_positions: np.ndarray, quota: int, where=None) -> list[TokenBlock]:
        """Every channel's entries from voxels near the visible ones, best
        first: one block per channel, of copies of at most quota rows.
        A bad visible position is named by where(row) when given.

        Neighborhood: the channel's cells whose center lies within
        knn_radius_mult * voxel_size of some visible voxel's center.
        Ranking: long-term entries before buffered ones, then nearer home
        voxel, then larger merge weight, then earlier arrival. Every live
        row has its own arrival number, so the ranking is a total order and
        the candidates can be gathered in any order.
        """
        # Checked before any way out: a bad position fails the chunk that
        # brings it, whatever the store holds.
        coords = voxel_indices(visible_positions, self.voxel_size,
                               where or (lambda i: f"visible row {i}"))
        n_cells = len(self.cell_keys)
        if quota <= 0 or not n_cells or not len(coords):
            return [self.block([]) for _ in range(self.channels)]
        # Only the nearest visible voxel counts, so the visible voxels need
        # no particular order; duplicates are dropped after a lexsort.
        coords = coords[np.lexsort(coords.T)]
        coords = coords[np.r_[True, (coords[1:] != coords[:-1]).any(axis=1)]]
        vis_centers = (coords + 0.5) * self.voxel_size
        # Squared distances summed x, y, z left to right, the order of
        # ((c - v) ** 2).sum(axis=-1); sqrt is monotone, so the root of the
        # minimum is the minimum of the roots. Every cell's distance is its
        # own, so blocks of cells bound the (cells, V) temporaries.
        dmin = np.empty(n_cells)
        for lo in range(0, n_cells, _DISTANCE_BLOCK):
            centers = self._centers[lo : min(lo + _DISTANCE_BLOCK, n_cells)]
            sq = (centers[:, :1] - vis_centers[:, 0]) ** 2
            sq += (centers[:, 1:2] - vis_centers[:, 1]) ** 2
            sq += (centers[:, 2:] - vis_centers[:, 2]) ** 2
            sq.min(axis=1, out=dmin[lo : lo + len(centers)])
        np.sqrt(dmin, out=dmin)
        near = np.flatnonzero(dmin <= self.knn_radius_mult * self.voxel_size + 1e-12)
        table = np.concatenate([self.lt_rows[near], self.buf_rows[near]], axis=1)
        held = table >= 0
        rows = table[held]
        tier = np.broadcast_to(np.arange(table.shape[1]) >= self.g_cap, table.shape)[held]
        cell = np.broadcast_to(near[:, None], table.shape)[held]
        chan = self.cell_channel[cell]
        order = np.lexsort((self.seq[rows], -self.weight[rows], dmin[cell], tier, chan))
        rows = rows[order]
        bounds = np.searchsorted(chan[order], np.arange(self.channels + 1)).tolist()
        return [self.block(rows[a : min(b, a + quota)]) for a, b in zip(bounds, bounds[1:])]

    # -- helpers ----------------------------------------------------------

    def _add_cells(self, coords: list[tuple]) -> None:
        # New cells (channel, ix, iy, iz), numbered on from the last one.
        start = len(self.cell_keys)
        end = start + len(coords)
        if end > len(self.lt_len):
            size = max(16, 2 * len(self.lt_len), end)
            for name in ("cell_channel", "_centers", "lt_rows", "lt_len", "buf_rows", "buf_len"):
                setattr(self, name, _grown(getattr(self, name), size))
        for i, coord in enumerate(coords, start):
            self.cell_keys.append((coord[0], morton_encode(coord[1:])))
            self._by_coord[coord] = i
        c = np.array(coords, dtype=np.int64)
        self.cell_channel[start:end] = c[:, 0]
        self._centers[start:end] = (c[:, 1:] + 0.5) * self.voxel_size
        self.lt_rows[start:end] = -1
        self.lt_len[start:end] = 0
        self.buf_rows[start:end] = -1
        self.buf_len[start:end] = 0

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

    def _fold(self, targets: np.ndarray, old: np.ndarray, cos: np.ndarray,
              channels: np.ndarray) -> None:
        # Fuse held rows old into the distinct held rows targets; the
        # caller frees old's slots.
        self._fuse(targets, self.data[old], self.count[old], cos)
        folded = np.bincount(channels, minlength=self.channels)
        self.token_counts -= folded
        self.channel_events[:, RE_MERGED] += folded

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
