"""The row-state stac channel against the object-based channel it replaced.

The reference below is the previous stac path, kept as test-local code: a
temporal cache and a voxel store that hold one Python object per token, a
channel step that stacks those objects into its key set, and a stand-in for
the replay's voxel store that retrieves each channel's objects from, and
routes its evictees one at a time into, a store of that channel's own. The
stand-in reads those stores back as the per-channel arrays the replayer
counts a chunk from. The channels under test keep the same state as rows of
arrays and share one voxel store, which takes every channel's evictees of a
chunk in one batched insertion. Every replay must give the same attention
outputs, bit for bit, and the same canonical stats stream, byte for byte.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pytest

from stacache import (CacheConfig, Policy, StreamReplayer, TokenBlock, TokenId, VoxelStore,
                      synth_trace)
from stacache.attention import attend
from stacache.kernel import HALF_MAX, half_roundtrip
from stacache.pipeline import _StacChannel
from stacache.spatial import EVENTS, RE_MERGED, VoxelCoord, morton_encode, voxel_indices
from oracles import feed_all, store_cells, weighted_mean


def _safe_cos(a, b):
    # the scalar cosine: two np.linalg.norm calls and one np.dot, clipped;
    # a zero-norm key scores -1 against everything
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return -1.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


@dataclass
class _Token:
    id: TokenId
    key: np.ndarray
    value: np.ndarray
    score: float = 0.0
    position: Optional[np.ndarray] = None
    count: int = 1
    weight: float = 1.0
    merged: bool = False


class _RefCache:
    """Reference, window and anchors as lists of token objects."""

    def __init__(self, window_frames, anchor_budget, gamma, quantize):
        self.window_frames, self.anchor_budget = window_frames, anchor_budget
        self.gamma, self.quantize = gamma, quantize
        self.half_saturations = 0
        self.reference: list[_Token] = []
        self.window: deque[list[_Token]] = deque()
        self.window_blocks: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self.reference_block = None
        self.anchors: list[_Token] = []

    @property
    def member_count(self):
        return len(self.snapshot())

    def snapshot(self):
        out = list(self.reference)
        for frame in self.window:
            out.extend(frame)
        return out + self.anchors

    def frame_blocks(self):
        blocks = [self.reference_block, *self.window_blocks]
        return [k for k, _ in blocks], [v for _, v in blocks]

    def register_reference(self, frame):
        self.reference, self.reference_block = self._make_tokens(frame, None)

    def ingest_frames(self, frames, initial_scores):
        for frame, scores in zip(frames, initial_scores):
            tokens, block = self._make_tokens(frame, scores)
            self.window.append(tokens)
            self.window_blocks.append(block)
        expelled = []
        while len(self.window) > self.window_frames:
            expelled.extend(self.window.popleft())
            self.window_blocks.popleft()
        return expelled

    def update_scores(self, mass):
        for token, m in zip(self.snapshot(), np.asarray(mass).tolist()):
            token.score = self.gamma * token.score + m

    def select_anchors(self, expelled):
        candidates = self.anchors + list(expelled)
        candidates.sort(key=lambda t: (-t.score, -t.id.frame_idx, t.id.token_idx))
        self.anchors = candidates[: self.anchor_budget]
        return candidates[self.anchor_budget :]

    def _make_tokens(self, frame, scores):
        keys, values = frame.keys, frame.values
        if self.quantize:
            self.half_saturations += int((np.abs(keys) > HALF_MAX).sum())
            self.half_saturations += int((np.abs(values) > HALF_MAX).sum())
            keys, values = half_roundtrip(keys), half_roundtrip(values)
        else:
            keys, values = np.array(keys), np.array(values)
        n = frame.token_count
        mask = np.asarray(frame.position_mask, dtype=bool).tolist()
        score_list = [0.0] * n if scores is None else np.asarray(scores).tolist()
        tokens = [
            _Token(TokenId(frame.frame_idx, j), k.copy(), v.copy(), s,
                   frame.positions[j].copy() if m else None)
            for j, (k, v, m, s) in enumerate(zip(keys, values, mask, score_list))
        ]
        return tokens, (keys, values)


@dataclass
class _RefCell:
    """One voxel's long-term and buffered token objects, each oldest first."""

    coord: VoxelCoord
    long_term: list[_Token] = field(default_factory=list)
    buffer: list[_Token] = field(default_factory=list)


class _RefStore:
    """Voxel cells of token objects, ranked by an id(token)-keyed sequence map."""

    def __init__(self, voxel_size, merge_lambda, g_cap, e_cap, knn_radius_mult, quantize):
        self.voxel_size, self.merge_lambda = voxel_size, merge_lambda
        self.g_cap, self.e_cap = g_cap, e_cap
        self.knn_radius_mult, self.quantize = knn_radius_mult, quantize
        self.half_saturations = 0
        self.cells: dict[int, _RefCell] = {}
        self.events = {"fused": 0, "buffered": 0, "aggregated": 0, "re_merged": 0, "dropped": 0}
        self.serial = 0
        self.seq = 0
        self.seqs: dict[int, int] = {}
        self.center_rows: list[tuple] = []
        self.center_codes: list[int] = []
        self.token_count = 0

    def insert_evicted(self, token):
        if token.position is None:
            self.events["dropped"] += 1
            return
        coord = VoxelCoord(*voxel_indices([token.position], self.voxel_size)[0].tolist())
        code = morton_encode(coord)
        cell = self.cells.get(code)
        if cell is None:
            cell = self.cells[code] = _RefCell(coord)
            self.center_codes.append(code)
            self.center_rows.append(tuple((c + 0.5) * self.voxel_size for c in coord))
        if cell.long_term:
            best_idx, best_cos = _ref_best_match(cell.long_term, token.key)
            if best_idx >= 0 and best_cos > self.merge_lambda:
                self._fuse(cell.long_term[best_idx], token, best_cos)
                self.events["fused"] += 1
                return
        cell.buffer.append(token)
        self.token_count += 1
        self.seqs[id(token)] = self.seq
        self.seq += 1
        if len(cell.buffer) >= self.e_cap:
            self.aggregate(cell)
            self.events["aggregated"] += 1
        else:
            self.events["buffered"] += 1

    def aggregate(self, cell):
        members = cell.buffer
        pivot = max(members, key=lambda t: t.score)
        omegas = np.array([
            math.e if t is pivot else math.exp(_safe_cos(pivot.key, t.key)) for t in members
        ])
        rep = _Token(
            id=TokenId(-1, self.serial),
            key=self._quantized(weighted_mean(np.stack([t.key for t in members]), omegas)),
            value=self._quantized(weighted_mean(np.stack([t.value for t in members]), omegas)),
            score=pivot.score,
            position=weighted_mean(np.stack([t.position for t in members]), omegas),
            count=sum(t.count for t in members),
            weight=float(omegas.sum()),
            merged=True,
        )
        self.serial += 1
        for t in members:
            self.seqs.pop(id(t), None)
        cell.buffer = []
        self.token_count -= len(members)
        if len(cell.long_term) >= self.g_cap:
            if self.g_cap == 1:
                old = cell.long_term.pop()
                self._fuse(rep, old, _safe_cos(rep.key, old.key))
                self.seqs.pop(id(old), None)
            else:
                lt = cell.long_term
                victim = lt.pop(min(range(len(lt)), key=lambda i: (lt[i].weight, i)))
                best_idx, best_cos = 0, -2.0
                for i, r in enumerate(lt):
                    c = _safe_cos(r.key, victim.key)
                    if c > best_cos:
                        best_idx, best_cos = i, c
                self._fuse(lt[best_idx], victim, best_cos)
                self.seqs.pop(id(victim), None)
            self.token_count -= 1
            self.events["re_merged"] += 1
        cell.long_term.append(rep)
        self.token_count += 1
        self.seqs[id(rep)] = self.seq
        self.seq += 1

    def retrieve(self, visible_positions, quota):
        vis = np.asarray(visible_positions, dtype=np.float64)
        if quota <= 0 or not self.cells or vis.size == 0:
            return []
        vis_coords = np.unique(np.floor(vis / self.voxel_size).astype(np.int64), axis=0)
        vis_centers = (vis_coords + 0.5) * self.voxel_size
        centers = np.asarray(self.center_rows)
        d = np.sqrt(((centers[:, None, :] - vis_centers[None, :, :]) ** 2).sum(axis=2))
        dmin = d.min(axis=1)
        radius = self.knn_radius_mult * self.voxel_size
        ranked = []
        for cell_i in np.flatnonzero(dmin <= radius + 1e-12):
            cell = self.cells[self.center_codes[cell_i]]
            dist = float(dmin[cell_i])
            for t in cell.long_term:
                ranked.append((0, dist, -t.weight, self.seqs[id(t)], t))
            for t in cell.buffer:
                ranked.append((1, dist, -t.weight, self.seqs[id(t)], t))
        ranked.sort(key=lambda r: r[:4])
        return [r[4] for r in ranked[:quota]]

    def _fuse(self, rep, incoming, cos_k):
        omega = math.exp(cos_k)
        z = rep.weight
        rep.key = self._quantized((z * rep.key + omega * incoming.key) / (z + omega))
        rep.value = self._quantized((z * rep.value + omega * incoming.value) / (z + omega))
        rep.position = (z * rep.position + omega * incoming.position) / (z + omega)
        rep.weight = z + omega
        rep.count += incoming.count
        rep.merged = True

    def _quantized(self, vec):
        if not self.quantize:
            return vec
        self.half_saturations += int((np.abs(vec) > HALF_MAX).sum())
        return half_roundtrip(vec)


def _ref_best_match(reps, key):
    key = np.asarray(key, dtype=np.float64)
    nb = math.sqrt(key.dot(key))
    best_idx, best_cos = -1, -2.0
    for i, rep in enumerate(reps):
        na = math.sqrt(rep.key.dot(rep.key))
        if na == 0.0 or nb == 0.0:
            c = -1.0
        else:
            c = float(rep.key.dot(key)) / (na * nb)
            if c > 1.0:
                c = 1.0
            elif c < -1.0:
                c = -1.0
        if c > best_cos:
            best_idx, best_cos = i, c
    return best_idx, best_cos


class _Retrieved(list):
    """One channel's retrieved token objects, with the birth frames the
    replayer counts merged representatives (frame -1) by."""

    @property
    def frames(self):
        return np.array([t.id.frame_idx for t in self], dtype=np.int64)


class _RefStores:
    """Stands in for the replay's voxel store over one object store per channel."""

    def __init__(self, stores):
        self.stores = stores

    @property
    def token_counts(self):
        return np.array([s.token_count for s in self.stores], dtype=np.int64)

    @property
    def channel_events(self):
        return np.array([[s.events[e] for e in EVENTS] for s in self.stores], dtype=np.int64)

    @property
    def half_saturations(self):
        return sum(s.half_saturations for s in self.stores)

    def retrieve(self, visible, quota, where=None):
        return [_Retrieved(s.retrieve(visible, quota)) for s in self.stores]

    def insert_evicted(self, block, channels):
        # back to token objects, routed one at a time into their channel's store
        for i, c in enumerate(channels.tolist()):
            self.stores[c].insert_evicted(_Token(
                TokenId(int(block.frames[i]), int(block.tokens[i])), block.keys[i].copy(),
                block.values[i].copy(), float(block.scores[i]),
                block.positions[i].copy() if block.mask[i] else None, int(block.counts[i])))


def _token_block(tokens, d_h):
    if not tokens:
        return TokenBlock.empty(d_h)
    return TokenBlock.build(
        [t.key for t in tokens], [t.value for t in tokens],
        [np.zeros(3) if t.position is None else t.position for t in tokens],
        mask=[t.position is not None for t in tokens], scores=[t.score for t in tokens],
        frames=[t.id.frame_idx for t in tokens], tokens=[t.id.token_idx for t in tokens],
        counts=[t.count for t in tokens])


class _RefChannel(_StacChannel):
    """The previous channel step over token objects (no audit checks; it
    counts the audits the channel under test counts)."""

    def __init__(self, config, budget, d_h, tokens_per_frame):
        self.config, self.budget = config, budget
        self.d_h, self.tokens_per_frame = d_h, tokens_per_frame
        self.cache = _RefCache(config.window_frames, budget.anchor_tokens, config.gamma,
                               config.half_precision)
        self.store = _RefStore(config.voxel_size, config.merge_lambda, config.g_cap,
                               config.e_cap, config.knn_radius_mult, config.half_precision)
        self.audits = 0

    def register(self, frame):
        self.cache.register_reference(frame)

    def step(self, frames, retrieved, audit):
        # retrieved holds token objects of this channel's own store, near
        # the positions its frames carry
        n = self.tokens_per_frame
        snap = self.cache.snapshot()
        chunk_q = np.concatenate([f.queries for f in frames])
        key_blocks, value_blocks = self.cache.frame_blocks()
        framed = len(snap) - len(self.cache.anchors)
        loose = snap[framed:] + retrieved
        if loose:
            key_blocks.append(np.stack([t.key for t in loose]))
            value_blocks.append(np.stack([t.value for t in loose]))
        keys = np.concatenate(key_blocks + [f.keys for f in frames])
        values = np.concatenate(value_blocks + [f.values for f in frames])
        counts = np.ones(keys.shape[0])
        counts[framed : framed + len(loose)] = [t.count for t in loose]
        temp_len, spat_len = len(snap), len(retrieved)
        res = attend(chunk_q, keys, values, counts, self.d_h)

        self.cache.update_scores(res.mass[:temp_len])
        base = temp_len + spat_len
        initial = [res.mass[base + i * n : base + (i + 1) * n] for i in range(len(frames))]
        expelled = self.cache.ingest_frames(frames, initial)
        evicted = self.cache.select_anchors(expelled)
        if audit:
            self.audits += 6
        spat_mass = float(res.mass[temp_len : temp_len + spat_len].sum())
        return res.outputs, spat_mass, _token_block(evicted, self.d_h)

    def _audit_store(self):
        self.audits += 2

    def score_sums(self):
        window = [t for frame in self.cache.window for t in frame]
        return {
            "reference": (sum(t.score for t in self.cache.reference), len(self.cache.reference)),
            "window": (sum(t.score for t in window), len(window)),
            "anchor": (sum(t.score for t in self.cache.anchors), len(self.cache.anchors)),
        }


def _replay(header, records, config, chunk_size, reference):
    replayer = StreamReplayer(header, Policy.stac(config), chunk_size=chunk_size, audit=True)
    if reference:
        # each reference channel keeps a store of its own
        replayer.channels = [
            _RefChannel(config, replayer.budget, header.d_h, header.tokens_per_frame)
            for _ in replayer.channels
        ]
        replayer.store = _RefStores([ch.store for ch in replayer.channels])
    return feed_all(replayer, records)


def _trace(frames, tokens, d_h, motion, layers=1, heads=2, zero_keys=False):
    header, records = synth_trace(seed=frames + tokens, frames=frames, tokens_per_frame=tokens,
                                  layers=layers, heads=heads, d_h=d_h, motion=motion)
    if zero_keys:
        # every third frame brings two zero keys, which must score -1
        # against everything
        for record in records[1::3]:
            record.data[:, :, 1, :2] = 0.0
    return header, records


CASES = [
    # (config, chunk size, trace: frames, tokens per frame, d_h, motion[, options])
    pytest.param(CacheConfig(), 4, (45, 8, 4, "revisit"), id="defaults"),
    pytest.param(CacheConfig(half_precision=True), 4, (45, 8, 4, "revisit"), id="quantized"),
    pytest.param(CacheConfig(g_cap=1, e_cap=1), 3, (44, 8, 4, "orbit"), id="g1-e1-chunk3"),
    pytest.param(CacheConfig(g_cap=4, e_cap=8, merge_lambda=0.99), 4, (60, 8, 4, "revisit"),
                 id="g4-e8-re-merge"),
    pytest.param(CacheConfig(g_cap=1, e_cap=8, merge_lambda=-0.5, half_precision=True), 1,
                 (30, 8, 4, "random_walk"), id="low-lambda-chunk1-quantized"),
    pytest.param(CacheConfig(g_cap=2, e_cap=3, merge_lambda=0.2, voxel_size=0.1), 3,
                 (42, 6, 3, "revisit"), id="partial-last-chunk"),
    pytest.param(CacheConfig(), 4, (30, 1, 4, "revisit"), id="positionless-only"),
    pytest.param(CacheConfig(), 4, (45, 16, 4, "revisit", {"layers": 2, "heads": 3}),
                 id="six-channels"),
    # eight voxels (one per octant) take each channel's whole eviction, far
    # over 2 * e_cap rows a chunk per cell: a buffer aggregates several times
    # within one insertion, and aggregates past the second re-merge
    pytest.param(CacheConfig(g_cap=2, e_cap=2, merge_lambda=0.99, voxel_size=50.0), 4,
                 (40, 12, 4, "revisit", {"layers": 2, "heads": 2}), id="one-cell-many-waves"),
    pytest.param(CacheConfig(g_cap=1, e_cap=2, merge_lambda=0.9, voxel_size=50.0), 3,
                 (40, 12, 4, "orbit", {"layers": 2, "heads": 2}), id="one-cell-g1-fold"),
    pytest.param(CacheConfig(g_cap=2, e_cap=3, merge_lambda=0.5, voxel_size=0.5,
                             half_precision=True), 4,
                 (45, 12, 4, "revisit", {"layers": 2, "heads": 2, "zero_keys": True}),
                 id="zero-keys-quantized"),
]


@pytest.mark.parametrize("config, chunk_size, geometry", CASES)
def test_row_state_replays_bit_identical_to_object_channel(config, chunk_size, geometry):
    header, records = _trace(*geometry[:4], **(geometry[4] if len(geometry) > 4 else {}))
    got, got_outputs = _replay(header, records, config, chunk_size, reference=False)
    want, want_outputs = _replay(header, records, config, chunk_size, reference=True)
    assert "\n".join(got.canonical_lines()).encode() == "\n".join(want.canonical_lines()).encode()
    assert sorted(got_outputs) == sorted(want_outputs)
    for f, out in want_outputs.items():
        assert np.array_equal(got_outputs[f], out), f
    assert got.summary["events"]["evicted"] > 0


def test_cases_reach_every_insert_path():
    # the cases above fuse, buffer, aggregate, re-merge and drop, and one
    # of them ends on a partial chunk
    seen = set()
    partial = 0
    for case in CASES:
        config, chunk_size, geometry = case.values
        header, records = _trace(*geometry[:4], **(geometry[4] if len(geometry) > 4 else {}))
        stats, _ = _replay(header, records, config, chunk_size, reference=False)
        seen.update(k for k, v in stats.summary["events"].items() if v > 0)
        partial += stats.rows[-1]["frame_hi"] - stats.rows[-1]["frame_lo"] + 1 < chunk_size
    assert {"fused", "buffered", "aggregated", "re_merged", "dropped"} <= seen
    assert partial


def _cell_bits(store, r):
    d = store.d_h
    row = store.data[r]
    return (TokenId(int(store.frame[r]), int(store.token[r])), row[:d].tobytes(),
            row[d : 2 * d].tobytes(), row[2 * d :].tobytes(), float(store.weight[r]).hex(),
            int(store.count[r]), float(store.score[r]).hex())


def _token_bits(t):
    return (t.id, t.key.tobytes(), t.value.tobytes(), t.position.tobytes(),
            float(t.weight).hex(), t.count, float(t.score).hex())


@pytest.mark.parametrize("quantize", [False, True], ids=["exact", "quantized"])
@pytest.mark.parametrize("g_cap", [1, 4])
def test_one_wave_aggregates_cells_of_two_channels_like_objects(g_cap, quantize):
    # Each round gives every cell of both channels exactly e_cap rows, the
    # w-th row of each cell in wave w, so six buffers of two channels fill
    # on one wave and collapse in one batch. Each cell's buffer holds the
    # same keys and scores every round: two of its three scores tie for the
    # pivot, its representatives tie on weight and on key, so re-merge
    # picks its victim among equals and folds it into the first of equal
    # peers. Nothing fuses (merge_lambda 1), and the values differ from
    # round to round, so every one of those choices shows in the bits.
    e_cap, d, channels = 3, 4, 2
    rng = np.random.default_rng(52)
    homes = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [-0.5, 2.5, 0.5]])
    keys = rng.normal(size=(channels, len(homes), e_cap, d))
    scores = np.array([np.roll([1.0, 1.0, 0.0], h) for h in range(len(homes))])
    store = VoxelStore(voxel_size=1.0, merge_lambda=1.0, g_cap=g_cap, e_cap=e_cap,
                       knn_radius_mult=2.0, quantize=quantize, channels=channels)
    refs = [_RefStore(1.0, 1.0, g_cap, e_cap, 2.0, quantize) for _ in range(channels)]
    batches = []
    aggregate = store.aggregate

    def spy(cells):
        batches.append(store.cell_channel[cells].tolist())
        return aggregate(cells)

    store.aggregate = spy
    serial = 0
    for _ in range(g_cap + 3):
        blocks = []
        for c, ref in enumerate(refs):
            order = [(w, h) for w in range(e_cap) for h in range(len(homes))]
            n = len(order)
            block = TokenBlock.build(
                [keys[c, h, w] for w, h in order], rng.normal(size=(n, d)),
                [homes[h] for _, h in order], scores=[scores[h, w] for w, h in order],
                frames=1, tokens=np.arange(serial, serial + n), counts=rng.integers(1, 3, n))
            serial += n
            blocks.append(block)
            for i in range(n):
                ref.insert_evicted(_Token(
                    TokenId(1, int(block.tokens[i])), block.keys[i].copy(),
                    block.values[i].copy(), float(block.scores[i]),
                    block.positions[i].copy(), int(block.counts[i])))
        events = store.insert_evicted(TokenBlock.concat(blocks),
                                      np.repeat(np.arange(channels), [len(b) for b in blocks]))
        assert events.count("aggregated") == channels * len(homes)
    # one batch a round, each of every cell of both channels
    assert [sorted(b) for b in batches] == [[0, 0, 0, 1, 1, 1]] * (g_cap + 3)
    assert store.channel_events.sum(0)[RE_MERGED] > 0

    cells = store_cells(store)
    for c, ref in enumerate(refs):
        assert dict(zip(EVENTS, store.channel_events[c].tolist())) == ref.events
        assert store.token_counts[c] == ref.token_count
        for code, cell in ref.cells.items():
            mine = cells[(c, code)]
            assert [_cell_bits(store, r) for r in mine.long_term] == \
                [_token_bits(t) for t in cell.long_term]
            assert [_cell_bits(store, r) for r in mine.buffer] == \
                [_token_bits(t) for t in cell.buffer]
    assert store.half_saturations == sum(ref.half_saturations for ref in refs)
    visible = np.array([[0.5, 0.5, 0.5], [0.2, 2.7, 0.1]])
    for quota in (1, 5, 40):
        got = store.retrieve(visible, quota)
        for block, ref in zip(got, refs):
            assert block.ids() == [t.id for t in ref.retrieve(visible, quota)]
