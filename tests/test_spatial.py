"""Voxel grid, Morton codes, merging rules, and retrieval ranking."""

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from stacache import (
    DimensionError,
    TokenBlock,
    TokenId,
    VoxelCoord,
    VoxelRangeError,
    VoxelStore,
    morton_decode,
    morton_encode,
)
from stacache import kernel
from stacache.spatial import AGGREGATED, DROPPED, RE_MERGED, voxel_indices
from oracles import (FusionOracle, concat_blocks, morton_oracle, py_cosine, retrieve_oracle,
                     store_cells, weighted_mean)

LIMIT = 1 << 20


def _token(key, position=None, score=0.0, frame=1, idx=0, count=1):
    """A one-row block, as the temporal cache hands evictees on."""
    key = np.asarray(key, dtype=float)
    return TokenBlock.build(
        key[None, :], key[None, :] * 2.0 + 1.0,
        None if position is None else np.asarray(position, dtype=float)[None, :],
        scores=[score], frames=frame, tokens=[idx], counts=count,
    )


def _insert(store, token):
    (event,) = store.insert_evicted(token)
    return event


def _key(store, r):
    return store.data[r, : store.d_h]


def _value(store, r):
    return store.data[r, store.d_h : 2 * store.d_h]


# -- morton -----------------------------------------------------------------


def test_morton_roundtrip_corners():
    for corner in itertools.product([-LIMIT, LIMIT - 1], repeat=3):
        coord = VoxelCoord(*corner)
        assert morton_decode(morton_encode(coord)) == coord


def test_morton_matches_bit_oracle():
    rng = np.random.default_rng(41)
    for _ in range(2000):
        c = VoxelCoord(*(int(x) for x in rng.integers(-LIMIT, LIMIT, size=3)))
        assert morton_encode(c) == morton_oracle(*c)


def test_morton_axis_bits():
    # x occupies bit 0, y bit 1, z bit 2 of each 3-bit group
    origin = morton_encode(VoxelCoord(-LIMIT, -LIMIT, -LIMIT))
    assert origin == 0
    assert morton_encode(VoxelCoord(-LIMIT + 1, -LIMIT, -LIMIT)) == 1
    assert morton_encode(VoxelCoord(-LIMIT, -LIMIT + 1, -LIMIT)) == 2
    assert morton_encode(VoxelCoord(-LIMIT, -LIMIT, -LIMIT + 1)) == 4


def test_morton_locality_within_aligned_block():
    # inside an even-aligned 2x2x2 block, stepping one axis flips only the
    # lowest 3-bit group
    rng = np.random.default_rng(42)
    for _ in range(300):
        base = [int(x) * 2 for x in rng.integers(-LIMIT // 2, LIMIT // 2 - 1, size=3)]
        a = morton_encode(VoxelCoord(*base))
        for axis in range(3):
            stepped = list(base)
            stepped[axis] += 1
            b = morton_encode(VoxelCoord(*stepped))
            assert a >> 3 == b >> 3
            assert a != b


def test_morton_out_of_range():
    with pytest.raises(VoxelRangeError):
        morton_encode(VoxelCoord(LIMIT, 0, 0))
    with pytest.raises(VoxelRangeError):
        morton_encode(VoxelCoord(0, -LIMIT - 1, 0))
    with pytest.raises(VoxelRangeError):
        morton_decode(1 << 63)


def test_voxel_indices_floor_semantics():
    got = voxel_indices([[0.26, 0.0, -0.01], [-0.26, 0.05, 0.0]], 0.05)
    assert got.dtype == np.int64
    assert got.tolist() == [[5, 0, -1], [-6, 1, 0]]


def test_voxel_indices_rejects_bad_input():
    with pytest.raises(VoxelRangeError):
        voxel_indices([[np.nan, 0, 0]], 0.05)
    with pytest.raises(VoxelRangeError):
        voxel_indices([[1e7, 0, 0]], 0.05)
    with pytest.raises(DimensionError):
        voxel_indices([[1.0, 2.0]], 0.05)
    with pytest.raises(DimensionError):
        voxel_indices([1.0, 2.0, 3.0], 0.05)


# -- insertion and merging ----------------------------------------------------


def _store(**kw):
    defaults = dict(voxel_size=1.0, merge_lambda=0.8, g_cap=4, e_cap=8, knn_radius_mult=2.0)
    defaults.update(kw)
    return VoxelStore(**defaults)


def test_positionless_token_is_dropped():
    store = _store()
    assert _insert(store, _token([1.0, 0.0])) == "dropped"
    assert store.channel_events.sum(0)[DROPPED] == 1
    assert store.token_counts.sum() == 0
    assert store.count_masses.sum() == 1


def test_first_token_is_buffered():
    store = _store()
    event = _insert(store, _token([1.0, 0.0], position=[0.5, 0.5, 0.5]))
    assert event == "buffered"
    cell = next(iter(store_cells(store).values()))
    assert len(cell.buffer) == 1 and len(cell.long_term) == 0
    (row,) = cell.buffer
    assert store.block([row]).ids() == [TokenId(1, 0)]
    assert store.weight[row] == 1.0 and store.count[row] == 1


def test_buffer_fills_then_aggregates():
    store = _store(e_cap=3)
    keys = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    events = [
        _insert(store, _token(k, position=[0.5, 0.5, 0.5], idx=i, score=float(i)))
        for i, k in enumerate(keys)
    ]
    assert events == ["buffered", "buffered", "aggregated"]
    cell = next(iter(store_cells(store).values()))
    assert len(cell.buffer) == 0
    assert len(cell.long_term) == 1
    rep = cell.long_term[0]
    assert store.count[rep] == 3
    assert store.frame[rep] == -1  # a merged representative


def test_aggregate_pivot_and_weights():
    # pivot is the top score (earliest on ties); every member contributes
    # with weight exp(cos(pivot, member))
    store = _store(e_cap=3)
    keys = [np.array([1.0, 0.0]), np.array([0.9, 0.1]), np.array([0.0, 1.0])]
    scores = [2.0, 2.0, 1.0]  # the tie at 2.0 goes to idx 0
    for i, (k, sc) in enumerate(zip(keys, scores)):
        _insert(store, _token(k, position=[0.5, 0.5, 0.5], idx=i, score=sc))
    rep = next(iter(store_cells(store).values())).long_term[0]
    omegas = [math.exp(py_cosine(keys[0], k)) for k in keys]
    want_key = sum(w * k for w, k in zip(omegas, keys)) / sum(omegas)
    want_val = sum(w * (k * 2.0 + 1.0) for w, k in zip(omegas, keys)) / sum(omegas)
    assert store.score[rep] == 2.0
    assert store.weight[rep] == pytest.approx(sum(omegas), abs=1e-12)
    assert np.allclose(_key(store, rep), want_key, atol=1e-12)
    assert np.allclose(_value(store, rep), want_val, atol=1e-12)


def test_similar_token_fuses_into_representative():
    store = _store(e_cap=1)  # every buffered token aggregates immediately
    first = _token([1.0, 0.0, 0.0], position=[0.5, 0.5, 0.5], idx=0)
    assert _insert(store, first) == "aggregated"
    rep = next(iter(store_cells(store).values())).long_term[0]
    z0, key0 = store.weight[rep], _key(store, rep).copy()
    incoming = _token([0.96, 0.1, 0.0], position=[0.5, 0.5, 0.5], idx=1)
    cos = py_cosine(key0, incoming.keys[0])
    assert cos > 0.8
    assert _insert(store, incoming) == "fused"
    omega = math.exp(cos)
    assert store.weight[rep] == pytest.approx(z0 + omega, abs=1e-12)
    assert np.allclose(_key(store, rep), (z0 * key0 + omega * incoming.keys[0]) / (z0 + omega),
                       atol=1e-12)
    assert store.count[rep] == 2


def test_dissimilar_token_goes_to_buffer():
    store = _store(e_cap=4)
    _insert(store, _token([1.0, 0.0], position=[0.5, 0.5, 0.5], idx=0))
    # buffer -> no aggregation yet; a second orthogonal key must not fuse
    event = _insert(store, _token([0.0, 1.0], position=[0.5, 0.5, 0.5], idx=1))
    assert event == "buffered"


def test_fusion_recurrence_matches_one_pass_oracle():
    rng = np.random.default_rng(43)
    for _ in range(50):
        store = _store(e_cap=1, merge_lambda=0.5)
        d = int(rng.integers(2, 8))
        base = rng.normal(size=d)
        base /= np.linalg.norm(base)
        first = _token(base, position=[0.5, 0.5, 0.5], idx=0)
        _insert(store, first)
        cell = next(iter(store_cells(store).values()))
        rep = cell.long_term[0]
        key_oracle = FusionOracle(first.keys[0], math.e)  # singleton pivot weight e^1
        val_oracle = FusionOracle(first.values[0], math.e)
        total = 1
        for i in range(1, int(rng.integers(2, 12))):
            vec = base + 0.15 * rng.normal(size=d)
            tok = _token(vec, position=[0.5, 0.5, 0.5], idx=i)
            omega = math.exp(py_cosine(key_oracle.mean(), tok.keys[0]))
            assert _insert(store, tok) == "fused"
            key_oracle.add(tok.keys[0], omega)
            val_oracle.add(tok.values[0], omega)
            total += 1
        assert np.allclose(_key(store, rep), key_oracle.mean(), rtol=1e-6, atol=1e-12)
        assert np.allclose(_value(store, rep), val_oracle.mean(), rtol=1e-6, atol=1e-12)
        assert store.weight[rep] == pytest.approx(key_oracle.den, abs=1e-9)
        assert store.count[rep] == total


def test_re_merge_picks_min_weight_victim():
    # two dissimilar singleton reps have equal weight e; the tie picks the
    # older one, which then fuses into the survivor
    store = _store(e_cap=1, g_cap=2, merge_lambda=0.99)
    a = _token([1.0, 0.0], position=[0.5, 0.5, 0.5], idx=0)
    b = _token([0.0, 1.0], position=[0.5, 0.5, 0.5], idx=1)
    c = _token([-1.0, 0.0], position=[0.5, 0.5, 0.5], idx=2)
    for t in (a, b, c):
        _insert(store, t)
    cell = next(iter(store_cells(store).values()))
    assert len(cell.long_term) == 2
    assert store.channel_events.sum(0)[RE_MERGED] == 1
    merged, newest = cell.long_term
    # the victim (rep of a) fused into the rep of b; counts conserved
    assert store.count[merged] == 2
    assert store.count[newest] == 1
    assert store.count_masses.sum() == 3


def test_g_cap_one_folds_resident_into_newcomer():
    store = _store(e_cap=1, g_cap=1, merge_lambda=0.99)
    _insert(store, _token([1.0, 0.0], position=[0.5, 0.5, 0.5], idx=0))
    _insert(store, _token([0.0, 1.0], position=[0.5, 0.5, 0.5], idx=1))
    cell = next(iter(store_cells(store).values()))
    assert len(cell.long_term) == 1
    assert store.count[cell.long_term[0]] == 2
    assert store.channel_events.sum(0)[RE_MERGED] == 1


def test_capacity_invariants_under_random_load():
    rng = np.random.default_rng(44)
    store = _store(voxel_size=1.0, g_cap=3, e_cap=4, merge_lambda=0.8)
    inserted = 0
    for i in range(500):
        pos = rng.uniform(0.0, 3.0, size=3)  # a handful of cells
        key = rng.normal(size=5)
        _insert(store, _token(key, position=pos, idx=i, score=rng.random()))
        inserted += 1
        for cell in store_cells(store).values():
            assert len(cell.long_term) <= 3
            assert len(cell.buffer) < 4
    assert store.count_masses.sum() == inserted


def test_insert_block_places_rows_in_order():
    # one block routes its rows in row order; a positionless row is dropped
    # and a row outside the voxel range fails the whole block
    store = _store(e_cap=2)
    block = TokenBlock.build(
        np.eye(3), np.eye(3), [[0.5, 0.5, 0.5], [9.0, 9.0, 9.0], [0.5, 0.5, 0.5]],
        mask=[True, False, True],
    )
    assert store.insert_evicted(block) == ["buffered", "dropped", "aggregated"]
    with pytest.raises(VoxelRangeError):
        store.insert_evicted(TokenBlock.build(np.eye(3)[:1], np.eye(3)[:1], [[1e7, 0.0, 0.0]]))
    with pytest.raises(DimensionError):
        store.insert_evicted(_token([1.0, 0.0], position=[0.5, 0.5, 0.5]))
    with pytest.raises(DimensionError):
        store.insert_evicted(block, channels=[0, 1, 0])  # the store has one channel


# -- retrieval ----------------------------------------------------------------


def test_retrieval_ranking_and_quota():
    store = _store(voxel_size=1.0, e_cap=8, knn_radius_mult=2.0)
    # cell A at origin: two buffered tokens, drained into one rep, plus a
    # later orthogonal arrival that stays buffered
    a_pos = [0.5, 0.5, 0.5]
    for i in range(2):
        _insert(store, _token([1.0, 0.0], position=a_pos, idx=i))
    store.aggregate([next(iter(store_cells(store).values())).index])
    _insert(store, _token([0.0, 1.0], position=a_pos, idx=5))
    # cell B one step away holds only a buffered token
    _insert(store, _token([1.0, 1.0], position=[1.5, 0.5, 0.5], idx=7))

    (got,) = store.retrieve(np.array([[0.4, 0.4, 0.4]]), quota=10)
    # long-term rep first, then the near buffered token, then the far one
    assert got.frames[0] == -1 and (got.frames[1:] != -1).all()
    assert got.ids()[1] == TokenId(1, 5)
    assert got.ids()[2] == TokenId(1, 7)
    (truncated,) = store.retrieve(np.array([[0.4, 0.4, 0.4]]), quota=2)
    assert truncated.ids() == got.ids()[:2]


def test_retrieval_radius_cutoff():
    store = _store(voxel_size=1.0, knn_radius_mult=2.0)
    _insert(store, _token([1.0, 0.0], position=[0.5, 0.5, 0.5], idx=0))
    _insert(store, _token([1.0, 0.0], position=[2.5, 0.5, 0.5], idx=1))  # exactly 2.0 away
    _insert(store, _token([1.0, 0.0], position=[3.5, 0.5, 0.5], idx=2))  # 3.0 away
    (got,) = store.retrieve(np.array([[0.5, 0.5, 0.5]]), quota=10)
    ids = got.tokens.tolist()
    assert ids == [0, 1]  # the boundary cell is included, the far one is not


def test_retrieval_prefers_heavier_equidistant_entries():
    store = _store(voxel_size=1.0, e_cap=2, merge_lambda=0.95)
    # two cells at the same distance from the probe; one rep is heavier
    for i in range(2):
        _insert(store, _token([1.0, 0.0], position=[1.5, 0.5, 0.5], idx=i))
    for i in range(2, 4):
        _insert(store, _token([1.0, 0.05], position=[-0.5, 0.5, 0.5], idx=i))
    # fuse one more into the second cell to raise its weight
    _insert(store, _token([1.0, 0.04], position=[-0.5, 0.5, 0.5], idx=9))
    (got,) = store.retrieve(np.array([[0.5, 0.5, 0.5]]), quota=2)
    assert got.counts[0] == 3
    assert got.counts[1] == 2


def test_retrieval_distance_ties_break_as_summed_squares():
    # Cells at permuted offsets (1, 2, 3), (3, 2, 1), ... are equidistant in
    # exact arithmetic; in floats their distances tie or differ in the last
    # bit depending on the order the squares are summed, and that decides
    # the ranking. It must be the order of ((c - v) ** 2).sum(axis=-1).
    vs = 0.05
    store = _store(voxel_size=vs, knn_radius_mult=4.0)
    offsets = list(itertools.product(range(-3, 4), repeat=3))
    np.random.default_rng(47).shuffle(offsets)
    for i, off in enumerate(offsets):
        _insert(store, _token([1.0, 0.0], position=(np.array(off) + 0.5) * vs, idx=i))
    for probe in ([0.5, 0.5, 0.5], [1.5, -0.5, 2.5], [-2.5, 0.5, -1.5]):
        visible = np.array([probe]) * vs
        (got,) = store.retrieve(visible, quota=len(offsets))
        center = (np.floor(visible / vs) + 0.5) * vs
        ranked = []
        for i, off in enumerate(offsets):
            cell = (np.array(off, dtype=np.float64) + 0.5) * vs
            dist = float(np.sqrt(((cell[None, :] - center) ** 2).sum(axis=1)).min())
            if dist <= store.knn_radius_mult * vs + 1e-12:
                ranked.append((dist, i))
        assert got.tokens.tolist() == [i for _, i in sorted(ranked)]


def test_retrieval_empty_cases():
    store = _store()
    assert len(store.retrieve(np.zeros((0, 3)), quota=5)[0]) == 0
    _insert(store, _token([1.0, 0.0], position=[0.5, 0.5, 0.5]))
    assert len(store.retrieve(np.array([[0.5, 0.5, 0.5]]), quota=0)[0]) == 0


def test_retrieval_rejects_bad_visible_positions_without_warning():
    # a NaN or far visible position fails the chunk that brings it, also when
    # the store is empty or the quota is zero, and never as a numpy warning
    empty, store = _store(), _store()
    _insert(store, _token([1.0, 0.0], position=[0.5, 0.5, 0.5]))
    for bad in ([np.nan, 0.5, 0.5], [1e300, 0.0, 0.0], [0.0, -np.inf, 0.0], [1e308, 0.0, 0.0]):
        visible = np.array([[0.5, 0.5, 0.5], bad])
        for s, quota in ((store, 10), (store, 0), (empty, 10)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(VoxelRangeError, match="visible row 1"):
                    s.retrieve(visible, quota)


def test_voxel_range_error_names_the_bad_row():
    store = _store(channels=2)
    good = [0.5, 0.5, 0.5]
    positions = [good] * 28 + [[0.5, 1e7, 0.5]] + [[np.nan, 0.0, 0.0]]
    block = TokenBlock.build(np.ones((30, 2)), np.ones((30, 2)), positions,
                             frames=np.arange(30) // 10 + 5, tokens=np.arange(30) % 10)
    channels = np.arange(30) % 2
    with pytest.raises(VoxelRangeError) as e:
        store.insert_evicted(block, channels)
    msg = str(e.value)
    assert "channel 0, (frame 7, token 8)" in msg and "10000000.0" in msg and "outside" in msg
    assert msg.count("[") == 2  # the row's position and the index range, no other rows
    block.positions[28] = good
    with pytest.raises(VoxelRangeError) as e:
        store.insert_evicted(block, channels)
    msg = str(e.value)
    assert "not finite" in msg and "channel 1, (frame 7, token 9)" in msg and "nan" in msg
    assert msg.count("[") == 1
    assert store.token_counts.sum() == 0


def test_retrieval_is_deterministic():
    def build():
        rng = np.random.default_rng(45)
        store = _store(voxel_size=1.0, g_cap=2, e_cap=3)
        for i in range(200):
            pos = rng.uniform(0.0, 4.0, size=3)
            _insert(store, _token(rng.normal(size=4), position=pos, idx=i, score=rng.random()))
        return store.retrieve(np.array([[1.5, 1.5, 1.5], [2.5, 2.5, 2.5]]), quota=12)[0]

    a, b = build(), build()
    assert a.ids() == b.ids()
    assert np.array_equal(a.keys, b.keys)


# -- exactness against the scalar reference -------------------------------------


@dataclass
class _Tok:
    """One token as an object, the way the reference routine holds it."""

    id: TokenId
    key: np.ndarray
    value: np.ndarray
    score: float = 0.0
    position: Optional[np.ndarray] = None
    count: int = 1
    weight: float = 1.0


class _ReferenceStore:
    """The straightforward insertion routine the store must match bit for bit.

    Tokens arrive one at a time. Each similarity is two np.linalg.norm
    calls and one np.dot, each cell goes through voxel_indices and
    morton_encode, and fusion recomputes every mean from scratch on token
    objects; the store's row pool must reproduce every event and every bit.
    """

    def __init__(self, voxel_size, merge_lambda, g_cap, e_cap, quantize):
        self.voxel_size, self.merge_lambda = voxel_size, merge_lambda
        self.g_cap, self.e_cap, self.quantize = g_cap, e_cap, quantize
        self.cells = {}
        self.half_saturations = 0
        self.serial = 0

    @staticmethod
    def _cos(a, b):
        # a zero-norm key has no direction and scores -1 against everything
        na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
        if na == 0.0 or nb == 0.0:
            return -1.0
        return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))

    def _q(self, vec):
        if not self.quantize:
            return vec
        self.half_saturations += int((np.abs(vec) > kernel.HALF_MAX).sum())
        return kernel.half_roundtrip(vec)

    def insert(self, token):
        if token.position is None:
            return "dropped"
        code = morton_encode(voxel_indices([token.position], self.voxel_size)[0].tolist())
        long_term, buffer = self.cells.setdefault(code, ([], []))
        best_idx, best_cos = -1, -2.0
        for i, rep in enumerate(long_term):
            c = self._cos(rep.key, token.key)
            if c > best_cos:
                best_idx, best_cos = i, c
        if best_idx >= 0 and best_cos > self.merge_lambda:
            self._fuse(long_term[best_idx], token, best_cos)
            return "fused"
        buffer.append(token)
        if len(buffer) >= self.e_cap:
            self._aggregate(long_term, buffer)
            return "aggregated"
        return "buffered"

    def _aggregate(self, long_term, buffer):
        pivot = max(buffer, key=lambda t: t.score)
        omegas = np.array([
            math.e if t is pivot else math.exp(self._cos(pivot.key, t.key)) for t in buffer
        ])
        rep = _Tok(
            id=TokenId(-1, self.serial),
            key=self._q(weighted_mean(np.stack([t.key for t in buffer]), omegas)),
            value=self._q(weighted_mean(np.stack([t.value for t in buffer]), omegas)),
            score=pivot.score,
            position=weighted_mean(np.stack([t.position for t in buffer]), omegas),
            count=sum(t.count for t in buffer),
            weight=float(omegas.sum()),
        )
        self.serial += 1
        buffer.clear()
        if len(long_term) >= self.g_cap:
            if self.g_cap == 1:
                old = long_term.pop()
                self._fuse(rep, old, self._cos(rep.key, old.key))
            else:
                vi = min(range(len(long_term)), key=lambda i: (long_term[i].weight, i))
                victim = long_term.pop(vi)
                best_idx, best_cos = 0, -2.0
                for i, r in enumerate(long_term):
                    c = self._cos(r.key, victim.key)
                    if c > best_cos:
                        best_idx, best_cos = i, c
                self._fuse(long_term[best_idx], victim, best_cos)
        long_term.append(rep)

    def _fuse(self, rep, incoming, cos_k):
        omega = math.exp(cos_k)
        z = rep.weight
        rep.key = self._q((z * rep.key + omega * incoming.key) / (z + omega))
        rep.value = self._q((z * rep.value + omega * incoming.value) / (z + omega))
        if rep.position is not None and incoming.position is not None:
            rep.position = (z * rep.position + omega * incoming.position) / (z + omega)
        rep.weight = z + omega
        rep.count += incoming.count


def _bits(token):
    pos = None if token.position is None else np.asarray(token.position).tobytes()
    return (token.id, token.key.tobytes(), token.value.tobytes(), pos,
            float(token.weight).hex(), token.count, float(token.score).hex())


def _row_bits(store, r):
    d = store.d_h
    row = store.data[r]
    return (TokenId(store.frame[r], store.token[r]), row[:d].tobytes(),
            row[d : 2 * d].tobytes(), row[2 * d :].tobytes(), float(store.weight[r]).hex(),
            store.count[r], float(store.score[r]).hex())


def _outcome(insert, token):
    try:
        return insert(token)
    except Exception as e:  # e.g. an aggregate over a NaN key fails in both
        return f"error:{type(e).__name__}"


def test_insert_is_bit_identical_to_scalar_reference():
    rng = np.random.default_rng(46)
    seen_events = set()
    for case in range(240):
        voxel_size = float(rng.choice([0.1, 0.5, 1.0]))
        params = dict(
            voxel_size=voxel_size,
            merge_lambda=float(rng.uniform(-0.5, 0.99)),
            g_cap=int(rng.integers(1, 5)),
            e_cap=int(rng.integers(1, 9)),
            quantize=bool(rng.random() < 0.3),
        )
        store = VoxelStore(knn_radius_mult=2.0, **params)
        ref = _ReferenceStore(**params)
        d = int(rng.integers(2, 7))
        history = []
        dropped_mass = 0  # summed counts of the rows that came back dropped
        for i in range(60):
            kind = rng.random()
            if kind < 0.08:
                key = np.zeros(d)
            elif kind < 0.25 and history:
                key = history[int(rng.integers(len(history)))].copy()  # cos = 1 with a twin
            elif kind < 0.29:
                key = np.full(d, np.nan)
            elif kind < 0.33:
                key = rng.normal(size=d) * 1e-9  # flushes to zero under quantization
            elif kind < 0.36:
                key = rng.normal(size=d).astype(np.float32)  # widened to float64 rows
            else:
                key = rng.normal(size=d) + 2.0 * (i % 2)
            history.append(np.asarray(key, dtype=np.float64))
            if rng.random() < 0.05:
                pos = None
            elif rng.random() < 0.3:  # exactly on voxel boundaries
                pos = rng.integers(-3, 4, size=3) * voxel_size
            else:
                pos = rng.uniform(-1.5 * voxel_size, 1.5 * voxel_size, size=3)
            score = float(rng.choice([0.0, 0.5, 1.0]))
            count = int(rng.integers(1, 4))
            block = TokenBlock.build(
                np.asarray(key)[None, :], (np.asarray(key) * 3.0 - 1.0)[None, :],
                None if pos is None else pos[None, :], scores=[score], frames=1, tokens=[i],
                counts=count,
            )
            token = _Tok(
                id=TokenId(1, i), key=block.keys[0].copy(), value=block.values[0].copy(),
                score=score, position=None if pos is None else block.positions[0].copy(),
                count=count,
            )

            got = _outcome(lambda b: store.insert_evicted(b)[0], block)
            want = _outcome(ref.insert, token)
            assert got == want, (case, i)
            seen_events.add(got)
            held = [r for c in store_cells(store).values() for r in (*c.long_term, *c.buffer)]
            assert store.token_counts.sum() == len(held)
            dropped_mass += count if got == "dropped" else 0
            assert store.count_masses.sum() == sum(store.count[r] for r in held) + dropped_mass

        cells = store_cells(store)
        assert set(cells) == {(0, code) for code in ref.cells}
        for (_, code), cell in cells.items():
            long_term, buffer = ref.cells[code]
            assert [_row_bits(store, r) for r in cell.long_term] == [_bits(t) for t in long_term]
            assert [_row_bits(store, r) for r in cell.buffer] == [_bits(t) for t in buffer]
        assert store.half_saturations == ref.half_saturations
    assert {"fused", "buffered", "aggregated", "dropped",
            "error:DegenerateVectorError"} <= seen_events


def test_nan_key_is_buffered_not_fused():
    store = _store(e_cap=4, merge_lambda=-0.5)
    _insert(store, _token([1.0, 0.0], position=[0.5, 0.5, 0.5], idx=0))
    store.aggregate([next(iter(store_cells(store).values())).index])
    event = _insert(store, _token([np.nan, 0.0], position=[0.5, 0.5, 0.5], idx=1))
    assert event == "buffered"


def _random_rows(rng, n, d, voxel_size, spread, quantize_tiny=False):
    """n evictee rows over a few voxels: repeats, zero keys and tiny keys."""
    keys = rng.normal(size=(n, d)) + 2.0 * (np.arange(n) % 2)[:, None]
    for i in range(n):
        kind = rng.random()
        if kind < 0.1:
            keys[i] = 0.0
        elif kind < 0.25 and i:
            keys[i] = keys[int(rng.integers(i))]  # cos = 1 with a twin
        elif kind < 0.3 and quantize_tiny:
            keys[i] *= 1e-9  # flushes to zero under quantization
    positions = rng.uniform(-spread, spread, size=(n, 3)) * voxel_size
    mask = rng.random(n) > 0.05
    return keys, positions, mask


def test_batched_insert_is_bit_identical_to_scalar_reference():
    # Blocks of many rows, a few cells each, so one call routes well over
    # 2 * e_cap rows into some cells: their buffers aggregate more than once
    # and re-merge (or fold, at g_cap=1) within one call's waves.
    rng = np.random.default_rng(48)
    seen = set()
    re_merged = 0
    for case in range(60):
        voxel_size = float(rng.choice([0.5, 1.0]))
        params = dict(
            voxel_size=voxel_size,
            merge_lambda=float(rng.uniform(-0.3, 0.99)),
            g_cap=int(rng.integers(1, 4)),
            e_cap=int(rng.integers(1, 4)),
            quantize=bool(rng.random() < 0.4),
        )
        store = VoxelStore(knn_radius_mult=2.0, **params)
        ref = _ReferenceStore(**params)
        d = int(rng.integers(2, 6))
        serial = 0
        for _ in range(4):
            n = int(rng.integers(1, 60))
            keys, positions, mask = _random_rows(rng, n, d, voxel_size, 1.5, params["quantize"])
            scores = rng.choice([0.0, 0.5, 1.0], size=n)
            counts = rng.integers(1, 4, size=n)
            block = TokenBlock.build(keys, keys * 3.0 - 1.0, positions, mask=mask, scores=scores,
                                     frames=1, tokens=np.arange(serial, serial + n),
                                     counts=counts)
            tokens = [
                _Tok(id=TokenId(1, serial + i), key=block.keys[i].copy(),
                     value=block.values[i].copy(), score=float(scores[i]),
                     position=block.positions[i].copy() if mask[i] else None,
                     count=int(counts[i]))
                for i in range(n)
            ]
            serial += n
            got = store.insert_evicted(block)
            assert got == [ref.insert(t) for t in tokens], case
            seen.update(got)
        cells = store_cells(store)
        assert set(cells) == {(0, code) for code in ref.cells}
        for (_, code), cell in cells.items():
            long_term, buffer = ref.cells[code]
            assert [_row_bits(store, r) for r in cell.long_term] == [_bits(t) for t in long_term]
            assert [_row_bits(store, r) for r in cell.buffer] == [_bits(t) for t in buffer]
        assert store.half_saturations == ref.half_saturations
        held = [r for c in cells.values() for r in (*c.long_term, *c.buffer)]
        assert store.token_counts.sum() == len(held)
        re_merged += store.channel_events.sum(0)[RE_MERGED]
    assert {"fused", "buffered", "aggregated", "dropped"} <= seen
    assert re_merged > 0


def test_one_store_of_channels_equals_a_store_per_channel():
    # A concatenated multi-channel block inserted into one store must give
    # what each channel's rows give in a store of their own: the events in
    # row order, the cells by value, weights, counts, serials and retrieval.
    rng = np.random.default_rng(49)
    for case in range(12):
        channels = int(rng.integers(2, 5))
        params = dict(voxel_size=0.5, merge_lambda=float(rng.uniform(0.0, 0.95)),
                      g_cap=int(rng.integers(1, 4)), e_cap=int(rng.integers(1, 4)),
                      knn_radius_mult=2.0, quantize=bool(case % 3 == 0))
        one = VoxelStore(channels=channels, **params)
        own = [VoxelStore(**params) for _ in range(channels)]
        d, serial = 4, 0
        for _ in range(5):
            blocks = []
            for c in range(channels):
                n = int(rng.integers(0, 50))
                keys, positions, mask = _random_rows(rng, n, d, 0.5, 2.0)
                blocks.append(TokenBlock.build(
                    keys, -keys, positions, mask=mask, scores=rng.choice([0.0, 1.0], size=n),
                    frames=2, tokens=np.arange(serial, serial + n), counts=rng.integers(1, 3, n)))
                serial += n
            sizes = [len(b) for b in blocks]
            got = one.insert_evicted(concat_blocks(blocks),
                                     np.repeat(np.arange(channels), sizes))
            want = [e for store, b in zip(own, blocks) for e in store.insert_evicted(b)]
            assert got == want, case
        cells = store_cells(one)
        for c, store in enumerate(own):
            assert one.token_counts[c] == store.token_counts.sum()
            # the derived counters: token counts are the rows the channel's
            # cells hold, and merged serials stay below its aggregated count
            held = [r for (ch, _), cell in cells.items() if ch == c
                    for r in (*cell.long_term, *cell.buffer)]
            assert one.token_counts[c] == len(held)
            serials = [int(one.token[r]) for r in held if one.frame[r] == -1]
            assert len(set(serials)) == len(serials)
            assert all(0 <= s < one.channel_events[c, AGGREGATED] for s in serials)
            assert one.count_masses[c] == store.count_masses.sum()
            assert one.channel_events[c].tolist() == store.channel_events[0].tolist()
            mine = {code: cell for (ch, code), cell in store_cells(one).items() if ch == c}
            assert list(mine) == [code for _, code in store_cells(store)]
            for (_, code), cell in store_cells(store).items():
                assert [_row_bits(one, r) for r in mine[code].long_term] == \
                    [_row_bits(store, r) for r in cell.long_term]
                assert [_row_bits(one, r) for r in mine[code].buffer] == \
                    [_row_bits(store, r) for r in cell.buffer]
        # One retrieval serves every channel: each block must be what the
        # channel's own store retrieves, and what the brute-force ranking on
        # (tier, distance, -weight, arrival) picks.
        for _ in range(5):
            visible = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 4)), 3))
            quota = int(rng.integers(1, 40))
            got = one.retrieve(visible, quota)
            assert len(got) == channels
            for c, (a, store) in enumerate(zip(got, own)):
                (b,) = store.retrieve(visible, quota)
                assert a.ids() == b.ids()
                assert a.rows.tobytes() == b.rows.tobytes()
                assert np.array_equal(a.counts, b.counts)
                assert a.ids() == one.block(retrieve_oracle(one, visible, quota, c)).ids()
        assert one.half_saturations == sum(s.half_saturations for s in own)


def test_free_list_order_is_storage_only():
    # Which pool row a new entry takes is storage: two stores built by the
    # same calls, one with its free list reversed, must route the next
    # multi-channel block to the same events, cell contents (ids, bits,
    # weights, counts, scores, arrival numbers, slot order) and retrieval.
    rng = np.random.default_rng(51)
    moved = 0
    for case in range(12):
        channels = int(rng.integers(2, 4))
        params = dict(voxel_size=0.5, merge_lambda=float(rng.uniform(0.0, 0.95)),
                      g_cap=int(rng.integers(1, 4)), e_cap=int(rng.integers(1, 4)),
                      knn_radius_mult=2.0, quantize=bool(case % 3 == 0), channels=channels)
        a, b = VoxelStore(**params), VoxelStore(**params)
        serial = 0
        for step in range(3):
            n = int(rng.integers(40, 120))
            keys, positions, mask = _random_rows(rng, n, 4, 0.5, 2.0)
            block = TokenBlock.build(keys, -keys, positions, mask=mask,
                                     scores=rng.choice([0.0, 1.0], size=n), frames=2,
                                     tokens=np.arange(serial, serial + n),
                                     counts=rng.integers(1, 3, n))
            chans = rng.integers(0, channels, size=n)
            serial += n
            if step == 2:
                assert len(b._free) > 1, case
                b._free.reverse()
            assert a.insert_evicted(block, chans) == b.insert_evicted(block, chans), case
        cells_a, cells_b = store_cells(a), store_cells(b)
        assert list(cells_a) == list(cells_b)
        for key, cell in cells_a.items():
            other = cells_b[key]
            moved += (cell.long_term, cell.buffer) != (other.long_term, other.buffer)
            for rows_a, rows_b in ((cell.long_term, other.long_term), (cell.buffer, other.buffer)):
                assert [(*_row_bits(a, r), a.seq[r]) for r in rows_a] == \
                    [(*_row_bits(b, r), b.seq[r]) for r in rows_b]
        for name in ("channel_events", "token_counts", "count_masses"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        visible = rng.uniform(-1.0, 1.0, size=(3, 3))
        for got, want in zip(a.retrieve(visible, 30), b.retrieve(visible, 30)):
            assert got.ids() == want.ids()
            assert got.rows.tobytes() == want.rows.tobytes()
            assert np.array_equal(got.counts, want.counts)
            assert got.scores.tobytes() == want.scores.tobytes()
    assert moved  # the reversed free list did move rows


def test_vecdot_matches_per_row_dot_bit_for_bit():
    # The batched cosines rest on np.vecdot giving each row the bits of one
    # ndarray.dot, broadcast operands and rows gathered from a strided pool
    # included; einsum or a matmul against a column would not. The norms
    # _cosines takes from its operands' rows rest on it too.
    rng = np.random.default_rng(50)
    for d in (3, 4, 7, 32, 64, 67):
        pool = rng.normal(size=(40, 2 * d + 3)) * rng.uniform(0.01, 100.0)
        keys = pool[:, :d]
        pool_squares = np.vecdot(keys, keys)
        for i in range(40):
            assert pool_squares[i] == keys[i].dot(keys[i])
        for _ in range(200):
            reps = keys[rng.integers(0, 40, size=(5, 3))]
            incoming = rng.normal(size=(5, d))
            dots = np.vecdot(reps, incoming[:, None, :])
            rep_squares = np.vecdot(reps, reps)
            for i in range(5):
                for j in range(3):
                    assert dots[i, j] == reps[i, j].dot(incoming[i])
                    assert rep_squares[i, j] == reps[i, j].dot(reps[i, j])
            squares = np.vecdot(incoming, incoming)
            for i in range(5):
                assert squares[i] == incoming[i].dot(incoming[i])
