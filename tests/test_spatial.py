"""Voxel grid, Morton codes, merging rules, and retrieval ranking."""

import itertools
import math

import numpy as np
import pytest

from stacache import (
    CachedToken,
    DegenerateVectorError,
    DimensionError,
    Origin,
    TokenId,
    VoxelCoord,
    VoxelRangeError,
    VoxelStore,
    morton_decode,
    morton_encode,
    voxel_of,
)
from stacache import kernel
from oracles import morton_oracle, py_cosine, FusionOracle

LIMIT = 1 << 20


def _token(key, position=None, score=0.0, frame=1, idx=0, count=1):
    key = np.asarray(key, dtype=float)
    return CachedToken(
        id=TokenId(frame, idx),
        key=key,
        value=key * 2.0 + 1.0,
        score=score,
        position=None if position is None else np.asarray(position, dtype=float),
        count=count,
    )


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


def test_voxel_of_floor_semantics():
    assert voxel_of([0.26, 0.0, -0.01], 0.05) == VoxelCoord(5, 0, -1)
    assert voxel_of([-0.26, 0.05, 0.0], 0.05) == VoxelCoord(-6, 1, 0)


def test_voxel_of_rejects_bad_input():
    with pytest.raises(VoxelRangeError):
        voxel_of([np.nan, 0, 0], 0.05)
    with pytest.raises(VoxelRangeError):
        voxel_of([1e7, 0, 0], 0.05)
    with pytest.raises(DimensionError):
        voxel_of([1.0, 2.0], 0.05)


# -- insertion and merging ----------------------------------------------------


def _store(**kw):
    defaults = dict(voxel_size=1.0, merge_lambda=0.8, g_cap=4, e_cap=8, knn_radius_mult=2.0)
    defaults.update(kw)
    return VoxelStore(**defaults)


def test_positionless_token_is_dropped():
    store = _store()
    assert store.insert_evicted(_token([1.0, 0.0])) == "dropped"
    assert store.events["dropped"] == 1
    assert store.token_count == 0
    assert store.count_mass == 1


def test_first_token_is_buffered():
    store = _store()
    event = store.insert_evicted(_token([1.0, 0.0], position=[0.5, 0.5, 0.5]))
    assert event == "buffered"
    cell = next(iter(store.cells.values()))
    assert len(cell.buffer) == 1 and len(cell.long_term) == 0
    assert cell.buffer[0].origin is Origin.BUFFERED


def test_buffer_fills_then_aggregates():
    store = _store(e_cap=3)
    keys = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    events = [
        store.insert_evicted(_token(k, position=[0.5, 0.5, 0.5], idx=i, score=float(i)))
        for i, k in enumerate(keys)
    ]
    assert events == ["buffered", "buffered", "aggregated"]
    cell = next(iter(store.cells.values()))
    assert len(cell.buffer) == 0
    assert len(cell.long_term) == 1
    rep = cell.long_term[0]
    assert rep.origin is Origin.MERGED
    assert rep.count == 3
    assert rep.id.frame_idx == -1


def test_aggregate_pivot_and_weights():
    # pivot is the top score (earliest on ties); every member contributes
    # with weight exp(cos(pivot, member))
    store = _store(e_cap=3)
    toks = [
        _token([1.0, 0.0], position=[0.5, 0.5, 0.5], idx=0, score=2.0),
        _token([0.9, 0.1], position=[0.5, 0.5, 0.5], idx=1, score=2.0),  # tie loses to idx 0
        _token([0.0, 1.0], position=[0.5, 0.5, 0.5], idx=2, score=1.0),
    ]
    for t in toks:
        store.insert_evicted(t)
    rep = next(iter(store.cells.values())).long_term[0]
    omegas = [math.exp(py_cosine(toks[0].key, t.key)) for t in toks]
    want_key = sum(w * t.key for w, t in zip(omegas, toks)) / sum(omegas)
    want_val = sum(w * t.value for w, t in zip(omegas, toks)) / sum(omegas)
    assert rep.score == 2.0
    assert rep.weight == pytest.approx(sum(omegas), abs=1e-12)
    assert np.allclose(rep.key, want_key, atol=1e-12)
    assert np.allclose(rep.value, want_val, atol=1e-12)


def test_similar_token_fuses_into_representative():
    store = _store(e_cap=1)  # every buffered token aggregates immediately
    first = _token([1.0, 0.0, 0.0], position=[0.5, 0.5, 0.5], idx=0)
    assert store.insert_evicted(first) == "aggregated"
    rep = next(iter(store.cells.values())).long_term[0]
    z0, key0 = rep.weight, rep.key.copy()
    incoming = _token([0.96, 0.1, 0.0], position=[0.5, 0.5, 0.5], idx=1)
    cos = py_cosine(key0, incoming.key)
    assert cos > 0.8
    assert store.insert_evicted(incoming) == "fused"
    omega = math.exp(cos)
    assert rep.weight == pytest.approx(z0 + omega, abs=1e-12)
    assert np.allclose(rep.key, (z0 * key0 + omega * incoming.key) / (z0 + omega), atol=1e-12)
    assert rep.count == 2


def test_dissimilar_token_goes_to_buffer():
    store = _store(e_cap=4)
    store.insert_evicted(_token([1.0, 0.0], position=[0.5, 0.5, 0.5], idx=0))
    # buffer -> no aggregation yet; a second orthogonal key must not fuse
    event = store.insert_evicted(_token([0.0, 1.0], position=[0.5, 0.5, 0.5], idx=1))
    assert event == "buffered"


def test_fusion_recurrence_matches_one_pass_oracle():
    rng = np.random.default_rng(43)
    for _ in range(50):
        store = _store(e_cap=1, merge_lambda=0.5)
        d = int(rng.integers(2, 8))
        base = rng.normal(size=d)
        base /= np.linalg.norm(base)
        first = _token(base, position=[0.5, 0.5, 0.5], idx=0)
        store.insert_evicted(first)
        cell = next(iter(store.cells.values()))
        rep = cell.long_term[0]
        key_oracle = FusionOracle(first.key, math.e)  # singleton pivot weight e^1
        val_oracle = FusionOracle(first.value, math.e)
        total = 1
        for i in range(1, int(rng.integers(2, 12))):
            vec = base + 0.15 * rng.normal(size=d)
            tok = _token(vec, position=[0.5, 0.5, 0.5], idx=i)
            omega = math.exp(py_cosine(key_oracle.mean(), tok.key))
            assert store.insert_evicted(tok) == "fused"
            key_oracle.add(tok.key, omega)
            val_oracle.add(tok.value, omega)
            total += 1
        assert np.allclose(rep.key, key_oracle.mean(), rtol=1e-6, atol=1e-12)
        assert np.allclose(rep.value, val_oracle.mean(), rtol=1e-6, atol=1e-12)
        assert rep.weight == pytest.approx(key_oracle.den, abs=1e-9)
        assert rep.count == total


def test_re_merge_picks_min_weight_victim():
    # two dissimilar singleton reps have equal weight e; the tie picks the
    # older one, which then fuses into the survivor
    store = _store(e_cap=1, g_cap=2, merge_lambda=0.99)
    a = _token([1.0, 0.0], position=[0.5, 0.5, 0.5], idx=0)
    b = _token([0.0, 1.0], position=[0.5, 0.5, 0.5], idx=1)
    c = _token([-1.0, 0.0], position=[0.5, 0.5, 0.5], idx=2)
    for t in (a, b, c):
        store.insert_evicted(t)
    cell = next(iter(store.cells.values()))
    assert len(cell.long_term) == 2
    assert store.events["re_merged"] == 1
    merged, newest = cell.long_term
    # the victim (rep of a) fused into the rep of b; counts conserved
    assert merged.count == 2
    assert newest.count == 1
    assert store.count_mass == 3


def test_g_cap_one_folds_resident_into_newcomer():
    store = _store(e_cap=1, g_cap=1, merge_lambda=0.99)
    store.insert_evicted(_token([1.0, 0.0], position=[0.5, 0.5, 0.5], idx=0))
    store.insert_evicted(_token([0.0, 1.0], position=[0.5, 0.5, 0.5], idx=1))
    cell = next(iter(store.cells.values()))
    assert len(cell.long_term) == 1
    assert cell.long_term[0].count == 2
    assert store.events["re_merged"] == 1


def test_capacity_invariants_under_random_load():
    rng = np.random.default_rng(44)
    store = _store(voxel_size=1.0, g_cap=3, e_cap=4, merge_lambda=0.8)
    inserted = 0
    for i in range(500):
        pos = rng.uniform(0.0, 3.0, size=3)  # a handful of cells
        key = rng.normal(size=5)
        store.insert_evicted(_token(key, position=pos, idx=i, score=rng.random()))
        inserted += 1
        for cell in store.cells.values():
            assert len(cell.long_term) <= 3
            assert len(cell.buffer) < 4
    assert store.count_mass == inserted


# -- retrieval ----------------------------------------------------------------


def test_retrieval_ranking_and_quota():
    store = _store(voxel_size=1.0, e_cap=8, knn_radius_mult=2.0)
    # cell A at origin: two buffered tokens, drained into one rep, plus a
    # later orthogonal arrival that stays buffered
    a_pos = [0.5, 0.5, 0.5]
    for i in range(2):
        store.insert_evicted(_token([1.0, 0.0], position=a_pos, idx=i))
    store.aggregate(next(iter(store.cells)))
    store.insert_evicted(_token([0.0, 1.0], position=a_pos, idx=5))
    # cell B one step away holds only a buffered token
    store.insert_evicted(_token([1.0, 1.0], position=[1.5, 0.5, 0.5], idx=7))

    got = store.retrieve(np.array([[0.4, 0.4, 0.4]]), quota=10)
    # long-term rep first, then the near buffered token, then the far one
    assert [t.origin for t in got] == [Origin.MERGED, Origin.BUFFERED, Origin.BUFFERED]
    assert got[1].id == TokenId(1, 5)
    assert got[2].id == TokenId(1, 7)
    truncated = store.retrieve(np.array([[0.4, 0.4, 0.4]]), quota=2)
    assert [t.id for t in truncated] == [t.id for t in got[:2]]


def test_retrieval_radius_cutoff():
    store = _store(voxel_size=1.0, knn_radius_mult=2.0)
    store.insert_evicted(_token([1.0, 0.0], position=[0.5, 0.5, 0.5], idx=0))
    store.insert_evicted(_token([1.0, 0.0], position=[2.5, 0.5, 0.5], idx=1))  # exactly 2.0 away
    store.insert_evicted(_token([1.0, 0.0], position=[3.5, 0.5, 0.5], idx=2))  # 3.0 away
    got = store.retrieve(np.array([[0.5, 0.5, 0.5]]), quota=10)
    ids = [t.id.token_idx for t in got]
    assert ids == [0, 1]  # the boundary cell is included, the far one is not


def test_retrieval_prefers_heavier_equidistant_entries():
    store = _store(voxel_size=1.0, e_cap=2, merge_lambda=0.95)
    # two cells at the same distance from the probe; one rep is heavier
    for i in range(2):
        store.insert_evicted(_token([1.0, 0.0], position=[1.5, 0.5, 0.5], idx=i))
    for i in range(2, 4):
        store.insert_evicted(_token([1.0, 0.05], position=[-0.5, 0.5, 0.5], idx=i))
    # fuse one more into the second cell to raise its weight
    store.insert_evicted(_token([1.0, 0.04], position=[-0.5, 0.5, 0.5], idx=9))
    got = store.retrieve(np.array([[0.5, 0.5, 0.5]]), quota=2)
    assert got[0].count == 3
    assert got[1].count == 2


def test_retrieval_empty_cases():
    store = _store()
    assert store.retrieve(np.zeros((0, 3)), quota=5) == []
    store.insert_evicted(_token([1.0, 0.0], position=[0.5, 0.5, 0.5]))
    assert store.retrieve(np.array([[0.5, 0.5, 0.5]]), quota=0) == []


def test_retrieval_is_deterministic():
    def build():
        rng = np.random.default_rng(45)
        store = _store(voxel_size=1.0, g_cap=2, e_cap=3)
        for i in range(200):
            pos = rng.uniform(0.0, 4.0, size=3)
            store.insert_evicted(_token(rng.normal(size=4), position=pos, idx=i, score=rng.random()))
        return store.retrieve(np.array([[1.5, 1.5, 1.5], [2.5, 2.5, 2.5]]), quota=12)

    a, b = build(), build()
    assert [t.id for t in a] == [t.id for t in b]
    assert all(np.array_equal(x.key, y.key) for x, y in zip(a, b))


# -- exactness against the scalar reference -------------------------------------


class _ReferenceStore:
    """The straightforward insertion routine the store must match bit for bit.

    Each similarity goes through kernel.cosine, each cell through voxel_of
    and morton_encode, and fusion recomputes every mean from scratch; the
    store's scalar hot path must reproduce every event and every bit.
    """

    def __init__(self, voxel_size, merge_lambda, g_cap, e_cap, quantize):
        self.voxel_size, self.merge_lambda = voxel_size, merge_lambda
        self.g_cap, self.e_cap, self.quantize = g_cap, e_cap, quantize
        self.cells = {}
        self.half_saturations = 0
        self.serial = 0

    @staticmethod
    def _cos(a, b):
        try:
            return kernel.cosine(a, b)
        except DegenerateVectorError:
            return -1.0

    def _q(self, vec):
        if not self.quantize:
            return vec
        self.half_saturations += int((np.abs(vec) > kernel.HALF_MAX).sum())
        return kernel.half_roundtrip(vec)

    def insert(self, token):
        if token.position is None:
            return "dropped"
        code = morton_encode(voxel_of(token.position, self.voxel_size))
        long_term, buffer = self.cells.setdefault(code, ([], []))
        best_idx, best_cos = -1, -2.0
        for i, rep in enumerate(long_term):
            c = self._cos(rep.key, token.key)
            if c > best_cos:
                best_idx, best_cos = i, c
        if best_idx >= 0 and best_cos > self.merge_lambda:
            self._fuse(long_term[best_idx], token, best_cos)
            return "fused"
        token.origin = Origin.BUFFERED
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
        rep = CachedToken(
            id=TokenId(-1, self.serial),
            key=self._q(kernel.weighted_mean(np.stack([t.key for t in buffer]), omegas)),
            value=self._q(kernel.weighted_mean(np.stack([t.value for t in buffer]), omegas)),
            score=pivot.score,
            position=kernel.weighted_mean(np.stack([t.position for t in buffer]), omegas),
            count=sum(t.count for t in buffer),
            weight=float(omegas.sum()),
            origin=Origin.MERGED,
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
        rep.origin = Origin.MERGED


def _bits(token):
    pos = None if token.position is None else np.asarray(token.position).tobytes()
    return (token.id, token.key.tobytes(), token.value.tobytes(), pos,
            float(token.weight).hex(), token.count, float(token.score).hex(), token.origin)


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
                key = rng.normal(size=d).astype(np.float32)
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

            def token():
                return CachedToken(
                    id=TokenId(1, i), key=key.copy(), value=np.asarray(key) * 3.0 - 1.0,
                    score=score, position=None if pos is None else pos.copy(), count=count,
                )

            got, want = _outcome(store.insert_evicted, token()), _outcome(ref.insert, token())
            assert got == want, (case, i)
            seen_events.add(got)
            held = [t for c in store.cells.values() for t in (*c.long_term, *c.buffer)]
            assert store.token_count == len(held)
            assert store.count_mass == sum(t.count for t in held) + store.dropped_count_mass

        assert set(store.cells) == set(ref.cells)
        for code, cell in store.cells.items():
            long_term, buffer = ref.cells[code]
            assert [_bits(t) for t in cell.long_term] == [_bits(t) for t in long_term]
            assert [_bits(t) for t in cell.buffer] == [_bits(t) for t in buffer]
        assert store.half_saturations == ref.half_saturations
    assert {"fused", "buffered", "aggregated", "dropped",
            "error:DegenerateVectorError"} <= seen_events


def test_nan_key_is_buffered_not_fused():
    store = _store(e_cap=4, merge_lambda=-0.5)
    store.insert_evicted(_token([1.0, 0.0], position=[0.5, 0.5, 0.5], idx=0))
    store.aggregate(next(iter(store.cells)))
    event = store.insert_evicted(_token([np.nan, 0.0], position=[0.5, 0.5, 0.5], idx=1))
    assert event == "buffered"
