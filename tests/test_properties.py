"""Property tests: the voxel store against its plain-Python mirror, and
bounded memory of a long stac replay."""

import gc
import tracemalloc

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from stacache import Policy, StreamReplayer, TokenBlock, VoxelStore, morton_encode, synth_trace
from oracles import VoxelMirror, store_cells

HOME = np.array([0.5, 0.5, 0.5])
D = 3


class VoxelStoreAgainstMirror(RuleBasedStateMachine):
    """Inserts into one voxel must route, fuse, aggregate and re-merge as the
    mirror does. Scores are mostly drawn from a three-value grid, so pivots
    tie inside the buffer; counts vary, so count mass is not a row count."""

    @initialize(
        lam=st.floats(-0.2, 0.9),
        g_cap=st.integers(1, 3),
        e_cap=st.integers(1, 4),
    )
    def setup(self, lam, g_cap, e_cap):
        self.store = VoxelStore(voxel_size=1.0, merge_lambda=lam, g_cap=g_cap, e_cap=e_cap,
                                knn_radius_mult=2.0)
        self.mirror = VoxelMirror(lam, g_cap, e_cap)
        self.inserted = 0

    @rule(
        seed=st.integers(0, 2**32 - 1),
        score=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 2.0)),
        count=st.integers(1, 3),
    )
    def insert(self, seed, score, count):
        # keys come from a seeded normal draw: continuous, so no two
        # cosines tie exactly and the mirror's Python sums pick the same
        # argmax as the store's dot products
        rng = np.random.default_rng(seed)
        key, value = rng.normal(size=D), rng.normal(size=D)
        block = TokenBlock.build(key[None, :], value[None, :], HOME[None, :], scores=[score],
                                 tokens=[self.inserted], counts=count)
        assert self.store.insert_evicted(block) == [self.mirror.insert(key, value, score, count)]
        self.inserted += count

    @invariant()
    def same_contents(self):
        store, mirror = self.store, self.mirror
        assert store.count_masses.sum() == self.inserted == mirror.count_mass()
        cells = store_cells(store)
        cell = cells.get((0, morton_encode((0, 0, 0))))
        if cell is None:
            assert not mirror.long_term and not mirror.buffer
            return
        assert len(cell.long_term) == len(mirror.long_term)
        assert len(cell.buffer) == len(mirror.buffer)
        assert store.token_counts.sum() == len(cell.long_term) + len(cell.buffer)
        # the cell's table rows: lengths as the mirror's lists, -1 past them
        i = cell.index
        assert store.lt_len[i] == len(mirror.long_term) and store.buf_len[i] == len(mirror.buffer)
        assert (store.lt_rows[i, store.lt_len[i] :] == -1).all()
        assert (store.buf_rows[i, store.buf_len[i] :] == -1).all()
        # retrieval's ranking is a total order only if no two live rows
        # share an arrival number
        held = [r for c in cells.values() for r in (*c.long_term, *c.buffer)]
        assert len(set(store.seq[held].tolist())) == len(held)
        for r, ref in zip(cell.long_term, mirror.long_term):
            assert np.allclose(store.data[r, :D], mirror.key_mean(ref), rtol=1e-6, atol=1e-6)
            assert np.allclose(store.data[r, D : 2 * D], mirror.value_mean(ref),
                               rtol=1e-6, atol=1e-6)
            assert abs(store.weight[r] - ref["z"]) <= 1e-9
            assert store.count[r] == ref["count"]
        for r, ref in zip(cell.buffer, mirror.buffer):
            assert store.data[r, :D].tolist() == ref["key"]
            assert store.count[r] == ref["count"]


VoxelStoreAgainstMirror.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestVoxelStoreAgainstMirror = VoxelStoreAgainstMirror.TestCase


def _cache_state_bytes() -> int:
    # Live memory allocated from the modules that hold a channel's cache
    # state; the replayer's stats rows grow with the stream by design and
    # are not counted. A full collection first empties the interpreter's
    # free lists, whose size depends on what ran last, not on the stream.
    gc.collect()
    kept = tracemalloc.take_snapshot().filter_traces([
        tracemalloc.Filter(True, "*stacache/spatial.py"),
        tracemalloc.Filter(True, "*stacache/temporal.py"),
        tracemalloc.Filter(True, "*stacache/tokens.py"),
    ])
    return sum(stat.size for stat in kept.statistics("filename"))


def test_stac_replay_memory_is_bounded_on_a_revisiting_stream():
    # A revisiting scene has a nearly fixed set of voxels, so once the store
    # has seen them its freed rows are recycled: 2,000 frames hold about
    # what 500 frames hold, audits on (about 15 KiB more here, from a few
    # late voxels). A pool that never reused freed rows grows by one row per
    # buffered arrival, about 440 KiB over the same stretch.
    header, records = synth_trace(seed=3, frames=2001, tokens_per_frame=16, d_h=4,
                                  motion="revisit")
    replayer = StreamReplayer(header, Policy.stac(), audit=True)
    tracemalloc.start()
    try:
        for record in records:
            replayer.feed(record)
            if record.frame_idx == 500:
                at_500 = _cache_state_bytes()
        at_2000 = _cache_state_bytes()
    finally:
        tracemalloc.stop()
    stats = replayer.finish()
    assert stats.summary["audits_checked"] > 0
    assert stats.summary["events"]["aggregated"] > 0
    assert at_2000 <= at_500 + 64 * 1024, (at_500, at_2000)
