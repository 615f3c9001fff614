"""Temporal working cache: window FIFO, score decay, anchor selection.

The cache here holds one channel; slots are flat indices into its arrays.
"""

import numpy as np
import pytest

from stacache import DimensionError, StacacheError, TemporalCache, TokenId, TraceRecord
from oracles import decayed_score, geometric_closed_form, take_rows


def _frame(frame_idx, n=4, d=4, seed=None, with_positions=True):
    # one channel's q, k and v as a one-layer, one-head record
    rng = np.random.default_rng(seed if seed is not None else 100 + frame_idx)
    qkv = [rng.normal(size=(n, d)) for _ in range(3)]
    return TraceRecord(
        frame_idx=frame_idx,
        data=np.stack(qkv)[None, None],
        positions=rng.uniform(-1, 1, size=(n, 3)),
        position_mask=np.full(n, with_positions),
    )


def _anchors(cache):
    return cache.block(cache.order[:, cache.reference_count + cache.window_token_count :].ravel())


def _cache(window_frames=2, anchor_budget=4, gamma=0.9, **kw):
    cache = TemporalCache(window_frames, anchor_budget, gamma, **kw)
    cache.register_reference(_frame(0))
    return cache


def test_register_reference_snapshot():
    cache = _cache()
    snap = cache.snapshot()
    assert len(snap) == 4
    assert cache.reference_count == 4
    assert (snap.frames == 0).all()
    assert (snap.scores == 0.0).all() and (snap.counts == 1).all()


def test_double_registration_raises():
    cache = _cache()
    with pytest.raises(StacacheError):
        cache.register_reference(_frame(1))


def test_ingest_before_register_raises():
    cache = TemporalCache(2, 4, 0.9)
    with pytest.raises(StacacheError):
        cache.ingest_frames([_frame(1)])


def test_ingest_within_window_no_expulsion():
    cache = _cache(window_frames=2)
    expelled = cache.ingest_frames([_frame(1)])
    assert len(expelled) == 0
    assert cache.window_token_count == 4
    assert cache.member_count == 8


def test_ingest_beyond_window_expels_fifo():
    cache = _cache(window_frames=2)
    cache.ingest_frames([_frame(1), _frame(2)])
    expelled = cache.block(cache.ingest_frames([_frame(3), _frame(4)]))
    # frames 1 and 2 leave, oldest first, 4 tokens each
    assert expelled.frames.tolist() == [1] * 4 + [2] * 4
    assert expelled.tokens[:4].tolist() == [0, 1, 2, 3]
    assert cache.window_token_count == 8
    # one call with more frames than the window expels its oldest new
    # frames too, oldest first, and keeps the newest
    expelled = cache.block(cache.ingest_frames([_frame(5), _frame(6), _frame(7)]))
    assert expelled.frames.tolist() == [3] * 4 + [4] * 4 + [5] * 4
    window = cache.snapshot().frames[cache.reference_count : cache.member_count]
    assert window.tolist() == [6] * 4 + [7] * 4


def test_non_monotone_frames_raise():
    cache = _cache()
    cache.ingest_frames([_frame(1)])
    with pytest.raises(DimensionError):
        cache.ingest_frames([_frame(1)])


def test_update_scores_zero_mass_scales_by_gamma():
    cache = _cache(gamma=0.5)
    cache.ingest_frames([_frame(1)], initial_scores=np.full((1, 4), 2.0))
    cache.update_scores(np.zeros((1, cache.member_count)))
    snap = cache.snapshot()
    for score in snap.scores[snap.frames == 1]:
        assert score == pytest.approx(1.0, abs=1e-12)


def test_update_scores_matches_replay_oracle():
    rng = np.random.default_rng(31)
    cache = TemporalCache(1, 0, 0.9)
    cache.register_reference(_frame(0, n=1))
    masses = rng.random(50)
    for m in masses:
        cache.update_scores(np.array([[m]]))
    expected = decayed_score(masses, 0.9)
    assert cache.snapshot().scores[0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
def test_constant_mass_closed_form(gamma):
    cache = TemporalCache(1, 0, gamma)
    cache.register_reference(_frame(0, n=1))
    a = 0.37
    for t in range(1, 121):
        cache.update_scores(np.array([[a]]))
        want = geometric_closed_form(a, gamma, t)
        assert cache.snapshot().scores[0] == pytest.approx(want, abs=1e-10)


def test_gamma_zero_keeps_only_last_mass():
    cache = TemporalCache(1, 0, 0.0)
    cache.register_reference(_frame(0, n=1))
    cache.update_scores(np.array([[5.0]]))
    cache.update_scores(np.array([[0.25]]))
    assert cache.snapshot().scores[0] == 0.25


def test_update_scores_misalignment_raises():
    cache = _cache()
    with pytest.raises(DimensionError):
        cache.update_scores(np.zeros((1, cache.member_count + 1)))


def test_initial_scores_seed_fresh_tokens():
    cache = _cache(window_frames=2)
    scores = np.array([0.1, 0.2, 0.3, 0.4])
    cache.ingest_frames([_frame(1)], initial_scores=scores[None])
    snap = cache.snapshot()
    assert list(snap.scores[snap.frames == 1]) == pytest.approx(list(scores))


def test_select_anchors_ranking_and_ties():
    cache = _cache(window_frames=1, anchor_budget=2)
    expelled = cache.ingest_frames([_frame(1), _frame(2)])
    # within one frame, a score tie prefers the lower token index
    cache.scores[expelled] = np.where(cache.tokens[expelled] < 2, 1.0, 0.0)
    evicted = cache.select_anchors(expelled)
    kept = _anchors(cache).ids()
    assert kept == [TokenId(1, 0), TokenId(1, 1)]
    assert evicted.ids() == [TokenId(1, 2), TokenId(1, 3)]
    # across frames, an exact tie prefers the younger frame
    expelled2 = cache.ingest_frames([_frame(3)])
    cache.scores[expelled2] = np.where(cache.tokens[expelled2] < 2, 1.0, 0.0)
    evicted2 = cache.select_anchors(expelled2)
    kept2 = _anchors(cache).ids()
    assert kept2 == [TokenId(2, 0), TokenId(2, 1)]
    assert evicted2.ids() == [
        TokenId(1, 0), TokenId(1, 1), TokenId(2, 2), TokenId(2, 3)]


def test_anchor_scores_persist_and_recompete():
    cache = _cache(window_frames=1, anchor_budget=1)
    exp = cache.ingest_frames([_frame(1), _frame(2)])
    cache.scores[exp] = np.arange(len(exp), dtype=float)
    cache.select_anchors(exp)
    (anchor,) = _anchors(cache).ids()
    assert _anchors(cache).scores.tolist() == [3.0]
    # a stronger newcomer displaces it; the loser keeps its frozen score
    exp2 = cache.ingest_frames([_frame(3)])
    cache.scores[exp2] = 10.0
    evicted = cache.select_anchors(exp2)
    assert anchor in evicted.ids()
    assert evicted.scores[evicted.ids().index(anchor)] == 3.0
    assert cache.anchor_count == 1


def test_anchor_budget_zero_evicts_everything():
    cache = _cache(window_frames=1, anchor_budget=0)
    exp = cache.ingest_frames([_frame(1), _frame(2)])
    evicted = cache.select_anchors(exp)
    assert len(evicted) == len(exp)
    assert cache.anchor_count == 0


def test_snapshot_order_reference_window_anchors():
    cache = _cache(window_frames=2, anchor_budget=8)
    exp = cache.ingest_frames([_frame(1), _frame(2), _frame(3)])
    cache.scores[exp] = np.arange(len(exp), dtype=float)
    cache.select_anchors(exp)
    snap = cache.snapshot()
    ref = take_rows(snap, slice(0, cache.reference_count))
    window = take_rows(snap, slice(cache.reference_count,
                                   cache.reference_count + cache.window_token_count))
    anchors = take_rows(snap, slice(cache.reference_count + cache.window_token_count, None))
    assert (ref.frames == 0).all()
    assert window.frames.tolist() == [2] * 4 + [3] * 4
    scores = anchors.scores.tolist()
    assert scores == sorted(scores, reverse=True)


def test_reference_survives_many_cycles_unchanged():
    cache = _cache(window_frames=1, anchor_budget=2)
    before = cache.snapshot().keys[:4].copy()
    for f in range(1, 101):
        mass = np.random.default_rng(f).random((1, cache.member_count))
        cache.update_scores(mass)
        exp = cache.ingest_frames([_frame(f)])
        cache.select_anchors(exp)
    after = take_rows(cache.snapshot(), slice(0, 4))
    assert (after.frames == 0).all()
    assert np.array_equal(before, after.keys)


def test_quantize_rounds_and_counts_saturation():
    cache = TemporalCache(2, 0, 0.9, quantize=True)
    frame = _frame(0)
    frame.data[0, 0, 1, 0, 0] = 1e6  # a key beyond float16
    cache.register_reference(frame)
    key = cache.snapshot().keys[0]
    assert key[0] == 65504.0
    assert cache.half_saturations == 1
    # remaining entries equal their float16 roundtrip
    assert np.array_equal(key, np.float64(np.float16(key)))


def _channel_frame(frame_idx, channels, n=4, d=4):
    # one record of `channels` heads on one layer
    rng = np.random.default_rng(200 + frame_idx)
    return TraceRecord(
        frame_idx=frame_idx,
        data=rng.normal(size=(1, channels, 3, n, d)),
        positions=rng.uniform(-1, 1, size=(n, 3)),
        position_mask=np.full(n, True),
    )


def test_growth_keeps_every_held_slot_and_its_row():
    # The slot arrays grow by appending new slot numbers: a member's flat
    # index, held across a growth, still names its slot, and the slot's row
    # and columns keep their bits.
    cache = TemporalCache(window_frames=2, anchor_budget=3, gamma=0.9, channels=3)
    cache.register_reference(_channel_frame(0, 3))
    rng = np.random.default_rng(7)
    frame, grown = 1, 0
    for chunk in (1, 1, 3, 1, 4, 2, 5):
        held = cache.order.copy()
        columns = ("rows", "scores", "frames", "tokens", "mask")
        before = [getattr(cache, name)[held] for name in columns]
        capacity = cache.capacity
        records = [_channel_frame(f, 3) for f in range(frame, frame + chunk)]
        frame += chunk
        expelled = cache.ingest_frames(records)
        grown += cache.capacity > capacity
        for name, want in zip(columns, before):
            assert np.array_equal(getattr(cache, name)[held], want)
        # the reference and the anchors stay members, by the same indices
        ref, kept = cache.reference_count, cache.member_count - cache.anchor_count
        assert np.array_equal(cache.order[:, :ref], held[:, :ref])
        assert np.array_equal(cache.order[:, kept:], held[:, held.shape[1] - cache.anchor_count:])
        cache.update_scores(rng.random(cache.order.shape))
        cache.select_anchors(expelled)
    assert grown >= 3
