"""Replay harness: policies vs oracles, budgets, stats rows, determinism."""

import json
import mmap
import re
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from stacache import (
    CacheConfig,
    ConfigError,
    InvariantViolation,
    Policy,
    StreamReplayer,
    TokenBlock,
    TraceFormatError,
    allocate_budget,
    compare,
    run_stream,
    synth_trace,
    write_trace,
)
from stacache import pipeline, traceio
from oracles import feed_all, naive_attend, reference_compare, replay_outputs


def _trace(seed=0, frames=12, tokens=4, layers=1, heads=1, d_h=4, motion="random_walk"):
    return synth_trace(
        seed=seed, frames=frames, tokens_per_frame=tokens,
        layers=layers, heads=heads, d_h=d_h, motion=motion,
    )


def test_allocate_budget_published_split():
    split = allocate_budget(CacheConfig(), 64)
    assert (split.window_tokens, split.anchor_tokens, split.retrieve_tokens) == (256, 128, 128)
    split = allocate_budget(CacheConfig(), 16)
    assert (split.window_tokens, split.anchor_tokens, split.retrieve_tokens) == (64, 32, 32)


def test_allocate_budget_floors_shares():
    cfg = CacheConfig(budget_multiplier=7.0, window_frac=0.6, anchor_frac=0.25,
                      retrieve_frac=0.15, window_frames=4)
    split = allocate_budget(cfg, 3)
    assert split.window_tokens == 12   # floor(0.6 * 21)
    assert split.anchor_tokens == 5    # floor(0.25 * 21)
    assert split.retrieve_tokens == 3  # floor(0.15 * 21)


def test_allocate_budget_rejects_oversized_window():
    cfg = CacheConfig(window_frames=5)  # needs 5 frames, share is 4
    with pytest.raises(ConfigError, match="window"):
        allocate_budget(cfg, 16)


def test_full_policy_matches_offline_chunk_causal_oracle():
    header, records = _trace(frames=11, tokens=3, layers=1, heads=1, d_h=4)
    _, outputs = replay_outputs((header, records), Policy.full(), chunk_size=3)
    n, d = 3, 4
    # oracle: for the chunk holding frame f, attend over all tokens of
    # frames 0..chunk_end with no compression
    chunks = [records[1:4], records[4:7], records[7:10], records[10:11]]
    for chunk in chunks:
        hi = chunk[-1].frame_idx
        keys = np.concatenate([r.data[0, 0, 1] for r in records[: hi + 1]])
        values = np.concatenate([r.data[0, 0, 2] for r in records[: hi + 1]])
        queries = np.concatenate([r.data[0, 0, 0] for r in chunk])
        allowed = np.ones((queries.shape[0], keys.shape[0]), dtype=bool)
        ref_out, _ = naive_attend(queries, keys, values, np.ones(keys.shape[0]), allowed, d)
        ref_out = np.asarray(ref_out)
        for i, r in enumerate(chunk):
            got = outputs[r.frame_idx][0, 0]
            assert np.allclose(got, ref_out[i * n : (i + 1) * n], atol=1e-12)


def test_full_policy_token_counts_are_exact():
    header, records = _trace(frames=50, tokens=16, d_h=4)
    stats = run_stream((header, records), Policy.full(), chunk_size=4)
    for row in stats.rows:
        assert row["total"] == row["frames_seen"] * 16
    assert stats.summary["final_total_tokens"] == 50 * 16


def test_window_policy_matches_manual_key_set():
    header, records = _trace(frames=10, tokens=3, d_h=4)
    window = 2
    _, outputs = replay_outputs((header, records), Policy.sliding(window), chunk_size=2)
    # chunk [5, 6]: reference frame 0 + frames 3, 4 + the chunk itself
    chunk = records[5:7]
    kept = [records[0], records[3], records[4]] + chunk
    keys = np.concatenate([r.data[0, 0, 1] for r in kept])
    values = np.concatenate([r.data[0, 0, 2] for r in kept])
    queries = np.concatenate([r.data[0, 0, 0] for r in chunk])
    allowed = np.ones((queries.shape[0], keys.shape[0]), dtype=bool)
    ref_out, _ = naive_attend(queries, keys, values, np.ones(keys.shape[0]), allowed, 4)
    ref_out = np.asarray(ref_out)
    got = np.concatenate([outputs[5][0, 0], outputs[6][0, 0]])
    assert np.allclose(got, ref_out, atol=1e-12)


def _reference_verbatim(records, window, chunk_size, layer, head, d_h):
    """Outputs and token counts of full (window=None) or window:W, chunk by
    chunk, from a key set concatenated afresh and the previous attend's
    allocating arithmetic."""
    def frame(r, part):
        return r.data[layer, head, part]

    outputs, counts = {}, []
    history = []
    for lo in range(1, len(records), chunk_size):
        chunk = records[lo : lo + chunk_size]
        kept = history if window is None else history[max(0, len(history) - window) :]
        keys = np.concatenate([frame(r, 1) for r in [records[0]] + kept + chunk])
        values = np.concatenate([frame(r, 2) for r in [records[0]] + kept + chunk])
        queries = np.concatenate([frame(r, 0) for r in chunk])
        logits = queries @ keys.T / np.sqrt(float(d_h)) + np.log(np.ones(len(keys)))[None, :]
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        out = w @ values
        n = frame(records[0], 1).shape[0]
        for i, r in enumerate(chunk):
            outputs[r.frame_idx] = out[i * n : (i + 1) * n]
        history += chunk
        end = 1 + (len(history) if window is None else min(window, len(history)))
        counts.append((keys.shape[0] - queries.shape[0], queries.shape[0], end * n))
    return outputs, counts


@pytest.mark.parametrize("window", [None, 0, 3, 8])
@pytest.mark.parametrize("chunk_size", [3, 4])
def test_verbatim_policies_are_bit_identical_to_concatenated_key_sets(window, chunk_size):
    # 23 frames: the key buffer grows several times, and a window of 3 or 8
    # compacts both with and without overlapping rows
    header, records = _trace(seed=4, frames=23, tokens=5, layers=2, heads=2, d_h=6)
    policy = Policy.full() if window is None else Policy.sliding(window)
    stats, outputs = replay_outputs((header, records), policy, chunk_size=chunk_size)
    channels = header.layers * header.heads
    for li in range(header.layers):
        for hi in range(header.heads):
            ref, counts = _reference_verbatim(records, window, chunk_size, li, hi, header.d_h)
            assert sorted(outputs) == sorted(ref)
            for f, out in ref.items():
                assert np.array_equal(outputs[f][li, hi], out)
    assert len(stats.rows) == len(counts)
    for row, (temporal, in_flight, end) in zip(stats.rows, counts):
        assert (row["temporal"], row["in_flight"]) == (temporal * channels, in_flight * channels)
        assert (row["spatial"], row["total_end"]) == (0, end * channels)


def test_stac_lossless_regime_equals_full():
    header, records = _trace(seed=3, frames=14, tokens=4, d_h=4, motion="revisit")
    cfg = CacheConfig(budget_multiplier=14.0, window_frac=0.3, anchor_frac=0.7,
                      retrieve_frac=0.0)
    trace = (header, records)
    _, full = replay_outputs(trace, Policy.full(), chunk_size=4)
    stac, stac_outputs = replay_outputs(trace, Policy.stac(cfg), chunk_size=4)
    assert stac.summary["events"]["evicted"] == 0
    for f in full:
        assert np.allclose(stac_outputs[f], full[f], atol=1e-12)


def test_row_schema_and_identities():
    header, records = _trace(frames=21, tokens=4, d_h=4, motion="revisit")
    stats = run_stream((header, records), Policy.stac(), chunk_size=4)
    assert len(stats.rows) == 5  # 20 post-reference frames in chunks of 4
    for row in stats.rows:
        assert row["total"] == row["temporal"] + row["spatial"] + row["in_flight"]
        assert row["bytes"] == row["total"] * 4 * 2 * 2
        assert 0.0 <= row["spatial_mass_frac"] <= 1.0
        assert row["retrieval"]["returned_g"] + row["retrieval"]["returned_e"] <= \
            row["retrieval"]["requested"] or row["retrieval"]["requested"] == 0
    assert stats.summary["audits_checked"] > 0
    assert stats.summary["frames"] == 21


def test_partial_final_chunk_is_flushed():
    header, records = _trace(frames=8, tokens=3, d_h=4)
    stats = run_stream((header, records), Policy.full(), chunk_size=3)
    # frames 1..7 in chunks of 3 -> [1,2,3], [4,5,6], [7]
    assert [(r["frame_lo"], r["frame_hi"]) for r in stats.rows] == [(1, 3), (4, 6), (7, 7)]


def test_replays_are_deterministic():
    header, records = _trace(seed=8, frames=25, tokens=6, d_h=6, motion="revisit")
    a = run_stream((header, records), Policy.stac(), chunk_size=4)
    b = run_stream((header, records), Policy.stac(), chunk_size=4)
    assert a.canonical_lines() == b.canonical_lines()
    # wall-clock fields exist but are excluded from the canonical stream
    assert all("wall_ms" in row for row in a.rows)
    assert all("wall_ms" not in line for line in a.canonical_lines())


def _canonical_summary(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k not in ("mean_chunk_ms", "total_ms")}


def test_audits_off_change_nothing_but_the_audit_count():
    trace = _trace(seed=3, frames=41, tokens=16, layers=1, heads=2, d_h=8, motion="revisit")
    for policy in (Policy.stac(), Policy.full(), Policy.sliding(4)):
        on = run_stream(trace, policy, audit=True)
        off = run_stream(trace, policy, audit=False)
        assert on.canonical_lines()[:-1] == off.canonical_lines()[:-1], policy.label()
        assert on.summary["audits_checked"] > 0 and off.summary["audits_checked"] == 0
        assert _canonical_summary(on.summary) == \
            _canonical_summary(off.summary) | {"audits_checked": on.summary["audits_checked"]}
    on = compare(trace, Policy.full(), Policy.stac(), audit=True)
    off = compare(trace, Policy.full(), Policy.stac(), audit=False)
    for side in ("summary_a", "summary_b"):
        a, b = _canonical_summary(on.pop(side)), _canonical_summary(off.pop(side))
        assert a["audits_checked"] > 0 and b["audits_checked"] == 0
        assert a == b | {"audits_checked": a["audits_checked"]}
    assert on == off


@pytest.mark.parametrize("field", ["data", "positions", "position_mask"])
def test_feed_rejects_a_record_shaped_unlike_the_header(field):
    header, records = _trace(frames=6, tokens=8, layers=1, heads=2)
    cut = records[3]
    column = getattr(cut, field)
    short = column[:, :, :, :5] if field == "data" else column[:5]
    records[3] = replace(cut, **{field: short})
    needle = re.escape(f"frame 3: {field} has shape {short.shape}")
    with pytest.raises(TraceFormatError, match=needle):
        run_stream((header, records), Policy.full())


def test_threaded_replay_matches_serial():
    # Replays share no mutable state: three policies replayed at once from
    # caller threads give the serial replays' rows and output bits.
    header, records = _trace(seed=8, frames=15, tokens=4, layers=2, heads=2, d_h=4)
    policies = [Policy.stac(), Policy.full(), Policy.sliding(3)]

    def replay(policy):
        return replay_outputs((header, records), policy, chunk_size=4)

    serial = [replay(p) for p in policies]
    threaded = [None] * len(policies)

    def worker(i):
        threaded[i] = replay(policies[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(policies))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    for (a, a_outputs), got in zip(serial, threaded):
        assert got is not None
        b, b_outputs = got
        assert a.canonical_lines() == b.canonical_lines()
        assert sorted(a_outputs) == sorted(b_outputs)
        for f, out in a_outputs.items():
            assert np.array_equal(out, b_outputs[f])


def test_compare_policy_with_itself_is_exact():
    header, records = _trace(frames=10, tokens=4, d_h=4)
    report = compare((header, records), Policy.full(), Policy.full(), chunk_size=3)
    assert report["overall"]["mean_cosine"] == 1.0
    assert report["overall"]["max_rel_l2"] == 0.0


def test_smaller_window_diverges_more():
    header, records = _trace(seed=5, frames=60, tokens=8, d_h=8, motion="revisit")
    trace = (header, records)
    d1 = compare(trace, Policy.full(), Policy.sliding(1), chunk_size=4)["overall"]["mean_rel_l2"]
    d8 = compare(trace, Policy.full(), Policy.sliding(8), chunk_size=4)["overall"]["mean_rel_l2"]
    assert d1 >= d8


def test_invalid_config_is_rejected_up_front():
    header, records = _trace(frames=5)
    with pytest.raises(ConfigError, match="gamma"):
        run_stream((header, records), Policy.stac(CacheConfig(gamma=1.5)))
    with pytest.raises(ConfigError, match="sum"):
        run_stream(
            (header, records),
            Policy.stac(CacheConfig(window_frac=0.9, anchor_frac=0.2, retrieve_frac=0.2)),
        )
    for policy in (Policy.full(), Policy.sliding(2), Policy.stac()):
        with pytest.raises(ConfigError, match="chunk_size"):
            run_stream((header, records), policy, chunk_size=0)


REFERENCE_PAIRS = {
    "full-stac": (Policy.full(), Policy.stac()),
    "full-window2": (Policy.full(), Policy.sliding(2)),
    "stac-stac_half": (Policy.stac(), Policy.stac(CacheConfig(half_precision=True))),
    "window1-full": (Policy.sliding(1), Policy.full()),
}


def _report_bytes(report: dict) -> bytes:
    """The report as compared byte for byte: sorted keys, no timing fields."""
    timing = ("mean_chunk_ms", "total_ms")
    for side in ("summary_a", "summary_b"):
        report[side] = {k: v for k, v in report[side].items() if k not in timing}
    return json.dumps(report, sort_keys=True).encode()


@pytest.mark.parametrize("pair", REFERENCE_PAIRS)
@pytest.mark.parametrize("chunk_size", [1, 3, 4, 7])
def test_compare_equals_two_whole_replays(pair, chunk_size):
    # 23 frames after the reference: chunks of 3, 4 and 7 end on a partial one
    header, records = _trace(seed=5, frames=24, tokens=6, d_h=4, motion="revisit")
    policy_a, policy_b = REFERENCE_PAIRS[pair]
    want = reference_compare((header, records), policy_a, policy_b, chunk_size)
    got = compare((header, records), policy_a, policy_b, chunk_size=chunk_size)
    assert _report_bytes(got) == _report_bytes(want)


@pytest.mark.parametrize("pair", REFERENCE_PAIRS)
def test_compare_equals_two_whole_replays_on_channels_from_one_shot_records(pair):
    header, records = _trace(seed=6, frames=17, tokens=5, layers=2, heads=2, d_h=4,
                             motion="revisit")
    policy_a, policy_b = REFERENCE_PAIRS[pair]
    want = reference_compare((header, records), policy_a, policy_b, 3)
    got = compare((header, iter(records)), policy_a, policy_b, chunk_size=3)
    assert len(got["per_channel"]) == 4
    assert _report_bytes(got) == _report_bytes(want)


def test_compare_reads_a_path_trace_once(tmp_path, monkeypatch):
    header, records = _trace(frames=9)
    path = str(tmp_path / "t.kvtrace")
    write_trace(path, header, records)
    calls = []
    read_trace = pipeline.read_trace
    monkeypatch.setattr(pipeline, "read_trace", lambda p: calls.append(p) or read_trace(p))
    report = compare(path, Policy.full(), Policy.sliding(1), chunk_size=3)
    assert calls == [path]
    want = compare((header, records), Policy.full(), Policy.sliding(1), chunk_size=3)
    assert report["per_frame"] == want["per_frame"]


def test_compare_takes_each_chunk_before_reading_on(monkeypatch):
    # one pass over a one-shot iterator: a chunk's divergence is taken as
    # soon as both policies have processed it, before the next record
    header, records = _trace(frames=12)
    log = []

    def one_shot():
        for record in records:
            log.append(("pull", record.frame_idx))
            yield record

    report = pipeline.divergence_report

    def spy(a, b):
        log.append(("chunk", list(a.outputs), list(b.outputs)))
        return report(a, b)

    monkeypatch.setattr(pipeline, "divergence_report", spy)
    compare((header, one_shot()), Policy.full(), Policy.sliding(1), chunk_size=3)
    want = [("pull", 0)]
    for chunk in ([1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11]):
        want += [("pull", f) for f in chunk] + [("chunk", chunk, chunk)]
    assert log == want


def test_compare_rejects_a_bad_policy_before_reading_a_record():
    header, records = _trace(frames=6)
    pulled = []

    def one_shot():
        for record in records:
            pulled.append(record.frame_idx)
            yield record

    with pytest.raises(ConfigError, match="gamma"):
        compare((header, one_shot()), Policy.full(), Policy.stac(CacheConfig(gamma=1.5)),
                chunk_size=3)
    assert pulled == []


def test_outputs_hold_only_the_last_chunk():
    header, records = _trace(seed=4, frames=12, tokens=3, layers=2, heads=2, d_h=4)
    replayer = StreamReplayer(header, Policy.sliding(2), chunk_size=3)
    refs = {(li, hi): _reference_verbatim(records, 2, 3, li, hi, header.d_h)[0]
            for li in range(2) for hi in range(2)}

    def check(frames):
        assert list(replayer.outputs) == frames
        for f in frames:
            assert replayer.outputs[f].shape == (2, 2, 3, 4)
            for (li, hi), ref in refs.items():
                assert np.array_equal(replayer.outputs[f][li, hi], ref[f])

    assert replayer.outputs == {}
    for record in records:
        row = replayer.feed(record)
        if row is not None:
            check(list(range(row["frame_lo"], row["frame_hi"] + 1)))
    check([7, 8, 9])
    replayer.finish()
    check([10, 11])  # the partial chunk finish() flushed


def test_compare_over_a_damaged_path_fails_and_closes_it(tmp_path, monkeypatch):
    header, records = _trace(frames=9)
    path = tmp_path / "t.kvtrace"
    write_trace(str(path), header, records)
    path.write_bytes(path.read_bytes()[:-40])
    opened = []

    def spy_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(traceio, "open", spy_open, raising=False)
    with pytest.raises(TraceFormatError, match="truncated at record 8"):
        compare(str(path), Policy.full(), Policy.stac(), chunk_size=3)
    with pytest.raises(ConfigError, match="gamma"):
        compare(str(path), Policy.full(), Policy.stac(CacheConfig(gamma=1.5)), chunk_size=3)
    assert len(opened) == 2
    assert all(f.closed for f in opened)


def test_half_precision_replay_stays_close_and_counts():
    header, records = _trace(seed=6, frames=30, tokens=6, d_h=6, motion="revisit")
    trace = (header, records)
    report = compare(trace, Policy.stac(), Policy.stac(CacheConfig(half_precision=True)),
                     chunk_size=4)
    assert report["summary_b"]["half_saturations"] == 0  # unit-scale data never saturates
    rep = report["overall"]
    assert rep["mean_cosine"] > 0.999
    assert rep["mean_rel_l2"] < 0.05


def test_policy_kind_validation():
    with pytest.raises(ConfigError):
        Policy("banana")
    with pytest.raises(ConfigError):
        Policy.sliding(-1)


def test_stac_bounded_on_long_walk():
    header, records = _trace(seed=11, frames=120, tokens=6, d_h=4, motion="random_walk")
    stats = run_stream((header, records), Policy.stac())
    # temporal side respects its budget, spatial side is bounded by cells
    cfg = CacheConfig()
    for row in stats.rows:
        assert row["temporal"] <= 6 + cfg.budget_multiplier * 6
    full = run_stream((header, records), Policy.full())
    assert stats.summary["peak_total_tokens"] < full.summary["peak_total_tokens"]


def _leaky_replay(leak):
    """Replay stac on one channel whose select_anchors is wrapped by leak."""
    header, records = _trace(seed=3, frames=40, tokens=6, d_h=4, motion="revisit")
    replayer = StreamReplayer(header, Policy.stac(), audit=True)
    cache = replayer.channels[0].cache
    original = cache.select_anchors
    cache.select_anchors = lambda expelled: leak(cache, original(expelled))
    for record in records:
        replayer.feed(record)


def test_audit_catches_token_evicted_this_chunk_staying_resident():
    def leak(cache, evicted):
        if len(evicted):
            cache._anchors = TokenBlock.concat([cache._anchors, evicted.take([0])])
        return evicted

    with pytest.raises(InvariantViolation, match="re-entered"):
        _leaky_replay(leak)


def test_audit_catches_token_evicted_earlier_coming_back():
    # the O(budget) check has no record of old evictions, yet still sees a
    # token evicted chunks ago turn up among the anchors
    gone = []

    def leak(cache, evicted):
        if len(gone) > 1:
            cache._anchors = TokenBlock.concat([cache._anchors.take(slice(0, -1)), gone[0]])
        gone.extend(evicted.take([i]) for i in range(len(evicted)))
        return evicted

    with pytest.raises(InvariantViolation, match="re-entered"):
        _leaky_replay(leak)


def _breached_replay(plant):
    """Replay stac on two channels; plant(store) runs after each insertion."""
    header, records = _trace(seed=3, frames=40, tokens=6, heads=2, d_h=4, motion="revisit")
    replayer = StreamReplayer(header, Policy.stac(), audit=True)
    store = replayer.store
    original = store.insert_evicted

    def insert(block, channels=None):
        events = original(block, channels)
        plant(store)
        return events

    store.insert_evicted = insert
    for record in records:
        replayer.feed(record)


def test_audit_catches_a_cap_breach_in_a_touched_cell():
    # the audit checks only the cells the chunk's insertion touched, and a
    # breach there is caught on that very chunk
    def overfill(store):
        for i in store.touched[1]:
            if store.lt_len[i]:
                store.lt_len[i] += store.g_cap
                return

    with pytest.raises(InvariantViolation, match="long-term over cap"):
        _breached_replay(overfill)

    def undrained(store):
        if store.touched[0].size:
            store.buf_len[store.touched[0][-1]] = store.e_cap

    with pytest.raises(InvariantViolation, match="buffer not drained"):
        _breached_replay(undrained)


def test_audit_conservation_is_per_channel():
    # count mass moved from one channel to another keeps the sum over
    # channels, but breaks each channel's conservation
    def shift(store):
        store.count_masses[0] += 1
        store.count_masses[1] -= 1

    with pytest.raises(InvariantViolation, match="conservation"):
        _breached_replay(shift)


def test_window_buffer_is_sized_once_from_the_policy():
    # reference + window + one chunk of rows, allocated at construction and
    # never grown; a header claiming fewer frames than the window or the
    # chunk shrinks it
    header, records = _trace(seed=4, frames=30, tokens=5, heads=2, d_h=4)
    replayer = StreamReplayer(header, Policy.sliding(3), chunk_size=4)
    buffers = [(ch.keys, ch.values) for ch in replayer.channels]
    assert all(k.shape == v.shape == ((1 + 3 + 4) * 5, 4) for k, v in buffers)
    for record in records:
        replayer.feed(record)
    replayer.finish()
    for ch, (k, v) in zip(replayer.channels, buffers):
        assert ch.keys is k and ch.values is v
    # a chunk never holds more frames than the header declares, so a chunk
    # size far past the stream sizes the buffer no larger
    huge = StreamReplayer(header, Policy.sliding(8), chunk_size=2_000_000)
    assert all(ch.keys.shape == ch.values.shape == ((1 + 8 + 30) * 5, 4) for ch in huge.channels)
    # a header that under-claims its frames sizes the buffer short; it then
    # grows, and the replay is unchanged
    honest, honest_outputs = replay_outputs((header, records), Policy.sliding(9), chunk_size=4)
    short = StreamReplayer(replace(header, frame_count=2), Policy.sliding(9), chunk_size=4)
    assert short.channels[0].keys.shape[0] == (1 + 2 + 2) * 5
    stats, outputs = feed_all(short, records)
    assert stats.canonical_lines() == honest.canonical_lines()
    assert sorted(outputs) == sorted(honest_outputs)
    for f, out in honest_outputs.items():
        assert np.array_equal(outputs[f], out)


def _mapping(a) -> mmap.mmap:
    """The anonymous mapping under an array, found through its bases."""
    while not isinstance(a, mmap.mmap):
        a = a.obj if isinstance(a, memoryview) else a.base
    return a


def test_full_history_growth_unmaps_the_outgrown_buffers():
    header, records = _trace(seed=4, frames=23, tokens=5, heads=2, d_h=6)
    replayer = StreamReplayer(header, Policy.full(), chunk_size=4)
    # mmap cannot map zero bytes: the empty starting buffer is a heap array
    assert all(ch.keys.shape == (0, 6) for ch in replayer.channels)
    replayer.feed(records[0])
    grown = 0
    for record in records[1:]:
        old = [(ch.keys, ch.values) for ch in replayer.channels]
        refs = [weakref.ref(_mapping(b)) for pair in old for b in pair]
        replayer.feed(record)
        if replayer.channels[0].keys is not old[0][0]:
            grown += 1
            del old
            assert all(ref() is None for ref in refs)
    replayer.finish()
    assert grown >= 3


def test_full_history_is_not_heap_memory():
    # The key and value histories reach 4,800 rows of 2 KiB each (9.8 MB
    # apiece), in mappings of 8,192 rows. One-frame chunks keep the Q x K
    # workspace at 16 x 4,800 x 8 B = 0.6 MB, and outputs are not
    # collected, so a history on the heap would dominate the traced peak.
    header, records = _trace(seed=1, frames=300, tokens=16, d_h=256)
    history = header.frame_count * header.tokens_per_frame * header.d_h * 8
    tracemalloc.start()
    try:
        run_stream((header, records), Policy.full(), chunk_size=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < history / 2
