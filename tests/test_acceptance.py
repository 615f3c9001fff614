"""Acceptance battery: ten pass/fail criteria, one test each.

Run `pytest tests/test_acceptance.py -v -s` to get one line per criterion.
Tolerances are pinned in the asserts; every replay here runs with runtime
audits enabled, so the audit criterion extends over the whole file.
"""

import itertools
import math
import time

import numpy as np

from stacache import (
    CacheConfig,
    Policy,
    TemporalCache,
    TokenBlock,
    TraceRecord,
    VoxelStore,
    attend,
    compare,
    morton_decode,
    morton_encode,
    run_stream,
    synth_trace,
    write_trace,
)
from stacache.pipeline import DEFAULT_CHUNK_SIZE
from stacache.spatial import voxel_indices
from oracles import (VoxelMirror, geometric_closed_form, py_cosine, retrieve_oracle, store_cells,
                     take_rows)

N = 16  # tokens per frame for the replay-level criteria


def test_c01_lossless_regime_matches_full():
    t0 = time.perf_counter()
    header, records = synth_trace(
        seed=0, frames=20, tokens_per_frame=N, layers=2, heads=2, d_h=16, motion="revisit"
    )
    # budget >= trace length and a zero retrieval share: nothing is ever
    # evicted, so the compressed cache must reproduce full attention
    cfg = CacheConfig(budget_multiplier=20.0, window_frac=0.2, anchor_frac=0.8,
                      retrieve_frac=0.0)
    report = compare((header, records), Policy.full(), Policy.stac(cfg))
    assert report["summary_b"]["events"]["evicted"] == 0
    for row in report["per_frame"]:
        assert row["rel_l2"] <= 1e-9, row
    elapsed = time.perf_counter() - t0
    print(f"\nC1 PASS: lossless-regime stac == full on every frame, "
          f"max rel L2 {report['overall']['max_rel_l2']:.2e} ({elapsed:.2f}s)")


def test_c02_count_bias_equals_duplicates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(2, 17))
        n_q = int(rng.integers(1, 5))
        n = int(rng.integers(2, 10))
        extra = int(rng.integers(0, 4))
        q = rng.normal(size=(n_q, d))
        mk, mv = rng.normal(size=d), rng.normal(size=d)
        ok, ov = rng.normal(size=(extra, d)), rng.normal(size=(extra, d))

        keys_a = np.vstack([mk[None, :], ok])
        vals_a = np.vstack([mv[None, :], ov])
        counts_a = np.array([n] + [1] * extra, dtype=float)
        keys_b = np.vstack([np.tile(mk, (n, 1)), ok])
        vals_b = np.vstack([np.tile(mv, (n, 1)), ov])
        counts_b = np.ones(n + extra)

        res_a = attend(q, keys_a, vals_a, counts_a, d)
        res_b = attend(q, keys_b, vals_b, counts_b, d)
        assert np.allclose(res_a.outputs, res_b.outputs, rtol=0.0, atol=1e-9)
        assert abs(res_a.mass[0] - res_b.mass[:n].sum()) <= 1e-9
    elapsed = time.perf_counter() - t0
    print(f"\nC2 PASS: one key with count n == n duplicate keys, "
          f"100 random cases within 1e-9 ({elapsed:.2f}s)")


def _evictee(key, value, position, score, frame, idx, count=1):
    # one evicted token as the one-row block the temporal cache hands on
    return TokenBlock.build(np.asarray(key)[None, :], np.asarray(value)[None, :],
                            np.asarray(position)[None, :], scores=[score], frames=frame,
                            tokens=[idx], counts=count)


def test_c03_fusion_recurrences_match_independent_replay():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    home = np.array([0.5, 0.5, 0.5])
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        g_cap = int(rng.integers(1, 4))
        e_cap = int(rng.integers(1, 5))
        lam = float(rng.uniform(-0.2, 0.9))
        store = VoxelStore(voxel_size=1.0, merge_lambda=lam, g_cap=g_cap,
                           e_cap=e_cap, knn_radius_mult=2.0)
        mirror = VoxelMirror(lam, g_cap, e_cap)
        inserted = 0
        for i in range(int(rng.integers(3, 25))):
            key, val = rng.normal(size=d), rng.normal(size=d)
            # gridded scores force exact pivot ties inside the buffer
            score = float(rng.choice([0.0, 0.5, 1.0])) if rng.random() < 0.5 \
                else float(rng.uniform(0.0, 2.0))
            count = int(rng.integers(1, 4))
            token = _evictee(key, val, home, score, 0, i, count)
            assert store.insert_evicted(token) == [mirror.insert(key, val, score, count)]
            inserted += count
        cell = store_cells(store)[(0, morton_encode((0, 0, 0)))]
        assert len(cell.long_term) == len(mirror.long_term)
        assert len(cell.buffer) == len(mirror.buffer)
        for got, ref in zip(store.block(cell.long_term).rows, mirror.long_term):
            assert np.allclose(got[:d], mirror.key_mean(ref), rtol=1e-6, atol=1e-6)
            assert np.allclose(got[d : 2 * d], mirror.value_mean(ref), rtol=1e-6, atol=1e-6)
        for r, ref in zip(cell.long_term, mirror.long_term):
            assert abs(store.weight[r] - ref["z"]) <= 1e-9
            assert store.count[r] == ref["count"]
        assert store.count_masses.sum() == inserted == mirror.count_mass()
    elapsed = time.perf_counter() - t0
    print(f"\nC3 PASS: 1000 eviction sequences, long-term keys/values within 1e-6, "
          f"Z within 1e-9, counts conserved ({elapsed:.2f}s)")


def test_c04_score_closed_form():
    t0 = time.perf_counter()
    for gamma in (0.5, 0.9, 0.99):
        for a in (1.0, 0.3):
            cache = TemporalCache(window_frames=1, anchor_budget=0, gamma=gamma)
            rng = np.random.default_rng(4)
            cache.register_reference(TraceRecord(
                frame_idx=0,
                data=rng.normal(size=(1, 1, 3, 1, 2)),
                positions=np.zeros((1, 3)),
                position_mask=np.ones(1, dtype=bool),
            ))
            for t in range(1, 201):
                cache.update_scores(np.array([[a]]))
                want = geometric_closed_form(a, gamma, t)
                assert abs(cache.snapshot().scores[0] - want) <= 1e-10, (gamma, a, t)
    elapsed = time.perf_counter() - t0
    print(f"\nC4 PASS: decayed score matches a(1-g^t)/(1-g) within 1e-10 "
          f"for g in {{0.5, 0.9, 0.99}}, t <= 200 ({elapsed:.2f}s)")


def _anchor_oracle(candidates, budget):
    # candidates are (TokenId, score) pairs
    ranked = sorted(candidates, key=lambda t: (-t[1], -t[0].frame_idx, t[0].token_idx))
    return ranked[:budget], ranked[budget:]


def _zero_record(frame_idx, channels, n):
    return TraceRecord(frame_idx, np.zeros((1, channels, 3, n, 2)), np.zeros((n, 3)),
                       np.ones(n, dtype=bool))


def test_c05_selection_mechanisms_match_bruteforce():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)

    # anchor Top-K on two channels at once, two rounds each so kept anchors
    # re-compete; a round expels the window's frame and every fresh frame
    # but the newest, two tokens a frame, each with a score of its own
    channels, n = 2, 2
    for _ in range(500):
        budget = int(rng.integers(0, 7))
        cache = TemporalCache(window_frames=1, anchor_budget=budget, gamma=0.9,
                              channels=channels)
        cache.register_reference(_zero_record(0, channels, n))
        pools, frame = [[] for _ in range(channels)], 1
        for _round in range(2):
            fresh = int(rng.integers(1, 5))
            expelled = cache.ingest_frames(
                [_zero_record(f, channels, n) for f in range(frame, frame + fresh)])
            frame += fresh
            cache.scores[expelled] = [
                float(rng.choice([0.0, 1.0, 2.0])) if rng.random() < 0.5
                else float(rng.uniform(0.0, 3.0)) for _ in expelled]
            batch = cache.block(expelled)
            each = len(batch) // channels
            refs = [_anchor_oracle(pools[c] + list(zip(
                        take_rows(batch, slice(c * each, (c + 1) * each)).ids(),
                        batch.scores[c * each : (c + 1) * each].tolist())), budget)
                    for c in range(channels)]
            losers = cache.select_anchors(expelled)
            anchors = cache.order[:, cache.reference_count + cache.window_token_count :]
            lost = len(losers) // channels
            for c, (kept_ref, losers_ref) in enumerate(refs):
                assert cache.block(anchors[c]).ids() == [t for t, _ in kept_ref]
                assert take_rows(losers, slice(c * lost, (c + 1) * lost)).ids() == \
                    [t for t, _ in losers_ref]
                pools[c] = kept_ref

    # fusion-target argmax and routing events
    home = np.array([0.5, 0.5, 0.5])
    fused_checked = 0
    for case in range(50):
        lam = float(rng.uniform(0.2, 0.7))
        store = VoxelStore(voxel_size=1.0, merge_lambda=lam, g_cap=3, e_cap=2,
                           knn_radius_mult=2.0)
        cell = None
        for i in range(20):
            key, val = rng.normal(size=3), rng.normal(size=3)
            reps = list(cell.long_term) if cell is not None else []
            snap = [(store.data[r, :3].copy(), store.count[r]) for r in reps]
            buffered = len(cell.buffer) if cell is not None else 0
            best_i, best_cos = -1, -2.0
            for j, (k, _) in enumerate(snap):
                c = py_cosine(k, key)
                if c > best_cos:
                    best_i, best_cos = j, c
            token = _evictee(key, val, home, float(rng.uniform(0, 1)), 0, i)
            (event,) = store.insert_evicted(token)
            cell = store_cells(store)[(0, morton_encode((0, 0, 0)))]
            if best_i >= 0 and best_cos > lam:
                assert event == "fused"
                assert store.count[reps[best_i]] == snap[best_i][1] + 1
                fused_checked += 1
            else:
                assert event == ("aggregated" if buffered + 1 >= 2 else "buffered")
    assert fused_checked >= 200

    # re-merge victim argmin: lambda=1.0 blocks threshold fusion, e_cap=1
    # turns every insert into an aggregate, so each insert past g_cap re-merges
    remerges = 0
    for case in range(25):
        store = VoxelStore(voxel_size=1.0, merge_lambda=1.0, g_cap=3, e_cap=1,
                           knn_radius_mult=2.0)
        for i in range(43):
            key, val = rng.normal(size=3), rng.normal(size=3)
            cell = store_cells(store).get((0, morton_encode((0, 0, 0))))
            reps = list(cell.long_term) if cell is not None else []
            snap = [(store.token[r], store.data[r, :3].copy(), store.weight[r], store.count[r])
                    for r in reps]
            count = int(rng.integers(1, 4))
            token = _evictee(key, val, home, 0.0, 0, i, count)
            assert store.insert_evicted(token) == ["aggregated"]
            if len(snap) < 3:
                continue
            vi = min(range(3), key=lambda j: (snap[j][2], j))
            rest = [j for j in range(3) if j != vi]
            bi = max(rest, key=lambda j: py_cosine(snap[j][1], snap[vi][1]))
            left = store_cells(store)[(0, morton_encode((0, 0, 0)))].long_term
            assert [store.token[r] for r in left[:-1]] == [snap[j][0] for j in rest]
            heir = left[rest.index(bi)]
            assert store.count[heir] == snap[bi][3] + snap[vi][3]
            omega = math.exp(py_cosine(snap[bi][1], snap[vi][1]))
            assert abs(store.weight[heir] - (snap[bi][2] + omega)) <= 1e-9
            remerges += 1
    assert remerges >= 1000

    # voxel-neighborhood retrieval, ranking and truncation included
    for case in range(50):
        store = VoxelStore(voxel_size=0.05, merge_lambda=0.5, g_cap=2, e_cap=3,
                           knn_radius_mult=2.0)
        for i in range(60):
            key, val = rng.normal(size=3), rng.normal(size=3)
            score = float(rng.uniform(0, 1))
            store.insert_evicted(_evictee(key, val, rng.uniform(-0.3, 0.3, size=3), score, 0, i))
        for _ in range(20):
            visible = rng.uniform(-0.3, 0.3, size=(int(rng.integers(1, 6)), 3))
            quota = int(rng.integers(1, 50))
            (got,) = store.retrieve(visible, quota)
            want = retrieve_oracle(store, visible, quota)
            assert got.ids() == store.block(want).ids()

    elapsed = time.perf_counter() - t0
    print(f"\nC5 PASS: anchor Top-K (1000), fusion argmax ({fused_checked} fused of 1000), "
          f"re-merge argmin ({remerges}), retrieval (1000) all match brute force ({elapsed:.2f}s)")


def test_c06_morton_roundtrip():
    t0 = time.perf_counter()
    limit = 1 << 20
    for corner in itertools.product((-limit, limit - 1), repeat=3):
        assert morton_decode(morton_encode(corner)) == corner
    rng = np.random.default_rng(6)
    coords = rng.integers(-limit, limit, size=(100_000, 3))
    for row in coords:
        c = (int(row[0]), int(row[1]), int(row[2]))
        assert morton_decode(morton_encode(c)) == c
    elapsed = time.perf_counter() - t0
    print(f"\nC6 PASS: decode(encode(c)) == c for 100000 random coordinates "
          f"and all 8 extremes ({elapsed:.2f}s)")


def test_c07_memory_growth_shape():
    t0 = time.perf_counter()
    header, records = synth_trace(seed=0, frames=500, tokens_per_frame=N,
                                  d_h=16, motion="revisit")
    trace = (header, records)
    full = run_stream(trace, Policy.full())
    stac = run_stream(trace, Policy.stac())

    for row in full.rows:
        assert row["total"] == row["frames_seen"] * N
    assert full.summary["final_total_tokens"] == 500 * N

    # structural bound, constant in t: temporal budget + in-flight chunk +
    # every voxel the bounded scene can reach at its worst-case occupancy
    cfg = CacheConfig()
    placed = np.concatenate([r.positions[r.position_mask] for r in records])
    cells = {tuple(v) for v in voxel_indices(placed, cfg.voxel_size).tolist()}
    bound = N + int(cfg.budget_multiplier * N) + DEFAULT_CHUNK_SIZE * N \
        + len(cells) * (cfg.g_cap + cfg.e_cap)
    late = [row["total"] for row in stac.rows if row["frame_hi"] >= 50]
    assert max(late) <= bound
    assert stac.summary["peak_total_tokens"] <= bound

    ratio = full.summary["final_total_tokens"] / stac.summary["final_total_tokens"]
    assert ratio > 10.0
    elapsed = time.perf_counter() - t0
    print(f"\nC7 PASS: full grows t*N exactly; stac peak {stac.summary['peak_total_tokens']} "
          f"<= bound {bound} ({len(cells)} reachable voxels); ratio at t=500 "
          f"{ratio:.1f}x > 10x ({elapsed:.2f}s)")


def test_c08_stac_beats_window_at_matched_budget():
    t0 = time.perf_counter()
    cfg = CacheConfig()
    wins = 0
    details = []
    for seed in range(10):
        header, records = synth_trace(seed=seed, frames=120, tokens_per_frame=N,
                                      d_h=16, motion="revisit")
        trace = (header, records)
        stac = compare(trace, Policy.full(), Policy.stac())
        stac_peak = stac["summary_b"]["peak_total_tokens"]
        # window sized up so the baseline never holds fewer tokens than stac
        w = max(1, math.ceil((stac_peak - N - DEFAULT_CHUNK_SIZE * N) / N))
        window = compare(trace, Policy.full(), Policy.sliding(w))
        assert window["summary_b"]["peak_total_tokens"] >= stac_peak
        d_stac = stac["overall"]["mean_rel_l2"]
        d_win = window["overall"]["mean_rel_l2"]
        wins += d_stac <= d_win
        details.append(f"{d_stac:.2f}/{d_win:.2f}")
    assert wins >= 9, details
    elapsed = time.perf_counter() - t0
    print(f"\nC8 PASS: stac divergence <= window divergence on {wins}/10 seeds "
          f"at matched peak budget (stac/window rel L2: {', '.join(details)}) ({elapsed:.2f}s)")


def test_c09_replays_are_byte_identical(tmp_path):
    t0 = time.perf_counter()
    header, records = synth_trace(seed=9, frames=40, tokens_per_frame=8,
                                  layers=2, heads=1, d_h=8, motion="revisit")
    path = str(tmp_path / "trace.kvtrace")
    write_trace(path, header, records)
    for policy in (Policy.full(), Policy.sliding(4), Policy.stac(),
                   Policy.stac(CacheConfig(half_precision=True))):
        a = run_stream(path, policy)
        b = run_stream(path, policy)
        assert "\n".join(a.canonical_lines()).encode() == \
            "\n".join(b.canonical_lines()).encode(), policy.label()
    elapsed = time.perf_counter() - t0
    print(f"\nC9 PASS: repeated replays byte-identical for full, window, stac, "
          f"and half-precision runs ({elapsed:.2f}s)")


def test_c10_audits_never_fire_across_battery():
    # every run in this file already executes with audit=True; this battery
    # adds the corner configurations and a chunk size of 3, and asserts the
    # audits actually ran
    t0 = time.perf_counter()
    configs = [
        CacheConfig(),
        CacheConfig(g_cap=1),
        CacheConfig(e_cap=1),
        CacheConfig(g_cap=1, e_cap=1),
        CacheConfig(half_precision=True),
        CacheConfig(window_frac=0.75, anchor_frac=0.0, retrieve_frac=0.25),
        CacheConfig(voxel_size=0.02, knn_radius_mult=3.0),
        CacheConfig(budget_multiplier=6.0, window_frames=2),
    ]
    cases = [(cfg, DEFAULT_CHUNK_SIZE) for cfg in configs] + [(CacheConfig(), 3)]
    audits = 0
    for motion in ("random_walk", "orbit", "revisit"):
        header, records = synth_trace(seed=10, frames=30, tokens_per_frame=8,
                                      d_h=8, motion=motion)
        for cfg, chunk_size in cases:
            stats = run_stream((header, records), Policy.stac(cfg), chunk_size=chunk_size,
                               audit=True)
            assert stats.summary["audits_checked"] > 0
            audits += stats.summary["audits_checked"]
    elapsed = time.perf_counter() - t0
    print(f"\nC10 PASS: {audits} audit checks across 27 corner-case replays, "
          f"none fired ({elapsed:.2f}s)")
