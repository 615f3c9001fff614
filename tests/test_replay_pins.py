"""A replay's bits are a contract.

Refactors of the caches and of the replayer claim to change no bit of what
a replay emits. The digests below pin small replays: the sha256 of every
chunk's attention outputs, in chunk and frame order, followed by the
canonical stats lines. The three `stac` pins were taken before the voxel
store kept its cells as index tables; the `full`, `window` and `compare`
pins before channel steps stopped reporting the figures of their chunk's
stats row. Any change that moves them changes what a policy does or what
a replay reports.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from stacache import CacheConfig, Policy, StreamReplayer, compare, synth_trace


def _replay_digest(trace, policy):
    header, records = trace
    replayer = StreamReplayer(header, policy)
    digest = hashlib.sha256()

    def emitted():
        for _, block in sorted(replayer.outputs.items()):
            digest.update(block.tobytes())

    for record in records:
        if replayer.feed(record) is not None:
            emitted()
    partial = bool(replayer._pending)
    stats = replayer.finish()
    if partial:
        emitted()
    digest.update("\n".join(stats.canonical_lines()).encode())
    return digest.hexdigest(), stats


PINNED = [
    pytest.param(
        dict(seed=11, frames=61, tokens_per_frame=32, layers=1, heads=2, d_h=16,
             motion="revisit", cluster_spread=1.0),
        CacheConfig(g_cap=2, e_cap=4),
        ("aggregated", "re_merged"),
        "54e308dcf677328a78a35eeb51184032fee6f7334ede701b1ab448b39438d12c",
        id="scatter-aggregate-re-merge",
    ),
    pytest.param(
        dict(seed=12, frames=61, tokens_per_frame=16, layers=2, heads=2, d_h=8,
             motion="revisit"),
        CacheConfig(),
        ("fused",),
        "94d33ac6c3f2feac329d7f6b65e0ba03bfc5a3dedeb422bab6db55f5857f204c",
        id="revisit-fuse-retrieve",
    ),
    pytest.param(
        dict(seed=13, frames=42, tokens_per_frame=16, layers=1, heads=3, d_h=8,
             motion="random_walk", cluster_spread=1.0),
        CacheConfig(g_cap=1, half_precision=True),
        ("aggregated", "re_merged"),
        "65e59a9d1899ca2c8fd44c7d3147816cbb08f1bae738e5f4ec71ebc8619f804f",
        id="quantized-g-cap-1",
    ),
]


@pytest.mark.parametrize("trace, config, events, digest", PINNED)
def test_stac_replay_bits_are_pinned(trace, config, events, digest):
    got, stats = _replay_digest(synth_trace(**trace), Policy.stac(config))
    counts = stats.summary["events"]
    assert all(counts[e] > 0 for e in events), counts
    assert sum(row["retrieval"]["returned_g"] for row in stats.rows) > 0
    assert got == digest


VERBATIM_TRACE = dict(seed=14, frames=42, tokens_per_frame=16, layers=1, heads=2, d_h=8,
                      motion="revisit")


@pytest.mark.parametrize("policy, digest", [
    pytest.param(Policy.full(),
                 "dfa6a770803b7f402a22ff3a262b7197175c7a9d92a2a9fa8f2856808e9bfd77",
                 id="full"),
    pytest.param(Policy.sliding(3),
                 "bf509c1804c97bb6f23f585729b6423b1e05c1c6e770f5f3ecd486ff026e37e6",
                 id="window-3"),
])
def test_verbatim_replay_bits_are_pinned(policy, digest):
    # 41 frames after the reference: ten chunks of four and a partial one
    got, stats = _replay_digest(synth_trace(**VERBATIM_TRACE), policy)
    assert stats.rows[-1]["frame_lo"] == stats.rows[-1]["frame_hi"]
    assert got == digest


def test_compare_report_bits_are_pinned():
    # chunk 3 over 41 frames ends on a partial chunk of two
    report = compare(synth_trace(**VERBATIM_TRACE), Policy.full(), Policy.stac(), chunk_size=3)
    for side in ("summary_a", "summary_b"):
        for timing in ("mean_chunk_ms", "total_ms"):
            del report[side][timing]
    assert report["summary_b"]["events"]["evicted"] > 0
    got = hashlib.sha256(json.dumps(report).encode()).hexdigest()
    assert got == "61fc8532eb13c477c629680d5590136e20b6f7228497b01a4e63ca0d8e9599f9"
