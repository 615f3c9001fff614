"""A stac replay's bits are a contract.

Refactors of the caches claim to change no bit of what a replay emits. The
digests below pin three small `stac` replays: the sha256 of every chunk's
attention outputs, in chunk and frame order, followed by the canonical
stats lines. They were taken before the voxel store kept its cells as
index tables, and any change that moves them changes what the policy does.
"""

from __future__ import annotations

import hashlib

import pytest

from stacache import CacheConfig, Policy, StreamReplayer, synth_trace


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
