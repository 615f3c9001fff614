"""
The temporal working cache
==========================

One (layer, head) channel keeps three tiers of recent history: the first
frame as a permanent reference, a FIFO window of the last few frames, and
a small set of score-ranked anchors fed by whatever the window expels.
Scores are attention mass accumulated with exponential decay, so a token
that stops being attended eventually loses its anchor seat.

One cache holds every channel of a replay, each token in a slot of its
own; this walkthrough uses a single channel (one layer, one head).
"""

import numpy as np

from stacache import TemporalCache, TraceRecord

rng = np.random.default_rng(1)
N, D = 3, 4


def frame(idx):
    queries, keys, values = (rng.normal(size=(N, D)) for _ in range(3))
    return TraceRecord(
        frame_idx=idx,
        data=np.stack([queries, keys, values])[None, None],  # (layers, heads, q|k|v, N, D)
        positions=rng.uniform(-1, 1, size=(N, 3)),
        position_mask=np.ones(N, dtype=bool),
    )


cache = TemporalCache(window_frames=2, anchor_budget=2, gamma=0.9)
cache.register_reference(frame(0))
print("after reference:", cache.reference_count, "reference tokens")

# ingest three frames; the 2-frame window must expel frame 1, whose
# tokens keep their slots as candidates for an anchor seat
expelled = cache.ingest_frames([frame(1), frame(2), frame(3)])
print("window holds", cache.window_token_count, "tokens;",
      len(expelled), "tokens expelled from frame",
      cache.frames[expelled[0]] if len(expelled) else None)

# pretend the attention step just ran: give every member some mass.
# decay means score ~ recent mass, not lifetime totals
for step in range(3):
    mass = rng.uniform(0, 1, size=(1, cache.member_count))  # (channels, members)
    cache.update_scores(mass)
snap = cache.snapshot()
print("\nscores after three decayed updates:")
for token_id, score in list(zip(snap.ids(), snap.scores))[:4]:
    print(f"  token {tuple(token_id)}  score={score:.4f}")

# anchor selection ranks expelled tokens (plus sitting anchors) by score,
# younger frame first on ties, and keeps the best two; the rest are the
# tokens the temporal cache is done with -- they exit toward the voxel store
cache.scores[expelled[0]] = 5.0  # make one expelled token clearly worth keeping
losers = cache.select_anchors(expelled)
anchors = cache.block(cache.order[0, cache.reference_count + cache.window_token_count :])
print("\nanchors kept:", [tuple(i) for i in anchors.ids()])
print("evicted toward the spatial cache:", [tuple(i) for i in losers.ids()])
