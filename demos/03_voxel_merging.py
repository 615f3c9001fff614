"""
The spatial voxel cache
=======================

Tokens evicted from the temporal cache land in a uniform voxel grid; each
cell is labelled by the Morton code of its voxel. Each cell holds a
handful of merged long-term entries plus a small arrival buffer; three
mechanisms keep it bounded:

  one-to-one fusion    an arrival joins its most similar long-term entry
                       when cosine exceeds the merge threshold
  aggregation          a full buffer collapses into one representative,
                       weighted around its highest-score pivot
  re-merging           a full cell folds its lightest entry into that
                       entry's nearest neighbor to free the slot
"""

import numpy as np

from stacache import TokenBlock, VoxelCoord, VoxelStore, morton_decode, morton_encode
from stacache.spatial import EVENTS, voxel_indices

rng = np.random.default_rng(2)

# a point's voxel is floor(p / voxel_size) per axis; the Morton code, which
# interleaves the bits of the three indices, is the cell's label
coord = VoxelCoord(*voxel_indices([[0.26, 0.01, -0.07]], voxel_size=0.05)[0].tolist())
code = morton_encode(coord)
print("position (0.26, 0.01, -0.07) -> voxel", coord, "-> code", code)
print("decode round-trips:", morton_decode(code) == coord)

store = VoxelStore(voxel_size=0.05, merge_lambda=0.8, g_cap=2, e_cap=3,
                   knn_radius_mult=2.0)


def evicted(i, key, pos, score=0.0):
    # evicted tokens travel as rows of a block: [key | value | position]
    return TokenBlock.build([key], [rng.normal(size=4)], [pos], scores=[score],
                            frames=1, tokens=[i])


# three dissimilar arrivals in one voxel fill its buffer and aggregate
home = [0.01, 0.01, 0.01]
print("\nrouting events:")
print("  ", store.insert_evicted(evicted(0, [1, 0, 0, 0], home, score=1.0)))
print("  ", store.insert_evicted(evicted(1, [0, 1, 0, 0], home)))
print("  ", store.insert_evicted(evicted(2, [0, 0, 1, 0], home)))

rep = store.lt_rows[0, 0]  # cell 0's first long-term entry, a row of the store's pool
print("aggregated entry: count =", store.count[rep], " weight Z =", round(store.weight[rep], 4))

# a similar arrival now fuses one-to-one instead of buffering
print("\na near-duplicate of the pivot:", store.insert_evicted(
    evicted(3, [1, 0.05, 0, 0], home, score=0.5)))
print("entry after fusion: count =", store.count[rep], " weight Z =", round(store.weight[rep], 4))

# retrieval pulls tokens whose home voxel sits near anything currently
# visible: long-term entries first, then nearer cells, then heavier entries
for i in range(8):
    store.insert_evicted(evicted(10 + i, rng.normal(size=4), rng.uniform(-0.1, 0.1, size=3)))
visible = np.array([[0.0, 0.0, 0.0]])
(got,) = store.retrieve(visible, quota=4)  # one block per channel
print("\nretrieved near the origin:")
for token_id, count in zip(got.ids(), got.counts):
    kind = "merged" if token_id.frame_idx == -1 else "buffered"
    print(f"  {kind:8s} count={count}  id={tuple(token_id)}")
cells = store.cell_count  # the store's tables hold one row per cell
print(f"store: {cells} cells, {store.lt_len[:cells].sum()} merged and "
      f"{store.buf_len[:cells].sum()} buffered entries")
print("events:", dict(zip(EVENTS, store.channel_events.sum(0).tolist())))
