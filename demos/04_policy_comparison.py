"""
Replaying one trace under three cache policies
==============================================

The replay harness streams a synthetic trace through full-cache,
sliding-window, and compressed (stac) policies, then quantifies what each
one paid in memory and lost in attention fidelity. The trace revisits the
same regions repeatedly while values drift, so a policy that forgot a
region pays in divergence when the camera returns.
"""

from stacache import CacheConfig, Policy, allocate_budget, compare, run_stream, synth_trace

header, records = synth_trace(seed=7, frames=200, tokens_per_frame=16,
                              d_h=16, motion="revisit")
trace = (header, records)

full = run_stream(trace, Policy.full())
window = run_stream(trace, Policy.sliding(8))
stac = run_stream(trace, Policy.stac())

# memory growth: full is linear in t, the window is flat and forgetful,
# stac is bounded because the scene itself is bounded
print("cache size (tokens) at sampled frames:")
print(f"{'frame':>8} {'full':>8} {'window:8':>9} {'stac':>8}")
for i in (0, 9, 24, 48, len(full.rows) - 1):
    f, w, s = full.rows[i], window.rows[i], stac.rows[i]
    print(f"{f['frame_hi']:>8} {f['total']:>8} {w['total']:>9} {s['total']:>8}")

print("\npeak tokens    full:", full.summary["peak_total_tokens"],
      " window:", window.summary["peak_total_tokens"],
      " stac:", stac.summary["peak_total_tokens"])
print("peak bytes     full:", full.summary["peak_bytes"],
      " window:", window.summary["peak_bytes"],
      " stac:", stac.summary["peak_bytes"])

# fidelity: attention-output divergence from the uncompressed baseline;
# compare replays both policies in one pass and keeps no outputs past a chunk
for name, policy in (("window:8", Policy.sliding(8)), ("stac", Policy.stac())):
    rep = compare(trace, Policy.full(), policy)["overall"]
    print(f"\n{name} vs full:  mean cosine {rep['mean_cosine']:.4f}"
          f"  mean rel L2 {rep['mean_rel_l2']:.4f}"
          f"  max rel L2 {rep['max_rel_l2']:.4f}")

split = allocate_budget(CacheConfig(), header.tokens_per_frame)
print(f"\nstac budget per channel: {split.window_tokens} window tokens, "
      f"{split.anchor_tokens} anchors, {split.retrieve_tokens} retrieved")
print("voxel-store events:", stac.summary["events"])
print(f"compression vs full at t=200: {stac.summary['compression_ratio']:.1f}x")
