"""Workload definitions for the replay benchmark.

A workload is a synthetic trace recipe plus what the measured process does
with it: "replay" feeds the trace through one policy, "compare" runs
`compare(path, full, policy)`. Every trace comes from `synth_trace` with the
run's seed; the measured process only ever sees the written trace file.
"""

from __future__ import annotations

from dataclasses import dataclass

from stacache import Policy, synth_trace


# Frames per chunk: StreamReplayer's default for full and window, and
# CacheConfig's default for stac.
CHUNK_FRAMES = 4
# Replay workloads get their fidelity figures from compare(full, policy)
# over this many leading frames of the same trace: full attention over the
# whole trace is O(t^2) and would dominate the run.
FIDELITY_FRAMES = 81


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "replay" or "compare"
    policy: str                 # "stac" or "window:<frames>"; compare runs full against it
    frames: int
    layers: int
    heads: int
    # Seconds one pass takes on a 2-vCPU host. It fixes the pass count for a
    # given --seconds (see passes()), so that every run of a workload uses
    # the same estimator however fast the machine happens to be.
    pass_s: float
    tokens_per_frame: int = 64
    d_h: int = 32
    motion: str = "revisit"
    cluster_spread: float = 0.25

    def synth(self, seed: int):
        return synth_trace(
            seed=seed,
            frames=self.frames,
            tokens_per_frame=self.tokens_per_frame,
            layers=self.layers,
            heads=self.heads,
            d_h=self.d_h,
            motion=self.motion,
            cluster_spread=self.cluster_spread,
        )

    def make_policy(self) -> Policy:
        if self.policy == "stac":
            return Policy.stac()
        kind, _, frames = self.policy.partition(":")
        if kind != "window" or not frames.isdigit():
            raise ValueError(f"unknown policy spec {self.policy!r}")
        return Policy.sliding(int(frames))

    def policies(self) -> list[Policy]:
        """Policies the measured process builds replayers for, in run order."""
        if self.kind == "compare":
            return [Policy.full(), self.make_policy()]
        return [self.make_policy()]

    def passes(self, seconds: float) -> int:
        """Untraced passes a run makes: at least two, so that every run
        checks that repetitions replay to the same digest."""
        return max(2, round(seconds / self.pass_s))

    def chunks_per_pass(self) -> int:
        """Chunk steps in one pass: frame 0 is the reference, the rest chunk."""
        per_replay = -(-(self.frames - 1) // CHUNK_FRAMES)
        return per_replay * len(self.policies())


# The ROADMAP's M geometry (2 layers x 4 heads, N=64, d_h=32). 481 frames
# give 120 chunks, so chunk_ms_p90 has 12 samples beyond it in one pass.
_M = dict(layers=2, heads=4, tokens_per_frame=64, d_h=32, frames=481, motion="revisit")

# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # The paper's case: revisits make most evictions fuse.
        Workload(name="stac-revisit", kind="replay", policy="stac", pass_s=15.0, **_M),
        # Bypass control on the same trace: no temporal or spatial code runs.
        Workload(name="window-revisit", kind="replay", policy="window:8", pass_s=4.0, **_M),
        # Fidelity, with full's O(t^2) attention and stac's buffer path.
        Workload(
            name="compare-scatter",
            kind="compare",
            policy="stac",
            layers=2,
            heads=2,
            frames=241,
            # The revisit loop, not a random walk: the walk's path changes
            # with the seed, and with it the store size (peak tokens varied
            # by 14% between seeds), while the loop keeps the scene fixed and
            # the wide key spread still makes most evictions miss a fuse.
            motion="revisit",
            cluster_spread=1.0,
            pass_s=14.0,
        ),
    )
}
