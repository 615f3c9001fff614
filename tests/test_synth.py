"""The synthesizer's bytes are a contract.

Benchmarks and stored results name a trace by its seed and geometry, so
`synth_trace` must keep writing the same bytes for the same arguments. The
digests below pin them. The reference below is the previous synthesizer,
kept as test-local code: one noise draw of shape (3, d_h) per token inside a
layer, head, token loop, and one walk step drawn per frame. The array form
under test must give the same records, byte for byte.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stacache import TraceHeader, TraceRecord, synth_trace, write_trace
from stacache.cli import main
from stacache.traceio import (
    EPOCH_FRAMES,
    ORBIT_RADIUS,
    REGION_SIZE,
    REVISIT_PERIOD,
    VIEW_RADIUS,
    WALK_BOX,
    WALK_STEP,
)

PINNED = [
    pytest.param(
        dict(seed=1, frames=45, tokens_per_frame=64, layers=2, heads=2, d_h=16,
             motion="revisit"),
        "cfeeac529a5eda7c94f05b9db9e0712ebf882f8c060cdb4fea61c7535bd67a2f",
        id="revisit",
    ),
    pytest.param(
        dict(seed=2, frames=61, tokens_per_frame=64, layers=1, heads=2, d_h=8,
             motion="revisit", cluster_spread=1.0),
        "0bf32b4a4480a68c4828aaa9d908377b255798310b2c5b230a0c7e417d0b5bf8",
        id="revisit-wide-spread",
    ),
    pytest.param(
        dict(seed=3, frames=50, tokens_per_frame=9, layers=1, heads=3, d_h=8,
             motion="orbit", value_drift=0.0),
        "8c5ad644b51bd2e13b52c48d909579042137daf7490d93e8140c1a6d83fdea68",
        id="orbit-no-drift",
    ),
    pytest.param(
        dict(seed=4, frames=80, tokens_per_frame=6, layers=3, heads=1, d_h=4,
             motion="random_walk", cluster_spread=0.0),
        "e2c2cac2817573469d3a7b71072ec84bf678dbf427acb8fdb967ee22923008f3",
        id="walk-no-spread",
    ),
    pytest.param(
        dict(seed=5, frames=30, tokens_per_frame=1, layers=1, heads=2, d_h=4,
             motion="revisit"),
        "d3edb7a47c78008a91f0cc60b038515dbdb333d1ae91607b4829772373106607",
        id="pose-only",
    ),
]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("cfg, digest", PINNED)
def test_synth_trace_bytes_are_pinned(tmp_path, cfg, digest):
    path = tmp_path / "t.kvtrace"
    write_trace(str(path), *synth_trace(**cfg))
    assert _sha256(path) == digest


def test_cli_trace_bytes_are_pinned(tmp_path, capsys):
    # the walk-no-spread trace, through the command's flags
    path = tmp_path / "t.kvtrace"
    code = main(["synth", "--seed", "4", "--frames", "80", "--tokens", "6", "--layers", "3",
                 "--heads", "1", "--dh", "4", "--motion", "random_walk", "--spread", "0.0",
                 "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    assert _sha256(path) == "e2c2cac2817573469d3a7b71072ec84bf678dbf427acb8fdb967ee22923008f3"


def _reference_camera_path(motion, frames, rng):
    centers = np.zeros((frames, 3))
    if motion == "random_walk":
        pos = np.zeros(3)
        for t in range(frames):
            pos = pos + rng.normal(0.0, WALK_STEP, size=3)
            pos = WALK_BOX - np.abs((pos + WALK_BOX) % (4 * WALK_BOX) - 2 * WALK_BOX)
            centers[t] = pos
    else:
        period = frames if motion == "orbit" else REVISIT_PERIOD
        theta = 2.0 * np.pi * (np.arange(frames) % period) / period
        centers[:, 0] = ORBIT_RADIUS * np.cos(theta)
        centers[:, 1] = ORBIT_RADIUS * np.sin(theta)
        centers[:, 2] = 0.05 * np.sin(2.0 * theta)
    return centers


def _reference_synth(seed, frames, tokens_per_frame, layers, heads, d_h, motion,
                     cluster_spread, value_drift):
    rng = np.random.default_rng(seed)
    centers = _reference_camera_path(motion, frames, rng)
    n, d = tokens_per_frame, d_h
    archetypes: dict[tuple, np.ndarray] = {}

    def archetype(kind, layer, head, region):
        key = (kind, layer, head, region)
        vec = archetypes.get(key)
        if vec is None:
            bias = 1 << 20
            entropy = [seed, kind, layer, head] + [r + bias for r in region]
            vec = np.random.default_rng(entropy).standard_normal(d)
            archetypes[key] = vec
        return vec

    cam_region = (0, 0, 0)
    records = []
    for t in range(frames):
        positions = np.zeros((n, 3))
        mask = np.zeros(n, dtype=bool)
        if n > 1:
            offs = rng.uniform(-VIEW_RADIUS, VIEW_RADIUS, size=(n - 1, 3))
            positions[1:] = centers[t] + offs
            mask[1:] = True
        regions = [
            tuple(int(math.floor(x / REGION_SIZE)) for x in positions[j])
            for j in range(n)
        ]
        epoch = t // EPOCH_FRAMES
        data = np.empty((layers, heads, 3, n, d))
        for l in range(layers):
            for h in range(heads):
                for j in range(n):
                    if mask[j]:
                        ak = archetype(0, l, h, regions[j])
                        av = archetype(1, l, h, regions[j]) + value_drift * archetype(
                            2, l, h, (*regions[j], epoch)
                        )
                        aq = ak
                    else:
                        aq = ak = archetype(3, l, h, cam_region)
                        av = archetype(4, l, h, cam_region)
                    noise = rng.standard_normal((3, d)) * cluster_spread
                    data[l, h, 0, j] = aq + noise[0]
                    data[l, h, 1, j] = ak + noise[1]
                    data[l, h, 2, j] = av + noise[2]
        records.append(TraceRecord(t, data, positions, mask))

    placed = np.concatenate([r.positions[r.position_mask] for r in records]) if n > 1 else None
    extent = None
    if placed is not None and placed.size:
        extent = [list(map(float, placed.min(axis=0))), list(map(float, placed.max(axis=0)))]
    header = TraceHeader(layers=layers, heads=heads, d_h=d, tokens_per_frame=n,
                         frame_count=frames, has_positions=n > 1, scene_extent=extent,
                         motion=motion, seed=seed)
    return header, records


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    frames=st.integers(1, 45),  # crosses EPOCH_FRAMES and REVISIT_PERIOD
    tokens_per_frame=st.integers(1, 9),
    layers=st.integers(1, 3),
    heads=st.integers(1, 3),
    d_h=st.integers(1, 8),
    motion=st.sampled_from(["random_walk", "orbit", "revisit"]),
    cluster_spread=st.sampled_from([0.0, 0.25, 1.0]),
    value_drift=st.sampled_from([0.0, 1.0, 2.5]),
)
def test_synth_trace_matches_the_per_token_reference(**cfg):
    header, records = synth_trace(**cfg)
    want_header, want = _reference_synth(**cfg)
    assert header == want_header
    assert len(records) == len(want)
    for got, ref in zip(records, want):
        assert got.frame_idx == ref.frame_idx
        for name in ("data", "positions", "position_mask"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name
