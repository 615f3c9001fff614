"""Trace container round-trips, validation errors, and the synthesizer."""

import json
from pathlib import Path

import numpy as np
import pytest

from stacache import (
    TraceFormatError,
    TraceHeader,
    TraceRecord,
    read_trace,
    synth_trace,
    voxel_of,
    write_trace,
)
from stacache.traceio import MAGIC, REVISIT_PERIOD


def _small_trace(seed=5, frames=6, tokens=5, layers=2, heads=2, d_h=3):
    return synth_trace(
        seed=seed, frames=frames, tokens_per_frame=tokens,
        layers=layers, heads=heads, d_h=d_h, motion="random_walk",
    )


def _assert_records_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.frame_idx == w.frame_idx
        assert np.array_equal(g.data, w.data)
        assert np.array_equal(g.position_mask, w.position_mask)
        # absent rows are normalized to zero on write
        masked = np.where(w.position_mask[:, None], w.positions, 0.0)
        assert np.array_equal(g.positions, masked)


def test_binary_roundtrip_is_exact(tmp_path):
    header, records = _small_trace()
    path = str(tmp_path / "t.kvtrace")
    write_trace(path, header, records)
    got_header, it = read_trace(path)
    assert got_header == header
    _assert_records_equal(list(it), records)


def test_text_roundtrip_is_exact(tmp_path):
    header, records = _small_trace()
    path = str(tmp_path / "t.jsonl")
    write_trace(path, header, records, text=True)
    got_header, it = read_trace(path)
    assert got_header == header
    _assert_records_equal(list(it), records)


def test_magic_sniffing(tmp_path):
    header, records = _small_trace(frames=2)
    b = str(tmp_path / "b.kvtrace")
    t = str(tmp_path / "t.jsonl")
    write_trace(b, header, records)
    write_trace(t, header, records, text=True)
    with open(b, "rb") as f:
        assert f.read(8) == MAGIC
    for path in (b, t):
        h, it = read_trace(path)
        assert h.frame_count == 2
        list(it)


def _retitled(tmp_path, text, **fields):
    """A valid two-frame trace whose header line claims the given fields."""
    header, records = _small_trace(frames=2)
    path = tmp_path / ("t.jsonl" if text else "t.kvtrace")
    write_trace(str(path), header, records, text=text)
    data = path.read_bytes()
    start = 0 if text else len(MAGIC)
    end = data.index(b"\n")
    claim = json.loads(data[start:end])
    claim.update(fields)
    path.write_bytes(data[:start] + json.dumps(claim).encode() + data[end:])
    return str(path)


@pytest.mark.parametrize("text", [False, True])
@pytest.mark.parametrize("fields, needle", [
    # L*H*3*N*d_h wraps to 0 in int64: the record would be expected to be
    # 33 bytes long and the replayer would build 2^62 channels
    pytest.param(dict(layers=2**31, heads=2**31, d_h=4, tokens_per_frame=1),
                 "values per record", id="wrapping-size"),
    pytest.param(dict(tokens_per_frame=10**6), "values per record", id="larger-than-file"),
    pytest.param(dict(layers=True), "positive int", id="bool-layers"),
    pytest.param(dict(frame_count=True), "positive int", id="bool-frames"),
    pytest.param(dict(version=True), "version", id="bool-version"),
])
def test_absurd_header_is_rejected_before_any_record(tmp_path, text, fields, needle):
    with pytest.raises(TraceFormatError, match=needle):
        read_trace(_retitled(tmp_path, text, **fields))


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTATRACE" + b"\x00" * 64)
    with pytest.raises(TraceFormatError, match="magic"):
        read_trace(str(path))


@pytest.mark.parametrize("line", [b'{"a": ' + b"[" * 100_000, b'{"a": ' + b"1" * 5000 + b"}"],
                         ids=["deep-nesting", "long-int"])
def test_json_the_parser_refuses_is_trace_error(tmp_path, line):
    # json.loads raises RecursionError and a digit-limit ValueError here
    header, records = _small_trace(frames=2)
    text = tmp_path / "t.jsonl"
    write_trace(str(text), header, records, text=True)
    lines = text.read_bytes().splitlines()
    binary = tmp_path / "t.kvtrace"
    binary.write_bytes(MAGIC + line + b"\n")
    with pytest.raises(TraceFormatError, match="unparseable header"):
        read_trace(str(binary))
    text.write_bytes(line + b"\n")
    with pytest.raises(TraceFormatError, match="unparseable header"):
        read_trace(str(text))
    text.write_bytes(b"\n".join([lines[0], line, lines[2]]) + b"\n")
    _, it = read_trace(str(text))
    with pytest.raises(TraceFormatError, match="unparseable record"):
        list(it)


@pytest.mark.parametrize("frame_idx", ["Infinity", "1.0", '"1"', "true"])
def test_text_frame_index_must_be_an_int(tmp_path, frame_idx):
    # int() used to take all but the first (OverflowError) as frame 1
    header, records = _small_trace(frames=2)
    path = tmp_path / "t.jsonl"
    write_trace(str(path), header, records, text=True)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace('"frame_idx": 1', '"frame_idx": ' + frame_idx, 1)
    path.write_text("\n".join(lines) + "\n")
    _, it = read_trace(str(path))
    with pytest.raises(TraceFormatError, match="record 1"):
        list(it)


def test_version_mismatch_raises(tmp_path):
    header, records = _small_trace(frames=2)
    path = str(tmp_path / "t.jsonl")
    write_trace(path, header, records, text=True)
    lines = Path(path).read_text().splitlines()
    obj = json.loads(lines[0])
    obj["version"] = 99
    lines[0] = json.dumps(obj)
    Path(path).write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match="version"):
        read_trace(str(path))


def test_truncation_reports_record_index(tmp_path):
    header, records = _small_trace(frames=4)
    path = str(tmp_path / "t.kvtrace")
    write_trace(path, header, records)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[: len(blob) - 40])
    h, it = read_trace(path)
    with pytest.raises(TraceFormatError, match="record 3"):
        list(it)


def test_shape_mismatch_detected(tmp_path):
    # a header that disagrees with the payload sizes must be rejected
    header, records = _small_trace(frames=3)
    path = str(tmp_path / "t.kvtrace")
    write_trace(path, header, records)
    blob = Path(path).read_bytes()
    nl = blob.index(b"\n")
    obj = json.loads(blob[8:nl])
    obj["d_h"] += 1
    new = MAGIC + json.dumps(obj).encode() + b"\n" + blob[nl + 1 :]
    Path(path).write_bytes(new)
    h, it = read_trace(path)
    with pytest.raises(TraceFormatError, match="record 0"):
        list(it)


@pytest.mark.parametrize("text", [False, True])
@pytest.mark.parametrize("where", ["data", "position"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected_at_decode(tmp_path, text, where, bad):
    header, records = _small_trace(frames=3)
    if where == "data":
        records[2].data[1, 0, 2, 3, 1] = bad
    else:
        records[2].positions[np.flatnonzero(records[2].position_mask)[0], 2] = bad
    path = str(tmp_path / "t.kvtrace")
    write_trace(path, header, records, text=text)
    h, it = read_trace(path)
    got = [next(it), next(it)]  # earlier records still decode
    assert [r.frame_idx for r in got] == [0, 1]
    with pytest.raises(TraceFormatError, match="record 2: non-finite"):
        next(it)


def test_out_of_order_frames_rejected(tmp_path):
    header, records = _small_trace(frames=3)
    records[1], records[2] = records[2], records[1]
    path = str(tmp_path / "t.kvtrace")
    write_trace(path, header, records)
    h, it = read_trace(path)
    with pytest.raises(TraceFormatError, match="out of order"):
        list(it)


def test_record_count_must_match_header(tmp_path):
    header, records = _small_trace(frames=4)
    header.frame_count = 5
    with pytest.raises(TraceFormatError, match="declares 5"):
        write_trace(str(tmp_path / "t.kvtrace"), header, records)


def test_trailing_bytes_rejected(tmp_path):
    header, records = _small_trace(frames=2)
    path = str(tmp_path / "t.kvtrace")
    write_trace(path, header, records)
    with open(path, "ab") as f:
        f.write(b"\x01")
    h, it = read_trace(path)
    with pytest.raises(TraceFormatError, match="trailing"):
        list(it)


def test_synth_is_deterministic(tmp_path):
    h1, r1 = synth_trace(seed=9, frames=5, tokens_per_frame=4, d_h=4)
    h2, r2 = synth_trace(seed=9, frames=5, tokens_per_frame=4, d_h=4)
    assert h1 == h2
    _assert_records_equal(r1, r2)
    h3, r3 = synth_trace(seed=10, frames=5, tokens_per_frame=4, d_h=4)
    assert not np.array_equal(r1[0].data, r3[0].data)


def test_synth_pose_token_has_no_position():
    _, records = synth_trace(seed=1, frames=4, tokens_per_frame=6, d_h=4)
    for r in records:
        assert not r.position_mask[0]
        assert r.position_mask[1:].all()


def test_synth_scene_extent_bounds_positions():
    header, records = synth_trace(seed=2, frames=10, tokens_per_frame=8, d_h=4)
    lo, hi = np.array(header.scene_extent[0]), np.array(header.scene_extent[1])
    for r in records:
        placed = r.positions[r.position_mask]
        assert (placed >= lo - 1e-12).all()
        assert (placed <= hi + 1e-12).all()


def test_revisit_motion_returns_to_old_voxels():
    _, records = synth_trace(seed=3, frames=100, tokens_per_frame=16, d_h=8, motion="revisit")
    def voxels(r):
        return {voxel_of(p, 0.05) for p in r.positions[r.position_mask]}
    early = voxels(records[10])
    late = voxels(records[10 + REVISIT_PERIOD * 2])
    assert early & late


def test_zero_spread_makes_same_region_keys_identical():
    _, records = synth_trace(
        seed=4, frames=3, tokens_per_frame=8, d_h=6, motion="revisit", cluster_spread=0.0
    )
    r = records[0]
    from stacache.traceio import REGION_SIZE

    regions = {}
    for j in range(1, 8):
        reg = tuple(np.floor(r.positions[j] / REGION_SIZE).astype(int))
        regions.setdefault(reg, []).append(j)
    shared = [idxs for idxs in regions.values() if len(idxs) > 1]
    assert shared, "expected at least one region with two tokens"
    for idxs in shared:
        base = r.data[0, 0, 1, idxs[0]]
        for j in idxs[1:]:
            assert np.array_equal(r.data[0, 0, 1, j], base)


def test_synth_argument_validation():
    from stacache import DimensionError

    with pytest.raises(DimensionError):
        synth_trace(seed=0, frames=0)
    with pytest.raises(DimensionError):
        synth_trace(seed=0, frames=2, motion="teleport")
    with pytest.raises(DimensionError):
        synth_trace(seed=0, frames=2, cluster_spread=-1.0)
