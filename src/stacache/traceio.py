"""Reading, writing, and synthesizing per-frame query/key/value traces.

A trace is the replay harness's stand-in for a live model: for every frame
it carries the projected q/k/v of each (layer, head) channel plus one
optional 3-D point per token. Two encodings share one logical format: a
length-prefixed binary container for real use and a JSON-lines text form
for small fixtures. Both round-trip float64 exactly.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, asdict
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import DimensionError, TraceFormatError
from .tokens import FrameTokens

MAGIC = b"KVTRACE0"
VERSION = 1

# Synthetic-scene geometry. Keys cluster by spatial region: every region of
# edge REGION_SIZE owns one key/value archetype per channel, so tokens from
# revisited places look alike to the caches. Sizes are chosen against the
# published voxel edge of 0.05 so a default-config replay sees a few
# hundred cells, not tens of thousands.
REGION_SIZE = 0.2
VIEW_RADIUS = 0.05
ORBIT_RADIUS = 0.15
WALK_STEP = 0.02
WALK_BOX = 0.3
REVISIT_PERIOD = 40
EPOCH_FRAMES = 20


@dataclass
class TraceHeader:
    """Fixed per-trace geometry; every record must agree with it."""

    layers: int
    heads: int
    d_h: int
    tokens_per_frame: int
    frame_count: int
    has_positions: bool = True
    scene_extent: Optional[list[list[float]]] = None  # [[min xyz], [max xyz]]
    motion: Optional[str] = None
    seed: Optional[int] = None
    version: int = VERSION


@dataclass
class TraceRecord:
    """One frame: data[layer, head, 0|1|2] are the N x d_h q/k/v matrices."""

    frame_idx: int
    data: np.ndarray          # (L, H, 3, N, d_h) float64
    positions: np.ndarray     # (N, 3) float64, zero rows where absent
    position_mask: np.ndarray  # (N,) bool

    def channel(self, layer: int, head: int) -> FrameTokens:
        return FrameTokens(
            frame_idx=self.frame_idx,
            queries=self.data[layer, head, 0],
            keys=self.data[layer, head, 1],
            values=self.data[layer, head, 2],
            positions=self.positions,
            position_mask=self.position_mask,
        )


def _expected_shapes(header: TraceHeader) -> tuple[tuple[int, ...], int]:
    # Python ints: a product of header fields must not wrap around
    shape = (header.layers, header.heads, 3, header.tokens_per_frame, header.d_h)
    n = header.tokens_per_frame
    payload = 8 + math.prod(shape) * 8 + (n + 7) // 8 + n * 3 * 8
    return shape, payload


def _check_header(header: TraceHeader) -> None:
    if isinstance(header.version, bool) or header.version != VERSION:
        raise TraceFormatError(f"unsupported trace version {header.version!r}")
    for name in ("layers", "heads", "d_h", "tokens_per_frame", "frame_count"):
        v = getattr(header, name)
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise TraceFormatError(f"header field {name} must be a positive int, got {v!r}")


def _check_fits(header: TraceHeader, file_size: int) -> None:
    # Both encodings spend at least one byte per value, so a record needs at
    # least as many bytes as it has values; a header that claims more than
    # the whole file holds is rejected before anything is sized from it.
    shape, _ = _expected_shapes(header)
    values = math.prod(shape) + 3 * header.tokens_per_frame
    if values > file_size:
        raise TraceFormatError(
            f"header claims {values} values per record but the file has {file_size} bytes"
        )


# -- binary encoding ------------------------------------------------------


def _encode_record(record: TraceRecord, header: TraceHeader) -> bytes:
    shape, _ = _expected_shapes(header)
    data = np.ascontiguousarray(record.data, dtype=np.float64)
    if data.shape != shape:
        raise TraceFormatError(
            f"record {record.frame_idx}: data shape {data.shape}, expected {shape}"
        )
    n = header.tokens_per_frame
    mask = np.asarray(record.position_mask, dtype=bool)
    pos = np.where(mask[:, None], np.asarray(record.positions, dtype=np.float64), 0.0)
    if mask.shape != (n,) or pos.shape != (n, 3):
        raise TraceFormatError(f"record {record.frame_idx}: bad positions shape")
    payload = b"".join(
        (
            int(record.frame_idx).to_bytes(8, "little"),
            data.tobytes(),
            np.packbits(mask, bitorder="little").tobytes(),
            np.ascontiguousarray(pos).tobytes(),
        )
    )
    return len(payload).to_bytes(8, "little") + payload


def _decode_record(payload: bytes, index: int, header: TraceHeader) -> TraceRecord:
    shape, expected = _expected_shapes(header)
    if len(payload) != expected:
        raise TraceFormatError(
            f"record {index}: payload of {len(payload)} bytes, expected {expected}"
        )
    n = header.tokens_per_frame
    frame_idx = int.from_bytes(payload[:8], "little")
    off = 8
    nbytes = math.prod(shape) * 8
    data = np.frombuffer(payload[off : off + nbytes], dtype="<f8").reshape(shape).copy()
    off += nbytes
    bm = (n + 7) // 8
    mask = np.unpackbits(
        np.frombuffer(payload[off : off + bm], dtype=np.uint8), bitorder="little"
    )[:n].astype(bool)
    off += bm
    pos = np.frombuffer(payload[off : off + n * 3 * 8], dtype="<f8").reshape(n, 3).copy()
    _check_finite(data, pos, mask, index)
    return TraceRecord(frame_idx, data, pos, mask)


def _check_finite(data: np.ndarray, pos: np.ndarray, mask: np.ndarray, index: int) -> None:
    # One NaN or inf in q/k/v or in a real position would otherwise flow
    # into every statistic; rows with a False mask are junk and not read.
    if not np.isfinite(data).all():
        raise TraceFormatError(f"record {index}: non-finite q/k/v value")
    if not np.isfinite(pos[mask]).all():
        raise TraceFormatError(f"record {index}: non-finite position")


# -- text encoding --------------------------------------------------------


def _record_to_json(record: TraceRecord) -> str:
    pos = [
        list(map(float, record.positions[i])) if record.position_mask[i] else None
        for i in range(record.positions.shape[0])
    ]
    return json.dumps(
        {"frame_idx": int(record.frame_idx), "data": record.data.tolist(), "positions": pos}
    )


def _record_from_json(obj: dict, index: int, header: TraceHeader) -> TraceRecord:
    shape, _ = _expected_shapes(header)
    n = header.tokens_per_frame
    try:
        frame_idx = obj["frame_idx"]
        raw_pos = obj["positions"]
        data = np.asarray(obj["data"], dtype=np.float64)
        if not isinstance(raw_pos, list) or len(raw_pos) != n:
            raise TraceFormatError(f"record {index}: positions must be a list of {n} entries")
        mask = np.array([p is not None for p in raw_pos], dtype=bool)
        pos = np.array([(0.0, 0.0, 0.0) if p is None else p for p in raw_pos], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise TraceFormatError(f"record {index}: malformed record object ({e})") from e
    if not isinstance(frame_idx, int) or isinstance(frame_idx, bool):
        raise TraceFormatError(f"record {index}: frame_idx must be an int, got {frame_idx!r}")
    if data.shape != shape:
        raise TraceFormatError(f"record {index}: data shape {data.shape}, expected {shape}")
    if pos.shape != (n, 3):
        raise TraceFormatError(f"record {index}: positions must be null or 3 numbers each")
    _check_finite(data, pos, mask, index)
    return TraceRecord(frame_idx, data, pos, mask)


# -- public io ------------------------------------------------------------


def write_trace(
    path: str,
    header: TraceHeader,
    records: Iterable[TraceRecord],
    text: bool = False,
) -> None:
    """Serialize a whole trace; record count must match the header."""
    _check_header(header)
    written = 0
    if text:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"magic": MAGIC.decode(), **asdict(header)}) + "\n")
            for record in records:
                f.write(_record_to_json(record) + "\n")
                written += 1
    else:
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write((json.dumps(asdict(header)) + "\n").encode("utf-8"))
            for record in records:
                f.write(_encode_record(record, header))
                written += 1
    if written != header.frame_count:
        raise TraceFormatError(
            f"wrote {written} records but header declares {header.frame_count}"
        )


def read_trace(path: str) -> tuple[TraceHeader, Iterator[TraceRecord]]:
    """Open a trace and return its header plus a validating record iterator.

    The iterator checks payload sizes, detects truncation, and requires
    frame indices to run exactly 0 .. frame_count-1. Binary or text is
    sniffed from the first bytes of the file. The iterator owns the open
    file: it closes it when exhausted, on a format error, and on `close()`,
    whether or not a record has been read yet.
    """
    f = open(path, "rb")
    try:
        size = os.fstat(f.fileno()).st_size
        head = f.read(len(MAGIC))
        if head == MAGIC:
            header = _parse_header_obj(_load_json_line(f.readline(), "header"))
            records = _iter_binary(f, header)
        elif head[:1] == b"{":
            f.seek(0)
            # undecodable bytes become U+FFFD and then fail as bad JSON
            tf = io.TextIOWrapper(f, encoding="utf-8", errors="replace")
            obj = _load_json_line(tf.readline(), "header")
            if obj.pop("magic", None) != MAGIC.decode():
                raise TraceFormatError("text trace missing magic field")
            header = _parse_header_obj(obj)
            records = _iter_text(tf, header)
        else:
            raise TraceFormatError(f"bad magic {head!r}")
        _check_fits(header, size)
        # Run the generator to its priming yield, inside its try: from here
        # on its close(), explicit or by garbage collection, closes the file.
        # An unstarted generator's close() would skip its finally.
        next(records)
        return header, records
    except BaseException:
        f.close()
        raise


def _load_json_line(line, what: str) -> dict:
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    # ValueError also covers an int literal past the digit limit, and deep
    # nesting raises RecursionError
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as e:
        raise TraceFormatError(f"unparseable {what} line ({e})") from e
    if not isinstance(obj, dict):
        raise TraceFormatError(f"{what} line is not an object")
    return obj


def _parse_header_obj(obj: dict) -> TraceHeader:
    try:
        header = TraceHeader(**obj)
    except TypeError as e:
        raise TraceFormatError(f"bad header fields ({e})") from e
    _check_header(header)
    return header


def _iter_binary(f: io.BufferedReader, header: TraceHeader) -> Iterator[TraceRecord]:
    _, expected = _expected_shapes(header)
    try:
        yield None  # the priming yield, see read_trace
        for index in range(header.frame_count):
            prefix = f.read(8)
            if len(prefix) < 8:
                raise TraceFormatError(f"truncated at record {index}: missing length prefix")
            length = int.from_bytes(prefix, "little")
            if length != expected:
                raise TraceFormatError(
                    f"record {index}: payload of {length} bytes, expected {expected}"
                )
            payload = f.read(length)
            if len(payload) < length:
                raise TraceFormatError(f"truncated at record {index}: short payload")
            record = _decode_record(payload, index, header)
            if record.frame_idx != index:
                raise TraceFormatError(
                    f"record {index}: frame_idx {record.frame_idx} out of order"
                )
            yield record
        if f.read(1):
            raise TraceFormatError(f"trailing bytes after {header.frame_count} records")
    finally:
        f.close()


def _iter_text(f: io.TextIOWrapper, header: TraceHeader) -> Iterator[TraceRecord]:
    try:
        yield None  # the priming yield, see read_trace
        for index in range(header.frame_count):
            line = f.readline()
            if not line.strip():
                raise TraceFormatError(f"truncated at record {index}: missing line")
            record = _record_from_json(_load_json_line(line, "record"), index, header)
            if record.frame_idx != index:
                raise TraceFormatError(
                    f"record {index}: frame_idx {record.frame_idx} out of order"
                )
            yield record
        if f.readline().strip():
            raise TraceFormatError(f"trailing data after {header.frame_count} records")
    finally:
        f.close()


# -- synthesis ------------------------------------------------------------


def synth_trace(
    seed: int,
    frames: int,
    tokens_per_frame: int = 16,
    layers: int = 1,
    heads: int = 1,
    d_h: int = 16,
    motion: str = "revisit",
    cluster_spread: float = 0.25,
    value_drift: float = 1.0,
) -> tuple[TraceHeader, list[TraceRecord]]:
    """Deterministic synthetic stream with spatial key structure.

    A camera moves through a small scene (random_walk bounces in a box,
    orbit makes one loop, revisit loops with a fixed period so old places
    come back into view). Token 0 of every frame is a pose token without a
    position; the rest scatter around the camera point. Keys and queries
    of a token are its region's archetype vector plus cluster_spread times
    unit noise, so same-region tokens merge under the published cosine
    threshold and queries prefer keys from their own region, however old.
    Values get an extra per-epoch component of magnitude value_drift
    (EPOCH_FRAMES frames per epoch): the same place looks different on a
    later visit, which is what makes discarded history observable in the
    attention outputs.
    """
    if frames < 1 or tokens_per_frame < 1 or layers < 1 or heads < 1 or d_h < 1:
        raise DimensionError("frames, tokens_per_frame, layers, heads, d_h must be >= 1")
    if motion not in ("random_walk", "orbit", "revisit"):
        raise DimensionError(f"unknown motion {motion!r}")
    if cluster_spread < 0.0:
        raise DimensionError(f"cluster_spread must be >= 0, got {cluster_spread}")
    if value_drift < 0.0:
        raise DimensionError(f"value_drift must be >= 0, got {value_drift}")

    rng = np.random.default_rng(seed)
    centers = _camera_path(motion, frames, rng)
    n, d = tokens_per_frame, d_h
    archetypes: dict[tuple, np.ndarray] = {}

    def archetype(kind: int, layer: int, head: int, region: tuple) -> np.ndarray:
        key = (kind, layer, head, region)
        vec = archetypes.get(key)
        if vec is None:
            bias = 1 << 20
            entropy = [seed, kind, layer, head] + [r + bias for r in region]
            vec = np.random.default_rng(entropy).standard_normal(d)
            archetypes[key] = vec
        return vec

    cam_region = (0, 0, 0)  # pose tokens share one global archetype family
    records: list[TraceRecord] = []
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
    header = TraceHeader(
        layers=layers,
        heads=heads,
        d_h=d,
        tokens_per_frame=n,
        frame_count=frames,
        has_positions=n > 1,
        scene_extent=extent,
        motion=motion,
        seed=seed,
    )
    return header, records


def _camera_path(motion: str, frames: int, rng: np.random.Generator) -> np.ndarray:
    centers = np.zeros((frames, 3))
    if motion == "random_walk":
        pos = np.zeros(3)
        for t in range(frames):
            pos = pos + rng.normal(0.0, WALK_STEP, size=3)
            # reflect into [-WALK_BOX, WALK_BOX] so the scene stays bounded
            pos = WALK_BOX - np.abs((pos + WALK_BOX) % (4 * WALK_BOX) - 2 * WALK_BOX)
            centers[t] = pos
    else:
        period = frames if motion == "orbit" else REVISIT_PERIOD
        theta = 2.0 * np.pi * (np.arange(frames) % period) / period
        centers[:, 0] = ORBIT_RADIUS * np.cos(theta)
        centers[:, 1] = ORBIT_RADIUS * np.sin(theta)
        centers[:, 2] = 0.05 * np.sin(2.0 * theta)
    return centers
