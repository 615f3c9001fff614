"""Fuzzing the trace reader: a damaged file reads as finite records or fails
as TraceFormatError, within memory bounded by the file's size."""

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stacache import TraceFormatError, read_trace, synth_trace, write_trace
from stacache.traceio import MAGIC

HEADER_FIELDS = ("layers", "heads", "d_h", "tokens_per_frame", "frame_count", "version")
ABSURD = st.one_of(
    st.sampled_from([0, -1, 2**31, 2**32, 2**62, -(2**62), True, False, None, 1.5, "2", [1]]),
    st.integers(-(2**62), 2**62),
)
# Reading may hold a record a few times over (the payload and the arrays
# decoded from it); the constant covers the interpreter's own bookkeeping. Over 6,000
# examples on these 2-4 KB files the traced peak stayed under 27 KB.
BYTES_PER_FILE_BYTE = 8
SLACK_BYTES = 64 * 1024


def _clean_trace(tmp_path_factory, text: bool) -> tuple[bytes, int]:
    """A small valid trace as bytes, and where its header line ends.

    With text, the trace is in the JSON-lines form that earlier versions
    also read: a header object, then one object per record.
    """
    header, records = synth_trace(seed=3, frames=4, tokens_per_frame=3, layers=1, heads=2,
                                  d_h=2, motion="random_walk")
    if text:
        lines = [asdict(header)] + [
            {"frame_idx": r.frame_idx, "data": r.data.tolist(),
             "positions": [list(p) if m else None for p, m in zip(r.positions.tolist(),
                                                                  r.position_mask)]}
            for r in records
        ]
        blob = "".join(json.dumps(line) + "\n" for line in lines).encode()
    else:
        path = tmp_path_factory.mktemp("clean") / "t"
        write_trace(str(path), header, records)
        blob = path.read_bytes()
    return blob, blob.index(b"\n") + 1


def _with_header_field(blob: bytes, header_end: int, text: bool, field: str, value) -> bytes:
    start = 0 if text else len(MAGIC)
    obj = json.loads(blob[start:header_end])
    obj[field] = value
    return blob[:start] + json.dumps(obj).encode() + b"\n" + blob[header_end:]


@st.composite
def damage(draw, blob: bytes, header_end: int, text: bool) -> bytes:
    """Absurd header fields, byte flips in the header and the records, and
    a truncation, each drawn or not."""
    for field in draw(st.lists(st.sampled_from(HEADER_FIELDS), max_size=2)):
        blob = _with_header_field(blob, header_end, text, field, draw(ABSURD))
        header_end = blob.index(b"\n") + 1
    flips = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 2**16), st.integers(1, 255)),
                          max_size=3))
    out = bytearray(blob)
    for in_header, at, mask in flips:
        lo, hi = (0, header_end) if in_header else (header_end, len(out))
        if hi > lo:
            out[lo + at % (hi - lo)] ^= mask
    if draw(st.booleans()):
        del out[draw(st.integers(0, len(out))):]
    return bytes(out)


def _read_everything(path: str) -> int:
    """Reads the whole trace, checking every record; returns the count."""
    header, records = read_trace(path)
    shape = (header.layers, header.heads, 3, header.tokens_per_frame, header.d_h)
    n = 0
    for record in records:
        assert record.data.shape == shape and record.positions.shape == (shape[3], 3)
        assert np.isfinite(record.data).all()
        assert np.isfinite(record.positions[record.position_mask]).all()
        n += 1
    return n


# text: a JSON-lines trace is not a trace, so however damaged it must fail
# at the magic, before any of it is parsed
@pytest.mark.parametrize("text", [False, True], ids=["binary", "text"])
def test_damaged_trace_reads_finite_or_fails_as_trace_error(tmp_path_factory, text):
    blob, header_end = _clean_trace(tmp_path_factory, text)
    path = tmp_path_factory.mktemp("fuzz") / "t"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(damaged=damage(blob, header_end, text))
    def check(damaged):
        path.write_bytes(damaged)
        tracemalloc.start()
        try:
            try:
                _read_everything(str(path))
            except TraceFormatError as e:
                assert not text or "bad magic" in str(e), e
            else:
                assert not text, "a JSON-lines file read as a trace"
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= BYTES_PER_FILE_BYTE * len(damaged) + SLACK_BYTES

    path.write_bytes(blob)
    if text:
        with pytest.raises(TraceFormatError, match="bad magic"):
            _read_everything(str(path))
    else:
        assert _read_everything(str(path)) == 4  # the undamaged trace reads whole
    check()

