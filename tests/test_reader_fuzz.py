"""Fuzzing the trace reader: a damaged file reads as finite records or fails
as TraceFormatError, within memory bounded by the file's size."""

import json
import re
import tracemalloc

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
# Reading may hold a record a few times over (payload, parsed JSON, the
# arrays); the constant covers the interpreter's own bookkeeping. Over 6,000
# examples on these 2-4 KB files the traced peak stayed under 27 KB.
BYTES_PER_FILE_BYTE = 8
SLACK_BYTES = 64 * 1024


def _clean_trace(tmp_path_factory, text: bool) -> tuple[bytes, int]:
    """A small valid trace as bytes, and where its header line ends."""
    header, records = synth_trace(seed=3, frames=4, tokens_per_frame=3, layers=1, heads=2,
                                  d_h=2, motion="random_walk")
    path = tmp_path_factory.mktemp("clean") / "t"
    write_trace(str(path), header, records, text=text)
    blob = path.read_bytes()
    return blob, blob.index(b"\n") + 1


def _with_header_field(blob: bytes, header_end: int, text: bool, field: str, value) -> bytes:
    start = 0 if text else len(MAGIC)
    obj = json.loads(blob[start:header_end])
    obj[field] = value
    return blob[:start] + json.dumps(obj).encode() + b"\n" + blob[header_end:]


# a JSON number in a record line: frame_idx, a q/k/v value or a coordinate
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


@st.composite
def damage(draw, blob: bytes, header_end: int, text: bool) -> tuple[bytes, bool]:
    """Absurd header fields, byte flips in the header and the records, a
    quoted number in a text record, and a truncation, each drawn or not.

    Returns the damaged file and whether it must fail to read: a quoted
    number is a string, never a number, whatever else is damaged.
    """
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
    numbers = list(NUMBER.finditer(out, header_end)) if text else []
    quoted = bool(numbers) and draw(st.booleans())
    if quoted:
        m = numbers[draw(st.integers(0, len(numbers) - 1))]
        out[m.start():m.end()] = b'"' + m.group() + b'"'
    if draw(st.booleans()):
        # cutting only the final newline leaves every record, quote included
        del out[draw(st.integers(0, len(out))):]
    return bytes(out), quoted


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


@pytest.mark.parametrize("text", [False, True], ids=["binary", "text"])
def test_damaged_trace_reads_finite_or_fails_as_trace_error(tmp_path_factory, text):
    blob, header_end = _clean_trace(tmp_path_factory, text)
    path = tmp_path_factory.mktemp("fuzz") / "t"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=damage(blob, header_end, text))
    def check(case):
        damaged, must_fail = case
        path.write_bytes(damaged)
        tracemalloc.start()
        try:
            try:
                _read_everything(str(path))
            except TraceFormatError:
                pass
            else:
                assert not must_fail, "a quoted number read as a number"
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= BYTES_PER_FILE_BYTE * len(damaged) + SLACK_BYTES

    path.write_bytes(blob)
    assert _read_everything(str(path)) == 4  # the undamaged trace reads whole
    check()



def test_every_quoted_number_fails_as_trace_error(tmp_path_factory):
    # The fuzzer's other damage usually fails a file by itself; here each
    # number of the clean text trace is quoted alone, one file each.
    blob, header_end = _clean_trace(tmp_path_factory, text=True)
    path = tmp_path_factory.mktemp("quoted") / "t"
    numbers = list(NUMBER.finditer(blob, header_end))
    assert len(numbers) == 4 * (1 + 2 * 3 * 3 * 2 + 2 * 3)  # frame_idx, q/k/v, coordinates
    for m in numbers:
        path.write_bytes(blob[:m.start()] + b'"' + m.group() + b'"' + blob[m.end():])
        with pytest.raises(TraceFormatError, match="record"):
            _read_everything(str(path))
