"""In-memory span tracing around the calls into each stacache module.

The tracer patches functions and methods from the outside; nothing in
`src/` knows it exists. A span is `[name, start, end, parent, chunk, attrs]`
with `parent` an index into the span list (-1 for a root) and `chunk` the
id of the `StreamReplayer.process_chunk` call it ran under (-1 outside any
chunk). Spans stay in memory until the caller writes them out.

`VoxelStore.insert_evicted` runs once per evicted token (about 240k calls a
pass), so consecutive inserts under one parent fold into a single span that
carries a call count.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT, CHUNK, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.unhooked: list[str] = []
        self._stack: list[int] = []
        self._chunk = -1
        self._chunks = 0
        self._fold: dict[int, int] = {}   # parent span -> open folded child
        self._patches: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._fold.pop(parent, None)   # a sibling ends any fold before it
        span = [name, 0.0, 0.0, parent, self._chunk, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._fold.pop(self._stack.pop(), None)

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.unhooked.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def _span_wrapper(self, name: str, note=None, chunk_root: bool = False):
        def make(original):
            def wrapper(*args, **kwargs):
                if chunk_root:
                    outer = self._chunk
                    self._chunk = self._chunks
                    self._chunks += 1
                span = self._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(span)
                    if chunk_root:
                        self._chunk = outer
                if note is not None:
                    span[ATTRS] = note(args, result)
                return result
            return wrapper
        return make

    def _folded_wrapper(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                parent = self._stack[-1] if self._stack else -1
                index = self._fold.get(parent)
                if index is None:
                    span = self._open(name)
                    span[ATTRS] = Counter()
                    self._fold[parent] = self._stack[-1]
                else:
                    span = self.spans[index]
                    self._stack.append(index)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(span)
                span[ATTRS]["calls"] += 1
                span[ATTRS][str(result)] += 1
                return result
            return wrapper
        return make

    # -- installation -----------------------------------------------------

    def install(self, stacache) -> None:
        """Wrap the calls into traceio, attention, temporal, spatial, pipeline."""
        pipeline = stacache.pipeline
        wrap = self._span_wrapper
        self._patch(pipeline.StreamReplayer, "process_chunk", wrap("pipeline.chunk", chunk_root=True))
        for cls in vars(pipeline).values():
            if inspect.isclass(cls) and cls.__module__ == pipeline.__name__ and "step" in vars(cls):
                self._patch(cls, "step", wrap("pipeline.step"))
                if "_audit" in vars(cls):
                    self._patch(cls, "_audit", wrap("pipeline.audit"))
        self._patch(pipeline, "_check_mass", wrap("pipeline.check_mass"))
        self._patch(pipeline, "divergence_report", wrap("pipeline.divergence", note=_outputs_bytes))
        self._patch(pipeline, "attend", wrap("attention.attend", note=_attend_shape))

        cache = stacache.TemporalCache
        self._patch(cache, "update_scores", wrap("temporal.update_scores"))
        self._patch(cache, "ingest_frames", wrap("temporal.ingest", note=lambda a, r: {"expelled": len(r)}))
        self._patch(cache, "select_anchors", wrap("temporal.select_anchors"))
        self._patch(cache, "snapshot", wrap("temporal.snapshot"))

        store = stacache.VoxelStore
        self._patch(store, "insert_evicted", self._folded_wrapper("spatial.insert"))
        self._patch(store, "aggregate", wrap("spatial.aggregate"))
        self._patch(store, "re_merge", wrap("spatial.re_merge"))
        self._patch(store, "retrieve", wrap(
            "spatial.retrieve", note=lambda a, r: {"requested": a[2], "returned": len(r)}))

        # compare() opens its trace through pipeline.read_trace; the
        # benchmark's own replay loop goes through the package attribute.
        for owner in (pipeline, stacache):
            self._patch(owner, "read_trace", self._timed_reader)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _timed_reader(self, original):
        def read_trace(path):
            header, records = original(path)
            return header, self._timed_records(records)
        return read_trace

    def _timed_records(self, records):
        it = iter(records)
        try:
            while True:
                span = self._open("traceio.decode")
                try:
                    record = next(it)
                except StopIteration:
                    span[ATTRS] = {"bytes": 0}
                    return
                finally:
                    self._close(span)
                span[ATTRS] = {"bytes": record.data.nbytes + record.positions.nbytes
                               + record.position_mask.nbytes}
                yield record
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()


def _attend_shape(args, result) -> dict:
    # Works for (Q, d) and batched (C, Q, d) operands alike.
    queries, keys = args[0], args[1]
    batch = queries.size // (queries.shape[-2] * queries.shape[-1])
    return {"q": queries.shape[-2], "k": keys.shape[-2], "d": keys.shape[-1], "batch": batch}


def _outputs_bytes(args, result) -> dict:
    total = 0
    for stats in args[:2]:
        outputs = getattr(stats, "outputs", None) or {}
        total += sum(block.nbytes for block in outputs.values())
    return {"outputs_bytes": total}


# -- analysis ---------------------------------------------------------------

# Which per-layer bucket each span's self time lands in. Every span name the
# tracer emits appears here, so the buckets partition each chunk's time.
SELF_TIME_METRIC = {
    "pipeline.chunk": "pipeline.row_ms",
    "pipeline.step": "pipeline.assemble_ms",
    "pipeline.audit": "pipeline.audit_ms",
    "pipeline.check_mass": "pipeline.audit_ms",
    "pipeline.divergence": "pipeline.divergence_ms",
    "attention.attend": "attention.attend_ms",
    "temporal.update_scores": "temporal.update_scores_ms",
    "temporal.ingest": "temporal.ingest_ms",
    "temporal.select_anchors": "temporal.select_anchors_ms",
    "temporal.snapshot": "temporal.snapshot_ms",
    "spatial.insert": "spatial.insert_ms",
    "spatial.aggregate": "spatial.aggregate_ms",
    "spatial.re_merge": "spatial.re_merge_ms",
    "spatial.retrieve": "spatial.retrieve_ms",
    "traceio.decode": "traceio.decode_ms",
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children, in s."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def layer_metrics(spans: list[list], rows: list[dict]) -> dict[str, float]:
    """Per-layer figures from one traced pass.

    `rows` are the chunk rows of the pass's cache policy (not of `full`);
    they supply the retrieved share of attention mass and the store size.
    """
    own = self_times(spans)
    out = dict.fromkeys(set(SELF_TIME_METRIC.values()), 0.0)
    count = Counter()
    attrs = defaultdict(float)
    steps_by_chunk = defaultdict(list)
    for span, t in zip(spans, own):
        name = span[NAME]
        out[SELF_TIME_METRIC[name]] += t * 1e3
        count[name] += 1
        a = span[ATTRS]
        if name == "attention.attend":
            attrs["keys"] += a["k"] * a["batch"]
            attrs["channel_calls"] += a["batch"]
            attrs["flop"] += 4.0 * a["q"] * a["k"] * a["d"] * a["batch"]
        elif name == "spatial.insert":
            attrs["inserts"] += a["calls"]
            attrs["fused"] += a["fused"]
        elif name == "spatial.retrieve":
            attrs["requested"] += a["requested"]
            attrs["returned"] += a["returned"]
        elif name == "temporal.ingest":
            attrs["expelled"] += a["expelled"]
        elif name == "pipeline.divergence":
            attrs["outputs_bytes"] += a["outputs_bytes"]
        elif name == "traceio.decode":
            attrs["records"] += a["bytes"] > 0
            attrs["decoded_bytes"] += a["bytes"]
        elif name == "pipeline.step":
            steps_by_chunk[span[CHUNK]].append(span[END] - span[START])

    skews = [max(d) / (sum(d) / len(d)) for d in steps_by_chunk.values() if sum(d) > 0]
    gflop = attrs["flop"] / 1e9
    in_flight = sum(r["in_flight"] for r in rows)
    out.update({
        "spatial.inserts": attrs["inserts"],
        "spatial.fuse_frac": _ratio(attrs["fused"], attrs["inserts"]),
        "spatial.aggregates": count["spatial.aggregate"],
        "spatial.re_merges": count["spatial.re_merge"],
        "spatial.retrieve_fill": _ratio(attrs["returned"], attrs["requested"]),
        "spatial.mass_frac": _ratio(
            sum(r["spatial_mass_frac"] * r["in_flight"] for r in rows), in_flight),
        "spatial.store_tokens": max((r["spatial"] for r in rows), default=0),
        "temporal.expelled": attrs["expelled"],
        "attention.calls": count["attention.attend"],
        "attention.keys_per_call": _ratio(attrs["keys"], attrs["channel_calls"]),
        "attention.gflop": gflop,
        "attention.gflop_per_s": _ratio(gflop, out["attention.attend_ms"] / 1e3),
        "pipeline.channel_skew": _ratio(sum(skews), len(skews)),
        "pipeline.outputs_mb": attrs["outputs_bytes"] / 2**20,
        "traceio.records": attrs["records"],
        "traceio.decoded_mb": attrs["decoded_bytes"] / 2**20,
    })
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
