"""Streaming replay of q/k/v traces under different cache policies.

Frames arrive one at a time and are processed in fixed-size chunks: queries
of a chunk attend over the policy's cached tokens plus the chunk itself,
then the policy updates its cache. Every (layer, head) pair is an
independent channel with its own cache state; a chunk's stats row sums over
channels. Replays are deterministic for a given trace and policy, apart
from wall-clock fields.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .attention import attend, build_chunk_mask
from .errors import ConfigError, InvariantViolation, TraceFormatError
from .spatial import VoxelStore
from .temporal import TemporalCache
from .tokens import CacheConfig, FrameTokens, Origin, validate_config
from .traceio import TraceHeader, TraceRecord, read_trace

# Byte accounting convention: cache entries are float16 key+value pairs,
# 2 bytes per scalar, regardless of what the in-memory emulation holds.
BYTES_PER_SCALAR = 2

POLICY_KINDS = ("full", "window", "stac")


@dataclass
class Policy:
    """Which cache scheme a replay uses.

    "full" keeps every past token. "window" keeps the reference frame plus
    the last `window` frames verbatim. "stac" runs the compressed
    spatio-temporal scheme according to `config`.
    """

    kind: str
    window: int = 8
    config: CacheConfig = field(default_factory=CacheConfig)

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind {self.kind!r}, want one of {POLICY_KINDS}")
        if self.kind == "window" and self.window < 0:
            raise ConfigError(f"window must be >= 0, got {self.window}")

    @classmethod
    def full(cls) -> "Policy":
        return cls("full")

    @classmethod
    def sliding(cls, window: int) -> "Policy":
        return cls("window", window=window)

    @classmethod
    def stac(cls, config: Optional[CacheConfig] = None) -> "Policy":
        return cls("stac", config=config if config is not None else CacheConfig())

    def label(self) -> str:
        return f"window:{self.window}" if self.kind == "window" else self.kind


@dataclass
class BudgetSplit:
    """Attendable token budget per channel, split by role."""

    window_tokens: int
    anchor_tokens: int
    retrieve_tokens: int

    @property
    def total(self) -> int:
        return self.window_tokens + self.anchor_tokens + self.retrieve_tokens


def allocate_budget(config: CacheConfig, tokens_per_frame: int) -> BudgetSplit:
    """Split budget_multiplier frames' worth of tokens across the roles.

    Shares are floored individually, so the split can total slightly under
    the nominal budget but never over it.
    """
    if tokens_per_frame < 1:
        raise ConfigError(f"tokens_per_frame must be >= 1, got {tokens_per_frame}")
    total = config.budget_multiplier * tokens_per_frame
    split = BudgetSplit(
        window_tokens=int(math.floor(config.window_frac * total)),
        anchor_tokens=int(math.floor(config.anchor_frac * total)),
        retrieve_tokens=int(math.floor(config.retrieve_frac * total)),
    )
    if config.window_frames * tokens_per_frame > split.window_tokens:
        raise ConfigError(
            f"window_frames={config.window_frames} needs "
            f"{config.window_frames * tokens_per_frame} tokens but the window share "
            f"is {split.window_tokens}"
        )
    return split


# -- per-channel policy implementations ------------------------------------


class _FullChannel:
    """Baseline: the cache is every token seen so far, in arrival order."""

    def __init__(self, d_h: int):
        self.d_h = d_h
        self.key_blocks: list[np.ndarray] = []
        self.value_blocks: list[np.ndarray] = []
        self.cached = 0

    def register(self, frame: FrameTokens) -> None:
        self._append(frame)

    def _append(self, frame: FrameTokens) -> None:
        self.key_blocks.append(np.array(frame.keys))
        self.value_blocks.append(np.array(frame.values))
        self.cached += frame.token_count

    def step(self, frames: list[FrameTokens], vis_positions: np.ndarray, audit: bool) -> dict:
        chunk_q = np.concatenate([f.queries for f in frames])
        chunk_k = np.concatenate([f.keys for f in frames])
        chunk_v = np.concatenate([f.values for f in frames])
        cache_len = self.cached
        keys = np.concatenate(self.key_blocks + [chunk_k])
        values = np.concatenate(self.value_blocks + [chunk_v])
        counts = np.ones(keys.shape[0])
        mask = build_chunk_mask(cache_len, chunk_q.shape[0])
        res = attend(chunk_q, keys, values, counts, mask, self.d_h)
        audits = 0
        if audit:
            _check_mass(res.mass, chunk_q.shape[0])
            audits += 1
        for f in frames:
            self._append(f)
        return _step_result(
            outputs=res.outputs,
            temporal=cache_len,
            spatial=0,
            in_flight=chunk_q.shape[0],
            temporal_end=self.cached,
            spatial_end=0,
            audits=audits,
        )


class _WindowChannel:
    """Baseline: reference frame plus the last `window` frames, verbatim."""

    def __init__(self, d_h: int, window: int):
        self.d_h = d_h
        self.ref_keys: Optional[np.ndarray] = None
        self.ref_values: Optional[np.ndarray] = None
        self.recent: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=window)
        self.window = window

    def register(self, frame: FrameTokens) -> None:
        self.ref_keys = np.array(frame.keys)
        self.ref_values = np.array(frame.values)

    def _cached(self) -> int:
        return self.ref_keys.shape[0] + sum(k.shape[0] for k, _ in self.recent)

    def step(self, frames: list[FrameTokens], vis_positions: np.ndarray, audit: bool) -> dict:
        chunk_q = np.concatenate([f.queries for f in frames])
        chunk_k = np.concatenate([f.keys for f in frames])
        chunk_v = np.concatenate([f.values for f in frames])
        cache_len = self._cached()
        keys = np.concatenate([self.ref_keys] + [k for k, _ in self.recent] + [chunk_k])
        values = np.concatenate([self.ref_values] + [v for _, v in self.recent] + [chunk_v])
        counts = np.ones(keys.shape[0])
        mask = build_chunk_mask(cache_len, chunk_q.shape[0])
        res = attend(chunk_q, keys, values, counts, mask, self.d_h)
        audits = 0
        if audit:
            _check_mass(res.mass, chunk_q.shape[0])
            audits += 1
        for f in frames:
            self.recent.append((np.array(f.keys), np.array(f.values)))
        return _step_result(
            outputs=res.outputs,
            temporal=cache_len,
            spatial=0,
            in_flight=chunk_q.shape[0],
            temporal_end=self._cached(),
            spatial_end=0,
            audits=audits,
        )


class _StacChannel:
    """The compressed scheme: temporal working cache + spatial voxel store."""

    def __init__(self, config: CacheConfig, budget: BudgetSplit, d_h: int, tokens_per_frame: int):
        self.config = config
        self.budget = budget
        self.d_h = d_h
        self.tokens_per_frame = tokens_per_frame
        self.cache = TemporalCache(
            window_frames=config.window_frames,
            anchor_budget=budget.anchor_tokens,
            gamma=config.gamma,
            quantize=config.half_precision,
        )
        self.store = VoxelStore(
            voxel_size=config.voxel_size,
            merge_lambda=config.merge_lambda,
            g_cap=config.g_cap,
            e_cap=config.e_cap,
            knn_radius_mult=config.knn_radius_mult,
            quantize=config.half_precision,
        )
        self.frames_seen = 0
        self.evicted_total = 0

    def register(self, frame: FrameTokens) -> None:
        self.cache.register_reference(frame)
        self.frames_seen = 1

    def step(self, frames: list[FrameTokens], vis_positions: np.ndarray, audit: bool) -> dict:
        n = self.tokens_per_frame
        snap = self.cache.snapshot()
        retrieved = self.store.retrieve(vis_positions, self.budget.retrieve_tokens)
        events_before = dict(self.store.events)

        # Key set in snapshot order: the reference and window frames are
        # concatenated from their cached blocks; only the anchors and the
        # retrieved tokens are stacked one by one.
        chunk_q = np.concatenate([f.queries for f in frames])
        key_blocks, value_blocks = self.cache.frame_blocks()
        framed = len(snap) - self.cache.anchor_count
        anchors = snap[framed:]
        loose = anchors + retrieved
        if loose:
            key_blocks.append(np.stack([t.key for t in loose]))
            value_blocks.append(np.stack([t.value for t in loose]))
        keys = np.concatenate(key_blocks + [f.keys for f in frames])
        values = np.concatenate(value_blocks + [f.values for f in frames])
        counts = np.ones(keys.shape[0])
        counts[framed : framed + len(loose)] = [t.count for t in loose]
        temp_len, spat_len = len(snap), len(retrieved)
        mask = build_chunk_mask(temp_len + spat_len, chunk_q.shape[0])
        res = attend(chunk_q, keys, values, counts, mask, self.d_h)

        spatial_tokens = self.store.token_count
        self.cache.update_scores(res.mass[:temp_len])
        base = temp_len + spat_len
        initial_scores = [res.mass[base + i * n : base + (i + 1) * n] for i in range(len(frames))]
        expelled = self.cache.ingest_frames(frames, initial_scores)
        evicted = self.cache.select_anchors(expelled)
        for token in evicted:
            self.store.insert_evicted(token)
        self.frames_seen += len(frames)
        self.evicted_total += len(evicted)

        audits = 0
        if audit:
            audits = self._audit(
                res.mass, chunk_q.shape[0], snap + retrieved, frames[0].frame_idx,
                anchors, expelled, evicted,
            )

        spat_mass = float(res.mass[temp_len : temp_len + spat_len].sum())
        events_delta = {
            k: self.store.events[k] - events_before[k] for k in self.store.events
        }
        events_delta["evicted"] = len(evicted)
        returned_g = sum(1 for t in retrieved if t.origin is Origin.MERGED)
        return _step_result(
            outputs=res.outputs,
            temporal=temp_len,
            spatial=spatial_tokens,
            in_flight=chunk_q.shape[0],
            temporal_end=self.cache.member_count,
            spatial_end=self.store.token_count,
            audits=audits,
            events=events_delta,
            retrieval=(self.budget.retrieve_tokens, returned_g, len(retrieved) - returned_g),
            spat_mass=spat_mass,
            score_sums=self._score_sums(),
        )

    def _score_sums(self) -> dict:
        ref = self.cache._reference
        window = [t for frame in self.cache._window for t in frame]
        anchors = self.cache._anchors
        return {
            "reference": (sum(t.score for t in ref), len(ref)),
            "window": (sum(t.score for t in window), len(window)),
            "anchor": (sum(t.score for t in anchors), len(anchors)),
        }

    def _audit(self, mass, n_queries, cache_tokens, chunk_lo, prev_anchors, expelled, evicted) -> int:
        _check_mass(mass, n_queries)
        # chunk causality: everything attended from the cache predates the chunk
        for t in cache_tokens:
            if t.id.frame_idx >= chunk_lo:
                raise InvariantViolation(
                    f"cache token {t.id} not older than chunk starting at {chunk_lo}"
                )
        snap = self.cache.snapshot()
        ids = [t.id for t in snap]
        if len(set(ids)) != len(ids):
            raise InvariantViolation("duplicate token id in temporal cache")
        # No evicted token re-enters: window tokens are born from strictly
        # newer frames, so the only way back in is the anchor set, and each
        # new anchor must be an old anchor or an expellee of this chunk that
        # was not evicted. This needs O(budget) memory, not a record of
        # every eviction so far.
        eligible = {t.id for t in prev_anchors}
        eligible.update(t.id for t in expelled)
        eligible.difference_update(t.id for t in evicted)
        hits = [t.id for t in snap[len(snap) - self.cache.anchor_count :] if t.id not in eligible]
        if hits:
            raise InvariantViolation(f"evicted token(s) re-entered the temporal cache: {sorted(hits)[:3]}")
        cfg, budget = self.config, self.budget
        wa_cap = (cfg.window_frac + cfg.anchor_frac) * cfg.budget_multiplier * self.tokens_per_frame
        wa = self.cache.window_token_count + self.cache.anchor_count
        if wa > wa_cap + 1e-9:
            raise InvariantViolation(f"window+anchor tokens {wa} exceed budget share {wa_cap}")
        if self.cache.anchor_count > budget.anchor_tokens:
            raise InvariantViolation(
                f"{self.cache.anchor_count} anchors exceed budget {budget.anchor_tokens}"
            )
        if any(t.score < 0.0 for t in snap):
            raise InvariantViolation("negative score in temporal cache")
        for code, cell in self.store.cells.items():
            if len(cell.long_term) > self.store.g_cap:
                raise InvariantViolation(f"voxel {code} long-term over cap")
            if len(cell.buffer) >= self.store.e_cap:
                raise InvariantViolation(f"voxel {code} buffer not drained at cap")
        accounted = self.cache.member_count + self.store.count_mass
        produced = self.frames_seen * self.tokens_per_frame
        if accounted != produced:
            raise InvariantViolation(
                f"token conservation broken: {accounted} accounted vs {produced} produced"
            )
        return 8


def _check_mass(mass: np.ndarray, n_queries: int) -> None:
    total = float(mass.sum())
    # written so that a NaN total fails the check
    if not (abs(total - n_queries) <= 1e-9 * max(1.0, n_queries)):
        raise InvariantViolation(f"attention mass {total} != query count {n_queries}")


def _step_result(
    outputs,
    temporal,
    spatial,
    in_flight,
    temporal_end,
    spatial_end,
    audits,
    events=None,
    retrieval=(0, 0, 0),
    spat_mass=0.0,
    score_sums=None,
) -> dict:
    return {
        "outputs": outputs,
        "temporal": temporal,
        "spatial": spatial,
        "in_flight": in_flight,
        "temporal_end": temporal_end,
        "spatial_end": spatial_end,
        "audits": audits,
        "events": events or {},
        "retrieval": retrieval,
        "spat_mass": spat_mass,
        "score_sums": score_sums or {},
    }


# -- the replayer -----------------------------------------------------------


@dataclass
class ReplayStats:
    """Everything one replay produced, minus the attention outputs unless asked."""

    policy: str
    header: TraceHeader
    chunk_size: int
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    outputs: Optional[dict[int, np.ndarray]] = None  # frame -> (L, H, N, d_h)

    def canonical_lines(self) -> list[str]:
        """Stats stream as JSON lines with wall-clock fields stripped.

        This is the determinism surface: two replays of the same trace and
        policy must agree on these bytes exactly.
        """
        lines = []
        for row in self.rows:
            r = {k: v for k, v in row.items() if k != "wall_ms"}
            lines.append(json.dumps(r))
        s = {k: v for k, v in self.summary.items() if k not in ("mean_chunk_ms", "total_ms")}
        lines.append(json.dumps(s))
        return lines


class StreamReplayer:
    """Feeds trace records through a policy, one chunk at a time.

    Frame 0 registers as the reference and produces no attention output;
    chunks cover the frames after it. Call feed() per record in frame
    order, then finish() for the stats.
    """

    def __init__(
        self,
        header: TraceHeader,
        policy: Policy,
        chunk_size: Optional[int] = None,
        audit: bool = True,
        collect_outputs: bool = False,
        threads: int = 1,
        stats_sink: Optional[Callable[[dict], None]] = None,
    ):
        if policy.kind == "stac":
            problems = validate_config(policy.config)
            if problems:
                raise ConfigError("; ".join(problems))
            self.budget = allocate_budget(policy.config, header.tokens_per_frame)
        else:
            self.budget = None
        if chunk_size is None:
            chunk_size = policy.config.chunk_size if policy.kind == "stac" else 4
        if chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        if threads < 1:
            raise ConfigError(f"threads must be >= 1, got {threads}")
        self.header = header
        self.policy = policy
        self.chunk_size = chunk_size
        self.audit = audit
        self.stats_sink = stats_sink
        self.channels = [
            self._make_channel() for _ in range(header.layers * header.heads)
        ]
        self.outputs: Optional[dict[int, np.ndarray]] = {} if collect_outputs else None
        self.rows: list[dict] = []
        self._pending: list[TraceRecord] = []
        self._frames_seen = 0
        self._peak_total = 0
        self._final_total = 0
        self._audits_checked = 0
        self._event_totals = {
            "evicted": 0, "fused": 0, "buffered": 0, "aggregated": 0,
            "re_merged": 0, "dropped": 0,
        }
        self._t0 = time.perf_counter()
        self._pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
        self._finished = False

    def _make_channel(self):
        h = self.header
        if self.policy.kind == "full":
            return _FullChannel(h.d_h)
        if self.policy.kind == "window":
            return _WindowChannel(h.d_h, self.policy.window)
        return _StacChannel(self.policy.config, self.budget, h.d_h, h.tokens_per_frame)

    def feed(self, record: TraceRecord) -> Optional[dict]:
        """Accept the next frame; returns a chunk row when one completes."""
        if self._finished:
            raise InvariantViolation("feed after finish")
        if record.frame_idx != self._frames_seen:
            raise TraceFormatError(
                f"expected frame {self._frames_seen}, got {record.frame_idx}"
            )
        self._frames_seen += 1
        if record.frame_idx == 0:
            for li in range(self.header.layers):
                for hi in range(self.header.heads):
                    self.channels[li * self.header.heads + hi].register(record.channel(li, hi))
            return None
        self._pending.append(record)
        if len(self._pending) == self.chunk_size:
            return self.process_chunk(self._pending)
        return None

    def process_chunk(self, records: list[TraceRecord]) -> dict:
        """Attend one chunk on every channel and update the caches."""
        if not records:
            raise InvariantViolation("process_chunk with no records")
        t0 = time.perf_counter()
        h = self.header
        frame_lo, frame_hi = records[0].frame_idx, records[-1].frame_idx
        vis = np.concatenate([r.positions[r.position_mask] for r in records]) \
            if any(r.position_mask.any() for r in records) else np.zeros((0, 3))

        jobs = []
        for li in range(h.layers):
            for hi in range(h.heads):
                channel = self.channels[li * h.heads + hi]
                frames = [r.channel(li, hi) for r in records]
                jobs.append((channel, frames))
        if self._pool is not None:
            results = list(
                self._pool.map(lambda job: job[0].step(job[1], vis, self.audit), jobs)
            )
        else:
            results = [ch.step(frames, vis, self.audit) for ch, frames in jobs]

        if self.outputs is not None:
            n, d = h.tokens_per_frame, h.d_h
            for fi, record in enumerate(records):
                out = np.empty((h.layers, h.heads, n, d))
                for ci, res in enumerate(results):
                    out[ci // h.heads, ci % h.heads] = res["outputs"][fi * n : (fi + 1) * n]
                self.outputs[record.frame_idx] = out

        row = self._build_row(results, frame_lo, frame_hi, t0)
        self.rows.append(row)
        if self.stats_sink is not None:
            self.stats_sink(row)
        self._pending = []
        return row

    def _build_row(self, results: list[dict], frame_lo: int, frame_hi: int, t0: float) -> dict:
        temporal = sum(r["temporal"] for r in results)
        spatial = sum(r["spatial"] for r in results)
        in_flight = sum(r["in_flight"] for r in results)
        total = temporal + spatial + in_flight
        total_end = sum(r["temporal_end"] + r["spatial_end"] for r in results)
        self._peak_total = max(self._peak_total, total, total_end)
        self._final_total = total_end
        self._audits_checked += sum(r["audits"] for r in results)
        events = dict.fromkeys(self._event_totals, 0)
        for r in results:
            for k, v in r["events"].items():
                events[k] += v
        for k, v in events.items():
            self._event_totals[k] += v
        requested = sum(r["retrieval"][0] for r in results)
        returned_g = sum(r["retrieval"][1] for r in results)
        returned_e = sum(r["retrieval"][2] for r in results)
        n_queries = in_flight
        spat_frac = sum(r["spat_mass"] for r in results) / n_queries if n_queries else 0.0
        score_means = {"reference": 0.0, "window": 0.0, "anchor": 0.0}
        for group in score_means:
            s = sum(r["score_sums"].get(group, (0.0, 0))[0] for r in results)
            c = sum(r["score_sums"].get(group, (0.0, 0))[1] for r in results)
            score_means[group] = s / c if c else 0.0
        return {
            "type": "chunk",
            "chunk": len(self.rows),
            "frame_lo": frame_lo,
            "frame_hi": frame_hi,
            "frames_seen": frame_hi + 1,
            "temporal": temporal,
            "spatial": spatial,
            "in_flight": in_flight,
            "total": total,
            "total_end": total_end,
            "bytes": total * self.header.d_h * BYTES_PER_SCALAR * 2,
            "events": events,
            "retrieval": {"requested": requested, "returned_g": returned_g, "returned_e": returned_e},
            "spatial_mass_frac": spat_frac,
            "score_means": score_means,
            "wall_ms": (time.perf_counter() - t0) * 1e3,
        }

    def finish(self) -> ReplayStats:
        """Flush any partial chunk and assemble the final stats."""
        if self._finished:
            raise InvariantViolation("finish called twice")
        if self._pending:
            self.process_chunk(self._pending)
        self._finished = True
        if self._pool is not None:
            self._pool.shutdown()
        h = self.header
        channels = h.layers * h.heads
        full_tokens = self._frames_seen * h.tokens_per_frame * channels
        elapsed = time.perf_counter() - self._t0
        half_sats = 0
        for ch in self.channels:
            if isinstance(ch, _StacChannel):
                half_sats += ch.cache.half_saturations + ch.store.half_saturations
        summary = {
            "type": "summary",
            "policy": self.policy.label(),
            "frames": self._frames_seen,
            "tokens_per_frame": h.tokens_per_frame,
            "layers": h.layers,
            "heads": h.heads,
            "d_h": h.d_h,
            "channels": channels,
            "chunk_size": self.chunk_size,
            "chunks": len(self.rows),
            "peak_total_tokens": self._peak_total,
            "peak_bytes": self._peak_total * h.d_h * BYTES_PER_SCALAR * 2,
            "final_total_tokens": self._final_total,
            "full_cache_tokens": full_tokens,
            "compression_ratio": full_tokens / self._peak_total if self._peak_total else 0.0,
            "events": dict(self._event_totals),
            "half_saturations": half_sats,
            "audits_checked": self._audits_checked,
            "mean_chunk_ms": sum(r["wall_ms"] for r in self.rows) / len(self.rows) if self.rows else 0.0,
            "total_ms": elapsed * 1e3,
        }
        if self.stats_sink is not None:
            self.stats_sink(summary)
        return ReplayStats(
            policy=self.policy.label(),
            header=h,
            chunk_size=self.chunk_size,
            rows=self.rows,
            summary=summary,
            outputs=self.outputs,
        )


TraceSource = Union[str, tuple[TraceHeader, Iterable[TraceRecord]]]


def _open_source(trace: TraceSource) -> tuple[TraceHeader, Iterable[TraceRecord]]:
    if isinstance(trace, str):
        return read_trace(trace)
    header, records = trace
    return header, records


def run_stream(
    trace: TraceSource,
    policy: Policy,
    chunk_size: Optional[int] = None,
    audit: bool = True,
    collect_outputs: bool = False,
    threads: int = 1,
    stats_sink: Optional[Callable[[dict], None]] = None,
) -> ReplayStats:
    """Replay a whole trace (path, or header+records) under one policy."""
    header, records = _open_source(trace)
    replayer = StreamReplayer(
        header,
        policy,
        chunk_size=chunk_size,
        audit=audit,
        collect_outputs=collect_outputs,
        threads=threads,
        stats_sink=stats_sink,
    )
    for record in records:
        replayer.feed(record)
    return replayer.finish()


# -- divergence ------------------------------------------------------------


def _frame_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Mean per-query cosine between two (..., N, d_h) output blocks.

    Zero-against-zero rows count as 1 (identical), zero-against-nonzero
    as 0; attention outputs are rarely exactly zero, but the metric must
    not blow up when they are.
    """
    ar = a.reshape(-1, a.shape[-1])
    br = b.reshape(-1, b.shape[-1])
    na = np.linalg.norm(ar, axis=1)
    nb = np.linalg.norm(br, axis=1)
    denom = na * nb
    dots = (ar * br).sum(axis=1)
    cos = np.ones(ar.shape[0])
    ok = denom > 0.0
    cos[ok] = np.clip(dots[ok] / denom[ok], -1.0, 1.0)
    cos[(na > 0.0) != (nb > 0.0)] = 0.0
    return float(cos.mean())


def _frame_rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    num = float(np.linalg.norm(a - b))
    den = float(np.linalg.norm(a))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def divergence_report(stats_a: ReplayStats, stats_b: ReplayStats) -> dict:
    """Per-frame and aggregate attention-output divergence of b against a."""
    if stats_a.outputs is None or stats_b.outputs is None:
        raise ConfigError("divergence needs replays run with collect_outputs=True")
    frames_a, frames_b = set(stats_a.outputs), set(stats_b.outputs)
    if frames_a != frames_b:
        raise ConfigError("replays cover different frames; use the same trace and chunking")
    h = stats_a.header
    per_frame = []
    chan_cos = np.zeros((h.layers, h.heads))
    chan_rel = np.zeros((h.layers, h.heads))
    for f in sorted(frames_a):
        a, b = stats_a.outputs[f], stats_b.outputs[f]
        per_frame.append(
            {"frame": f, "cosine": _frame_cosine(a, b), "rel_l2": _frame_rel_l2(a, b)}
        )
        for li in range(h.layers):
            for hi in range(h.heads):
                chan_cos[li, hi] += _frame_cosine(a[li, hi], b[li, hi])
                chan_rel[li, hi] += _frame_rel_l2(a[li, hi], b[li, hi])
    n = max(1, len(per_frame))
    per_channel = [
        {
            "layer": li,
            "head": hi,
            "mean_cosine": chan_cos[li, hi] / n,
            "mean_rel_l2": chan_rel[li, hi] / n,
        }
        for li in range(h.layers)
        for hi in range(h.heads)
    ]
    return {
        "type": "divergence",
        "policy_a": stats_a.policy,
        "policy_b": stats_b.policy,
        "per_frame": per_frame,
        "per_channel": per_channel,
        "overall": {
            "mean_cosine": sum(r["cosine"] for r in per_frame) / n,
            "mean_rel_l2": sum(r["rel_l2"] for r in per_frame) / n,
            "max_rel_l2": max((r["rel_l2"] for r in per_frame), default=0.0),
        },
        "summary_a": stats_a.summary,
        "summary_b": stats_b.summary,
    }


def compare(
    trace: TraceSource,
    policy_a: Policy,
    policy_b: Policy,
    chunk_size: Optional[int] = None,
    audit: bool = True,
    threads: int = 1,
) -> dict:
    """Replay under two policies and report their output divergence.

    Both replays use identical chunk boundaries (required for the outputs
    to be comparable); with a path or a reusable record list the trace is
    simply traversed twice.
    """
    if chunk_size is None:
        sizes = {
            p.config.chunk_size for p in (policy_a, policy_b) if p.kind == "stac"
        }
        if len(sizes) > 1:
            raise ConfigError(f"policies disagree on chunk_size {sorted(sizes)}; pass one explicitly")
        chunk_size = sizes.pop() if sizes else 4
    if not isinstance(trace, str):
        header, records = trace
        if not isinstance(records, (list, tuple)):
            trace = (header, list(records))  # the trace is traversed twice
    stats_a = run_stream(
        trace, policy_a, chunk_size=chunk_size, audit=audit,
        collect_outputs=True, threads=threads,
    )
    stats_b = run_stream(
        trace, policy_b, chunk_size=chunk_size, audit=audit,
        collect_outputs=True, threads=threads,
    )
    return divergence_report(stats_a, stats_b)
