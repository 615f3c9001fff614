"""Streaming replay of q/k/v traces under different cache policies.

Frames arrive one at a time and are processed in fixed-size chunks: queries
of a chunk attend over the policy's cached tokens plus the chunk itself,
then the policy updates its cache. Every (layer, head) pair is an
independent channel with its own cache state; a chunk's stats row sums over
channels. Under `stac` the channels share one voxel store, which keeps
their cells apart and takes a chunk's evictees from every channel in one
insertion. Replays are deterministic for a given trace and policy, apart
from wall-clock fields.
"""

from __future__ import annotations

import json
import math
import mmap
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from .attention import Workspace, attend
from .errors import ConfigError, InvariantViolation, TraceFormatError
from .spatial import EVENTS, VoxelStore
from .temporal import TemporalCache
from .tokens import CacheConfig, FrameTokens, TokenBlock, validate_config
from .traceio import TraceHeader, TraceRecord, read_trace

# Byte accounting convention: cache entries are float16 key+value pairs,
# 2 bytes per scalar, regardless of what the in-memory emulation holds.
BYTES_PER_SCALAR = 2

POLICY_KINDS = ("full", "window", "stac")

# Frames per attention chunk when a replay is given none, for every policy.
DEFAULT_CHUNK_SIZE = 4


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


def allocate_budget(config: CacheConfig, tokens_per_frame: int) -> BudgetSplit:
    """Split budget_multiplier frames' worth of tokens across the roles.

    Shares are floored individually, so the split can total slightly under
    the nominal budget but never over it.
    """
    if tokens_per_frame < 1:
        raise ConfigError(f"tokens_per_frame must be >= 1, got {tokens_per_frame}")
    total = config.budget_multiplier * tokens_per_frame
    if not math.isfinite(total):
        raise ConfigError(
            f"budget_multiplier={config.budget_multiplier} x {tokens_per_frame} tokens "
            f"is not a finite budget"
        )
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


def _mapped_rows(rows: int, d_h: int) -> np.ndarray:
    """An uninitialised (rows, d_h) float64 array in an anonymous mapping.

    The array owns its mapping, so dropping its last view unmaps the pages
    at once. A heap buffer this large may come from malloc's arena (after
    large frees have raised its mmap threshold), and then freeing it leaves
    the pages resident for the next allocation. Untouched pages of a
    mapping are never resident. mmap cannot map zero bytes, so an empty
    array stays on the heap.
    """
    if rows == 0:
        return np.empty((0, d_h))
    return np.frombuffer(mmap.mmap(-1, rows * d_h * 8), dtype=np.float64).reshape(rows, d_h)


class _VerbatimChannel:
    """Baseline: the reference frame plus the last `window` frames, verbatim.

    `window=None` keeps every frame (the `full` policy). Rows live in one
    append-only key/value buffer, reference first, so a step attends over a
    prefix slice in arrival order; a window moves its last frames down
    behind the reference after each step. A window's buffer is sized once,
    for the reference, the window and one chunk, where the header's frame
    count caps both the window and the chunk. The `full` buffer doubles
    when full instead, so a header that declares an absurd frame count
    cannot turn into an allocation. Every buffer is a memory mapping of its
    own (`_mapped_rows`), so an outgrown one goes back to the OS when
    dropped.

    A step returns its outputs, 0.0 for the mass on retrieved rows and no
    evictees: these policies keep no voxel store. `held` is the number of
    rows the channel attends from its cache, and `audits` counts the mass
    checks it ran.
    """

    def __init__(self, d_h: int, window: Optional[int], tokens_per_frame: int,
                 chunk_size: int, frame_count: int, workspace: Workspace):
        self.d_h = d_h
        self.window = window
        self.tokens_per_frame = tokens_per_frame
        rows = 0
        if window is not None:
            rows = (1 + min(window, frame_count) + min(chunk_size, frame_count)) * tokens_per_frame
        self.keys = _mapped_rows(rows, d_h)
        self.values = _mapped_rows(rows, d_h)
        self.ref_len = 0
        self.held = 0
        self.audits = 0
        self.workspace = workspace

    def register(self, frame: FrameTokens) -> None:
        self.ref_len = self._append([frame])
        self.held = self.ref_len

    def _append(self, frames: list[FrameTokens]) -> int:
        """Write the frames' rows after the held ones; returns the new end."""
        end = self.held + sum(f.token_count for f in frames)
        if end > self.keys.shape[0]:
            rows = max(end, 2 * self.keys.shape[0])
            keys, values = _mapped_rows(rows, self.d_h), _mapped_rows(rows, self.d_h)
            keys[: self.held] = self.keys[: self.held]
            values[: self.held] = self.values[: self.held]
            self.keys, self.values = keys, values
        row = self.held
        for f in frames:
            self.keys[row : row + f.token_count] = f.keys
            self.values[row : row + f.token_count] = f.values
            row += f.token_count
        return end

    def step(self, frames: list[FrameTokens], retrieved: Optional[TokenBlock],
             audit: bool) -> tuple[np.ndarray, float, None]:
        # retrieved is always None: these policies keep no voxel store
        chunk_q = np.concatenate([f.queries for f in frames])
        end = self._append(frames)
        res = attend(chunk_q, self.keys[:end], self.values[:end], np.ones(end), self.d_h,
                     workspace=self.workspace)
        if audit:
            _check_mass(res.mass, chunk_q.shape[0])
            self.audits += 1
        if self.window is None:
            self.held = end
        else:
            kept = min(end - self.ref_len, self.window * self.tokens_per_frame)
            self.held = self.ref_len + kept
            self.keys[self.ref_len : self.held] = self.keys[end - kept : end]
            self.values[self.ref_len : self.held] = self.values[end - kept : end]
        return res.outputs, 0.0, None


class _StacChannel:
    """The compressed scheme: temporal working cache + spatial voxel store.

    The channel owns its temporal cache and is `channel` in the replay's
    shared voxel store. The replayer retrieves every channel's rows from
    the store once per chunk and hands each step its own. A step returns
    its outputs, the attention mass that fell on the retrieved rows and the
    chunk's evicted rows; the replayer inserts every channel's at once,
    then calls `_audit_store`. `held` is the temporal cache's member count,
    `score_sums` its sequential score sums by group, and `audits` counts
    the checks the channel ran.
    """

    def __init__(self, config: CacheConfig, budget: BudgetSplit, d_h: int, tokens_per_frame: int,
                 store: VoxelStore, channel: int, workspace: Workspace):
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
        self.store = store
        self.channel = channel
        self.workspace = workspace
        self.frames_seen = 0
        self.audits = 0

    @property
    def held(self) -> int:
        return self.cache.member_count

    def register(self, frame: FrameTokens) -> None:
        self.cache.register_reference(frame)
        self.frames_seen = 1

    def step(self, frames: list[FrameTokens], retrieved: TokenBlock,
             audit: bool) -> tuple[np.ndarray, float, TokenBlock]:
        n = self.tokens_per_frame
        members = self.cache.blocks()
        anchors = members[-1]  # as attended; selection replaces the block

        # Key set in snapshot order (reference, window, anchors), then the
        # retrieved rows, then the chunk; each part is one block of rows.
        chunk_q = np.concatenate([f.queries for f in frames])
        attended = [*members, retrieved] if len(retrieved) else members
        keys = np.concatenate([b.keys for b in attended] + [f.keys for f in frames])
        values = np.concatenate([b.values for b in attended] + [f.values for f in frames])
        temp_len, spat_len = sum(len(b) for b in members), len(retrieved)
        counts = np.ones(keys.shape[0])
        counts[temp_len : temp_len + spat_len] = retrieved.counts
        res = attend(chunk_q, keys, values, counts, self.d_h, workspace=self.workspace)

        self.cache.update_scores(res.mass[:temp_len])
        base = temp_len + spat_len
        initial_scores = [res.mass[base + i * n : base + (i + 1) * n] for i in range(len(frames))]
        expelled = self.cache.ingest_frames(frames, initial_scores)
        evicted = self.cache.select_anchors(expelled)
        self.frames_seen += len(frames)

        if audit:
            self._audit(res.mass, chunk_q.shape[0], attended, frames[0].frame_idx,
                        anchors, expelled, evicted)

        # Only outputs, a scalar and the evicted rows outlive the step: the
        # key set is freed before any other channel attends, and the
        # attention weights stay in the replay's workspace for the next
        # channel to overwrite.
        return res.outputs, float(res.mass[temp_len : temp_len + spat_len].sum()), evicted

    def score_sums(self) -> dict:
        # Sequential float sums over each group's scores in member order.
        ref, anchors = self.cache._reference, self.cache._anchors
        window_scores = [s for b in self.cache._window for s in b.scores.tolist()]
        return {
            "reference": (sum(ref.scores.tolist()), len(ref)),
            "window": (sum(window_scores), len(window_scores)),
            "anchor": (sum(anchors.scores.tolist()), len(anchors)),
        }

    def _audit(self, mass, n_queries, attended, chunk_lo, prev_anchors, expelled, evicted) -> None:
        """The checks that do not depend on the voxel store, before insertion."""
        _check_mass(mass, n_queries)
        # chunk causality: everything attended from the cache predates the chunk
        for block in attended:
            late = np.flatnonzero(block.frames >= chunk_lo)
            if late.size:
                raise InvariantViolation(
                    f"cache token {block.take(late[:1]).ids()[0]} not older than "
                    f"chunk starting at {chunk_lo}"
                )
        members = self.cache.blocks()
        ids = np.sort(_id_codes(members))
        if (ids[1:] == ids[:-1]).any():
            raise InvariantViolation("duplicate token id in temporal cache")
        # No evicted token re-enters: window tokens are born from strictly
        # newer frames, so the only way back in is the anchor set, and each
        # new anchor must be an old anchor or an expellee of this chunk that
        # was not evicted. This needs O(budget) memory, not a record of
        # every eviction so far.
        eligible = set(_id_codes([prev_anchors, expelled]).tolist())
        eligible.difference_update(_id_codes([evicted]).tolist())
        anchors = members[-1]
        back = [i for i, c in enumerate(_id_codes([anchors]).tolist()) if c not in eligible]
        if back:
            hits = sorted(anchors.take(back).ids())
            raise InvariantViolation(f"evicted token(s) re-entered the temporal cache: {hits[:3]}")
        cfg, budget = self.config, self.budget
        wa_cap = (cfg.window_frac + cfg.anchor_frac) * cfg.budget_multiplier * self.tokens_per_frame
        wa = self.cache.window_token_count + self.cache.anchor_count
        if wa > wa_cap + 1e-9:
            raise InvariantViolation(f"window+anchor tokens {wa} exceed budget share {wa_cap}")
        if self.cache.anchor_count > budget.anchor_tokens:
            raise InvariantViolation(
                f"{self.cache.anchor_count} anchors exceed budget {budget.anchor_tokens}"
            )
        if any((b.scores < 0.0).any() for b in members):
            raise InvariantViolation("negative score in temporal cache")
        self.audits += 6

    def _audit_store(self) -> None:
        """The voxel-store checks, after the chunk's insertion.

        Only cells the insertion touched can have changed, so only this
        channel's touched cells are checked against the caps. Conservation
        is per channel: tokens produced equal the temporal members plus the
        channel's count mass in the store.
        """
        store = self.store
        cells = store.touched[self.channel]
        for over, what in ((store.lt_len[cells] > store.g_cap, "long-term over cap"),
                           (store.buf_len[cells] >= store.e_cap, "buffer not drained at cap")):
            if over.any():
                raise InvariantViolation(f"voxel {store.cell_keys[cells[over.argmax()]]} {what}")
        accounted = self.cache.member_count + int(store.count_masses[self.channel])
        produced = self.frames_seen * self.tokens_per_frame
        if accounted != produced:
            raise InvariantViolation(
                f"token conservation broken: {accounted} accounted vs {produced} produced"
            )
        self.audits += 2


def _id_codes(blocks: list[TokenBlock]) -> np.ndarray:
    # One int64 per (frame, token) id; temporal ids are non-negative and
    # below 2^31, so the code is unique.
    return np.concatenate([(b.frames << 32) | b.tokens for b in blocks])


def _visible_token(records: list[TraceRecord], i: int) -> str:
    # The frame and token of row i of the chunk's visible positions, which
    # are the records' masked positions concatenated in record order.
    for r in records:
        tokens = np.flatnonzero(r.position_mask)
        if i < tokens.size:
            return f"frame {r.frame_idx}, token {tokens[i]}"
        i -= tokens.size


def _check_mass(mass: np.ndarray, n_queries: int) -> None:
    total = float(mass.sum())
    # written so that a NaN total fails the check
    if not (abs(total - n_queries) <= 1e-9 * max(1.0, n_queries)):
        raise InvariantViolation(f"attention mass {total} != query count {n_queries}")


# -- the replayer -----------------------------------------------------------


@dataclass
class ReplayStats:
    """Everything one replay produced except its attention outputs."""

    policy: str
    header: TraceHeader
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

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
    order, then finish() for the stats. `outputs` holds the attention
    outputs of the chunk processed last, frame -> (L, H, N, d_h); each chunk
    replaces them, so a replay keeps O(chunk) of them.

    `process_chunk` counts each chunk's row. A step reports its outputs,
    the mass on its retrieved rows and its evictees; every other figure
    comes from the channels' `held`, `audits` and `score_sums()`, from the
    retrieved blocks, and from the store's per-channel `token_counts` and
    `channel_events`.
    """

    def __init__(
        self,
        header: TraceHeader,
        policy: Policy,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        audit: bool = True,
        stats_sink: Optional[Callable[[dict], None]] = None,
    ):
        if policy.kind == "stac":
            problems = validate_config(policy.config)
            if problems:
                raise ConfigError("; ".join(problems))
            self.budget = allocate_budget(policy.config, header.tokens_per_frame)
        else:
            self.budget = None
        if chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        self.header = header
        self.policy = policy
        self.chunk_size = chunk_size
        self.audit = audit
        self.stats_sink = stats_sink
        n_channels = header.layers * header.heads
        self.store: Optional[VoxelStore] = None
        if policy.kind == "stac":
            config = policy.config
            self.store = VoxelStore(
                voxel_size=config.voxel_size,
                merge_lambda=config.merge_lambda,
                g_cap=config.g_cap,
                e_cap=config.e_cap,
                knn_radius_mult=config.knn_radius_mult,
                quantize=config.half_precision,
                channels=n_channels,
            )
        # Channel steps run one after another, so they all attend through one
        # workspace; one per channel would pin C copies of the largest Q x K
        # (C x 31.6 MB under `full` at K of about 15k). It lives as long as
        # the replayer, not the process, and replays in other threads have
        # their own.
        self.workspace = Workspace()
        self.channels = [self._make_channel(ci) for ci in range(n_channels)]
        self.outputs: dict[int, np.ndarray] = {}
        self.rows: list[dict] = []
        self._pending: list[TraceRecord] = []
        self._frames_seen = 0
        self._peak_total = 0
        self._final_total = 0
        self._event_totals = dict.fromkeys(("evicted", *EVENTS), 0)
        self._t0 = time.perf_counter()
        self._finished = False

    def _make_channel(self, channel: int):
        h = self.header
        if self.policy.kind != "stac":
            window = self.policy.window if self.policy.kind == "window" else None
            return _VerbatimChannel(h.d_h, window, h.tokens_per_frame, self.chunk_size,
                                    h.frame_count, self.workspace)
        return _StacChannel(self.policy.config, self.budget, h.d_h, h.tokens_per_frame,
                            self.store, channel, self.workspace)

    def feed(self, record: TraceRecord) -> Optional[dict]:
        """Accept the next frame; returns a chunk row when one completes."""
        if self._finished:
            raise InvariantViolation("feed after finish")
        if record.frame_idx != self._frames_seen:
            raise TraceFormatError(
                f"expected frame {self._frames_seen}, got {record.frame_idx}"
            )
        h = self.header
        n = h.tokens_per_frame
        for name, want in (("data", (h.layers, h.heads, 3, n, h.d_h)),
                           ("positions", (n, 3)), ("position_mask", (n,))):
            got = getattr(record, name).shape
            if got != want:
                raise TraceFormatError(
                    f"frame {record.frame_idx}: {name} has shape {got}, the header wants {want}"
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
        """Attend one chunk on every channel, update the caches, and count
        the chunk in its stats row; this is the only place a row is made."""
        if not records:
            raise InvariantViolation("process_chunk with no records")
        t0 = time.perf_counter()
        h, store, channels = self.header, self.store, self.channels
        temporal = sum(ch.held for ch in channels)
        spatial = spatial_end = 0
        in_flight = len(channels) * len(records) * h.tokens_per_frame
        events = dict.fromkeys(self._event_totals, 0)
        retrieval = dict.fromkeys(("requested", "returned_g", "returned_e"), 0)
        score_means = dict.fromkeys(("reference", "window", "anchor"), 0.0)
        retrieved = [None] * len(channels)
        if store is not None:
            spatial = int(store.token_counts.sum())
            events_before = store.channel_events.sum(0)
            # One retrieval per chunk serves every channel: the store is the
            # same for all of them until the chunk's insertion.
            vis = np.concatenate([r.positions[r.position_mask] for r in records]) \
                if any(r.position_mask.any() for r in records) else np.zeros((0, 3))
            retrieved = store.retrieve(vis, self.budget.retrieve_tokens,
                                       where=lambda i: _visible_token(records, i))
            returned_g = sum(int((b.frames == -1).sum()) for b in retrieved)
            retrieval = {"requested": len(channels) * self.budget.retrieve_tokens,
                         "returned_g": returned_g,
                         "returned_e": sum(len(b) for b in retrieved) - returned_g}

        # The last chunk's outputs go before this chunk's block is made, and
        # each step's are copied in as it returns: one block is alive at once.
        self.outputs = {}
        frames, n, d = len(records), h.tokens_per_frame, h.d_h
        out = np.empty((frames, h.layers, h.heads, n, d))
        spat_mass, evicted = 0.0, []
        for ci, (li, hi) in enumerate(np.ndindex(h.layers, h.heads)):
            outputs, mass, evictees = channels[ci].step(
                [r.channel(li, hi) for r in records], retrieved[ci], self.audit)
            retrieved[ci] = None  # spent: each channel's rows go as its step ends
            out[:, li, hi] = outputs.reshape(frames, n, d)
            spat_mass += mass
            evicted.append(evictees)
        self.outputs = {r.frame_idx: o for r, o in zip(records, out)}

        if store is not None:
            # One insertion of every channel's evictees, then the store audits.
            sizes = [len(e) for e in evicted]
            store.insert_evicted(TokenBlock.concat(evicted), np.repeat(np.arange(len(sizes)), sizes))
            if self.audit:
                for ch in channels:
                    ch._audit_store()
            delta = (store.channel_events.sum(0) - events_before).tolist()
            events = {"evicted": sum(sizes), **dict(zip(EVENTS, delta))}
            spatial_end = int(store.token_counts.sum())
            sums = [ch.score_sums() for ch in channels]
            for group in score_means:
                count = sum(s[group][1] for s in sums)
                if count:
                    score_means[group] = sum(s[group][0] for s in sums) / count

        total = temporal + spatial + in_flight
        total_end = sum(ch.held for ch in channels) + spatial_end
        self._peak_total = max(self._peak_total, total, total_end)
        self._final_total = total_end
        for k, v in events.items():
            self._event_totals[k] += v
        row = {
            "type": "chunk",
            "chunk": len(self.rows),
            "frame_lo": records[0].frame_idx,
            "frame_hi": records[-1].frame_idx,
            "frames_seen": records[-1].frame_idx + 1,
            "temporal": temporal,
            "spatial": spatial,
            "in_flight": in_flight,
            "total": total,
            "total_end": total_end,
            "bytes": total * h.d_h * BYTES_PER_SCALAR * 2,
            "events": events,
            "retrieval": retrieval,
            "spatial_mass_frac": spat_mass / in_flight,
            "score_means": score_means,
            "wall_ms": (time.perf_counter() - t0) * 1e3,
        }
        self.rows.append(row)
        if self.stats_sink is not None:
            self.stats_sink(row)
        self._pending = []
        return row

    def finish(self) -> ReplayStats:
        """Flush any partial chunk and assemble the final stats."""
        if self._finished:
            raise InvariantViolation("finish called twice")
        if self._pending:
            self.process_chunk(self._pending)
        self._finished = True
        h = self.header
        channels = h.layers * h.heads
        full_tokens = self._frames_seen * h.tokens_per_frame * channels
        elapsed = time.perf_counter() - self._t0
        half_sats = 0
        if self.store is not None:
            half_sats = self.store.half_saturations + sum(
                ch.cache.half_saturations for ch in self.channels)
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
            "audits_checked": sum(ch.audits for ch in self.channels),
            "mean_chunk_ms": sum(r["wall_ms"] for r in self.rows) / len(self.rows) if self.rows else 0.0,
            "total_ms": elapsed * 1e3,
        }
        if self.stats_sink is not None:
            self.stats_sink(summary)
        return ReplayStats(
            policy=self.policy.label(),
            header=h,
            rows=self.rows,
            summary=summary,
        )


TraceSource = Union[str, tuple[TraceHeader, Iterable[TraceRecord]]]


@contextmanager
def _opened(trace: TraceSource) -> Iterator[tuple[TraceHeader, Iterable[TraceRecord]]]:
    """The trace's header and records. A trace opened here is closed on every
    exit, also when a replayer cannot be built or a record fails; a caller's
    records stay the caller's."""
    if not isinstance(trace, str):
        yield trace
        return
    header, records = read_trace(trace)
    try:
        yield header, records
    finally:
        records.close()


def run_stream(
    trace: TraceSource,
    policy: Policy,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    audit: bool = True,
    stats_sink: Optional[Callable[[dict], None]] = None,
) -> ReplayStats:
    """Replay a whole trace (path, or header+records) under one policy."""
    with _opened(trace) as (header, records):
        replayer = StreamReplayer(
            header, policy, chunk_size=chunk_size, audit=audit, stats_sink=stats_sink
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


def divergence_report(a: StreamReplayer, b: StreamReplayer) -> tuple[list[dict], np.ndarray]:
    """Output divergence of b against a over the chunk both processed last.

    Returns one row per frame, in frame order, and a (frames, 2, L, H) array
    of each channel's cosine and relative L2. The outputs stay in place.
    """
    h = a.header
    rows, channels = [], np.empty((len(a.outputs), 2, h.layers, h.heads))
    for i, (f, x) in enumerate(a.outputs.items()):
        y = b.outputs[f]
        rows.append({"frame": f, "cosine": _frame_cosine(x, y), "rel_l2": _frame_rel_l2(x, y)})
        for li, hi in np.ndindex(h.layers, h.heads):
            channels[i, 0, li, hi] = _frame_cosine(x[li, hi], y[li, hi])
            channels[i, 1, li, hi] = _frame_rel_l2(x[li, hi], y[li, hi])
    return rows, channels


def compare(
    trace: TraceSource,
    policy_a: Policy,
    policy_b: Policy,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    audit: bool = True,
) -> dict:
    """Replay under two policies in one pass and report their output divergence.

    Each record goes to both replayers, which share chunk boundaries, and
    each chunk's divergence is taken as soon as both have processed it. So
    the trace is read once and each side holds one chunk of outputs.
    """
    with _opened(trace) as (header, records):
        a, b = (StreamReplayer(header, p, chunk_size=chunk_size, audit=audit)
                for p in (policy_a, policy_b))
        per_frame: list[dict] = []
        sums = np.zeros((2, header.layers, header.heads))  # per channel: cosine, rel L2

        def fold() -> None:
            rows, channels = divergence_report(a, b)
            per_frame.extend(rows)
            for c in channels:  # frame by frame, so each sum adds in frame order
                sums[:] += c

        for record in records:
            a.feed(record)
            if b.feed(record) is not None:
                fold()
    partial = bool(b._pending)
    stats_a, stats_b = a.finish(), b.finish()
    if partial:
        fold()
    n = max(1, len(per_frame))
    per_channel = [
        {"layer": li, "head": hi,
         "mean_cosine": sums[0, li, hi] / n, "mean_rel_l2": sums[1, li, hi] / n}
        for li, hi in np.ndindex(header.layers, header.heads)
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
