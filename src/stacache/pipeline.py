"""Streaming replay of q/k/v traces under different cache policies.

Frames arrive one at a time and are processed in fixed-size chunks: queries
of a chunk attend over the policy's cached tokens plus the chunk itself,
then the policy updates its cache. Every (layer, head) pair is an
independent channel with its own cache state; a chunk's stats row sums over
channels. Each policy has one cache object that holds every channel and
steps them all once per chunk, so the replayer never asks which policy it
runs. Under `stac` the channels share one temporal cache and one voxel
store, which keep their tokens apart and turn every channel over at once.
Replays are deterministic for a given trace and policy, apart from
wall-clock fields.
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
from .tokens import CacheConfig, TokenId, validate_config
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
    the nominal budget but never over it. Neither voxel cap may exceed the
    budget, since the store's cell tables take g_cap + e_cap slots per cell.
    """
    if tokens_per_frame < 1:
        raise ConfigError(f"tokens_per_frame must be >= 1, got {tokens_per_frame}")
    total = config.budget_multiplier * tokens_per_frame
    if not math.isfinite(total):
        raise ConfigError(
            f"budget_multiplier={config.budget_multiplier} x {tokens_per_frame} tokens "
            f"is not a finite budget"
        )
    for name, cap in (("g_cap", config.g_cap), ("e_cap", config.e_cap)):
        if cap > total:
            raise ConfigError(f"{name}={cap} exceeds the channel's budget of {int(total)} tokens")
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


# -- the policies' caches ----------------------------------------------------
#
# Each policy has one cache that holds every channel. A cache takes the
# reference frame in `register(record)`, and one `step(records, audit, out)`
# per chunk attends every channel into out[:, layer, head], turns the cache
# over and returns the chunk's policy figures, keyed as the row keys them.
# It reports `member_count` (temporal members per channel), `spatial_tokens`
# (over every channel), `half_saturations` and `audits` (checks run).


def _mapped_rows(rows: int, d_h: int) -> np.ndarray:
    """An uninitialised (rows, d_h) float64 array in an anonymous mapping;
    rows must be positive, as mmap cannot map zero bytes.

    The array owns its mapping, so dropping its last view unmaps the pages
    at once. A heap buffer this large may come from malloc's arena (after
    large frees have raised its mmap threshold), and then freeing it leaves
    the pages resident for the next allocation. Untouched pages of a
    mapping are never resident.
    """
    return np.frombuffer(mmap.mmap(-1, rows * d_h * 8), dtype=np.float64).reshape(rows, d_h)


class _VerbatimChannels:
    """Baseline: the reference frame plus the last `window` frames, verbatim,
    on every channel.

    `window=None` keeps every frame (the `full` policy). Each channel's rows
    live in an append-only key/value buffer of its own, reference first, so
    a step attends over a prefix slice in arrival order; a window moves its
    last frames down behind the reference after each step. Under either
    policy a channel's buffers start empty, on the heap, and double when
    full, one channel at a time, so nothing is sized from the header (one
    that declares an absurd frame count cannot turn into an allocation) and
    only one channel's outgrown pair is alive at once. A window's buffers
    stop growing once they hold the reference, the window and one chunk.
    Every grown buffer is a memory mapping of its own (`_mapped_rows`), so
    an outgrown one goes back to the OS when dropped. Every channel holds
    as many rows as every other, and no voxel store: the step's figures
    are zeros.
    """

    spatial_tokens = 0
    half_saturations = 0

    def __init__(self, header: TraceHeader, window: Optional[int], workspace: Workspace):
        self.header = header
        self.window = window
        channels = header.layers * header.heads
        self.keys = [np.empty((0, header.d_h)) for _ in range(channels)]
        self.values = [np.empty((0, header.d_h)) for _ in range(channels)]
        self.member_count = 0  # rows each channel attends from its cache
        self.workspace = workspace
        self.audits = 0

    def _append(self, c: int, records: list[TraceRecord]) -> tuple[np.ndarray, np.ndarray]:
        """Channel c's keys and values with the records' rows written after
        the held ones, as views up to the new end."""
        h, held = self.header, self.member_count
        li, hi = divmod(c, h.heads)
        n = h.tokens_per_frame
        end = held + len(records) * n
        keys, values = self.keys[c], self.values[c]
        if end > len(keys):
            rows = max(end, 2 * len(keys))
            grown = _mapped_rows(rows, h.d_h), _mapped_rows(rows, h.d_h)
            grown[0][:held] = keys[:held]
            grown[1][:held] = values[:held]
            self.keys[c], self.values[c] = keys, values = grown
        for i, r in enumerate(records):
            keys[held + i * n : held + (i + 1) * n] = r.data[li, hi, 1]
            values[held + i * n : held + (i + 1) * n] = r.data[li, hi, 2]
        return keys[:end], values[:end]

    def register(self, record: TraceRecord) -> None:
        for c in range(len(self.keys)):
            self._append(c, [record])
        self.member_count = self.header.tokens_per_frame

    def step(self, records: list[TraceRecord], audit: bool, out: np.ndarray) -> dict:
        h = self.header
        n = ref = h.tokens_per_frame  # the reference frame's rows lead every buffer
        end = self.member_count + len(records) * n
        kept = end - ref if self.window is None else min(end - ref, self.window * n)
        for c, (li, hi) in enumerate(np.ndindex(h.layers, h.heads)):
            keys, values = self._append(c, records)
            queries = np.concatenate([r.data[li, hi, 0] for r in records])
            res = attend(queries, keys, values, np.ones(end), h.d_h, workspace=self.workspace)
            out[:, li, hi] = res.outputs.reshape(len(records), n, h.d_h)
            if audit:
                _check_mass(res.mass, len(queries))
            if kept < end - ref:  # the window's last frames move down behind the reference
                keys[ref : ref + kept] = keys[end - kept :]
                values[ref : ref + kept] = values[end - kept :]
        self.member_count = ref + kept
        if audit:
            self.audits += len(self.keys)
        return {"events": dict.fromkeys(("evicted", *EVENTS), 0),
                "retrieval": dict.fromkeys(("requested", "returned_g", "returned_e"), 0),
                "spatial_mass_frac": 0.0,
                "score_means": dict.fromkeys(("reference", "window", "anchor"), 0.0)}


class _StacChannels:
    """The compressed scheme on every channel: one temporal cache holds all
    of them, and one voxel store takes their evictees.

    A chunk is one `step`. One retrieval serves every channel: the store is
    the same for all of them until the chunk's insertion. Each channel in
    turn attends over its members in snapshot order, the rows retrieved for
    it and the chunk, all copied into one per-replay key and value buffer.
    Then the temporal cache takes every channel's masses at once: one score
    update, one window turnover and one anchor selection; the store takes
    every channel's evictees in one insertion; and one audit checks every
    channel, eight checks per channel and chunk.
    """

    def __init__(self, config: CacheConfig, header: TraceHeader, workspace: Workspace):
        problems = validate_config(config)
        if problems:
            raise ConfigError("; ".join(problems))
        self.budget = allocate_budget(config, header.tokens_per_frame)
        self.config = config
        self.header = header
        channels = header.layers * header.heads
        self.temporal = TemporalCache(
            window_frames=config.window_frames,
            anchor_budget=self.budget.anchor_tokens,
            gamma=config.gamma,
            quantize=config.half_precision,
            channels=channels,
        )
        self.store = VoxelStore(
            voxel_size=config.voxel_size,
            merge_lambda=config.merge_lambda,
            g_cap=config.g_cap,
            e_cap=config.e_cap,
            knn_radius_mult=config.knn_radius_mult,
            quantize=config.half_precision,
            channels=channels,
        )
        # key and value rows of one channel's key set; they grow to the largest
        self.keys, self.values = np.empty((0, header.d_h)), np.empty((0, header.d_h))
        self.workspace = workspace
        self.audits = 0

    @property
    def member_count(self) -> int:
        return self.temporal.member_count

    @property
    def spatial_tokens(self) -> int:
        return int(self.store.token_counts.sum())

    @property
    def half_saturations(self) -> int:
        return self.store.half_saturations + self.temporal.half_saturations

    def register(self, record: TraceRecord) -> None:
        self.temporal.register_reference(record)

    def step(self, records: list[TraceRecord], audit: bool, out: np.ndarray) -> dict:
        """Attend the chunk on every channel into out[:, layer, head], then
        turn the temporal cache over and insert its evictees into the store.
        Each retrieved block is dropped once its channel has attended."""
        h, cache, store = self.header, self.temporal, self.store
        d, n = h.d_h, h.tokens_per_frame
        channels, fresh, quota = cache.channels, len(records) * n, self.budget.retrieve_tokens
        events_before = store.channel_events.sum(0)
        vis = np.concatenate([r.positions[r.position_mask] for r in records])
        retrieved = store.retrieve(vis, quota, where=lambda i: _visible_token(records, i))
        returned_g = sum(int((b.frames == -1).sum()) for b in retrieved)
        retrieval = {"requested": channels * quota, "returned_g": returned_g,
                     "returned_e": sum(len(b) for b in retrieved) - returned_g}
        attended = cache.order
        held = attended.shape[1]
        member_mass = np.empty(attended.shape)
        fresh_mass = np.empty((channels, fresh))
        spat_mass, masses, seen = 0.0, [], []
        for c, (li, hi) in enumerate(np.ndindex(h.layers, h.heads)):
            got = retrieved[c]
            base = held + len(got)
            end = base + fresh
            if end > len(self.keys):
                self.keys, self.values = np.empty((end, d)), np.empty((end, d))
            keys, values = self.keys[:end], self.values[:end]
            keys[:held] = cache.rows[attended[c], :d]
            values[:held] = cache.rows[attended[c], d : 2 * d]
            for i, r in enumerate(records):
                keys[base + i * n : base + (i + 1) * n] = r.data[li, hi, 1]
                values[base + i * n : base + (i + 1) * n] = r.data[li, hi, 2]
            counts = np.ones(end)
            if len(got):  # an empty store's blocks have no columns
                keys[held:base] = got.keys
                values[held:base] = got.values
                counts[held:base] = got.counts
            queries = np.concatenate([r.data[li, hi, 0] for r in records])
            res = attend(queries, keys, values, counts, d, workspace=self.workspace)
            out[:, li, hi] = res.outputs.reshape(len(records), n, d)
            member_mass[c] = res.mass[:held]
            spat_mass += float(res.mass[held:base].sum())
            fresh_mass[c] = res.mass[base:]
            if audit:
                masses.append(res.mass)
                seen.append((got.frames, got.tokens))
            retrieved[c] = None  # spent

        ranked = held - cache.anchor_count  # where the anchors start, as attended
        cache.update_scores(member_mass)
        expelled = cache.ingest_frames(records, fresh_mass)
        if audit:
            # The ids of the members as attended, then of the expellees, read
            # before selection: the audit holds selection to its inputs.
            slots = np.concatenate([attended, expelled.reshape(channels, -1)], axis=1)
            ids = cache.frames[slots], cache.tokens[slots]
        evicted = cache.select_anchors(expelled)
        # every channel evicts as many rows as every other
        store.insert_evicted(evicted, np.repeat(np.arange(channels), len(evicted) // channels))
        if audit:
            self._audit(masses, fresh, ids, held, ranked, seen, records, evicted)
        delta = (store.channel_events.sum(0) - events_before).tolist()
        return {"events": {"evicted": len(evicted), **dict(zip(EVENTS, delta))},
                "retrieval": retrieval,
                "spatial_mass_frac": spat_mass / (channels * fresh),
                "score_means": self._score_means()}

    def _score_means(self) -> dict:
        # Per group: the sequential float sum of each channel's scores in
        # member order, those summed in channel order, over the group's size.
        cache = self.temporal
        ref = cache.reference_count
        win = ref + cache.window_token_count
        scores = cache.scores[cache.order]
        parts = {"reference": scores[:, :ref], "window": scores[:, ref:win],
                 "anchor": scores[:, win:]}
        return {g: sum(sum(row) for row in p.tolist()) / p.size if p.size else 0.0
                for g, p in parts.items()}

    def _audit(self, masses, n_queries, ids, held, ranked, retrieved, records,
               evicted) -> None:
        """Every check of the chunk, on every channel at once, after the
        insertion. A breach names the first channel that has one and, where
        there is one, the token.

        `ids` holds (frames, tokens), each (channels, held + expellees): the
        ids of each channel's members as attended, the anchors from column
        `ranked` on, then of its expellees. `retrieved` holds the ids of
        each channel's retrieved rows.
        """
        cache = self.temporal
        channels, chunk_lo = cache.channels, records[0].frame_idx
        for mass in masses:
            _check_mass(mass, n_queries)
        # chunk causality: everything attended from the cache predates the chunk
        frames, tokens = ids
        if (frames[:, :held] >= chunk_lo).any() or \
                (np.concatenate([f for f, _ in retrieved]) >= chunk_lo).any():
            for c in range(channels):  # per channel, the members before the retrieved rows
                for f, t in ((frames[c, :held], tokens[c, :held]), retrieved[c]):
                    late = np.flatnonzero(f >= chunk_lo)
                    if late.size:
                        token = TokenId(int(f[late[0]]), int(t[late[0]]))
                        raise InvariantViolation(f"channel {c}: cache token {token} not older "
                                                 f"than chunk starting at {chunk_lo}")
        members = cache.order
        codes = np.sort((cache.frames[members] << 32) | cache.tokens[members], axis=1)
        dup = codes[:, 1:] == codes[:, :-1]
        if dup.any():
            c, i = np.argwhere(dup)[0]
            token = TokenId(int(codes[c, i] >> 32), int(codes[c, i] & 0xFFFFFFFF))
            raise InvariantViolation(f"channel {c}: duplicate token id {token} in temporal cache")
        # No evicted token re-enters: window tokens are born from strictly
        # newer frames, so the only way back in is the anchor set, and each
        # new anchor must be an old anchor or an expellee of this chunk that
        # was not evicted. This needs O(budget) memory, not a record of
        # every eviction so far. One code per (channel, frame, token) keeps
        # the channels apart in one set difference: temporal token indices
        # lie below N, and frames at or below the chunk's last. The anchors'
        # codes are distinct (checked above), as isin's assume_unique asks
        # of its first argument.
        span, n = records[-1].frame_idx + 1, cache.tokens_per_frame
        offsets = np.arange(channels)[:, None] * span

        def coded(frames, tokens):
            return (offsets + frames.reshape(channels, -1)) * n + tokens.reshape(channels, -1)

        eligible = np.setdiff1d(coded(frames[:, ranked:], tokens[:, ranked:]),
                                coded(evicted.frames, evicted.tokens), assume_unique=True)
        anchors = members[:, cache.reference_count + cache.window_token_count :]
        back = np.isin(coded(cache.frames[anchors], cache.tokens[anchors]), eligible,
                       assume_unique=True, invert=True, kind="sort")
        if back.any():
            c = back.any(axis=1).argmax()
            hits = sorted(cache.block(anchors[c, back[c]]).ids())
            raise InvariantViolation(
                f"channel {c}: evicted token(s) re-entered the temporal cache: {hits[:3]}")
        cfg, budget = self.config, self.budget
        wa_cap = (cfg.window_frac + cfg.anchor_frac) * cfg.budget_multiplier * n
        wa = cache.window_token_count + cache.anchor_count  # the same on every channel
        if wa > wa_cap + 1e-9:
            raise InvariantViolation(f"window+anchor tokens {wa} exceed budget share {wa_cap}")
        if cache.anchor_count > budget.anchor_tokens:
            raise InvariantViolation(
                f"{cache.anchor_count} anchors exceed budget {budget.anchor_tokens}"
            )
        negative = cache.scores[members] < 0.0
        if negative.any():
            c, i = np.argwhere(negative)[0]
            raise InvariantViolation(f"channel {c}: negative score in temporal cache: "
                                     f"{cache.block(members[c, i : i + 1]).ids()[0]}")
        # the caps of every cell, and each channel's token conservation
        self.store.audit()
        produced = (records[-1].frame_idx + 1) * n
        accounted = cache.member_count + self.store.count_masses
        broken = np.flatnonzero(accounted != produced)
        if broken.size:
            c = broken[0]
            raise InvariantViolation(f"channel {c}: token conservation broken: "
                                     f"{accounted[c]} accounted vs {produced} produced")
        self.audits += 8 * channels


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

    `cache` holds every channel under the policy: `_VerbatimChannels` under
    `full` and `window`, `_StacChannels` under `stac`. `process_chunk`
    counts each chunk's row: one `cache.step` attends every channel and
    returns the policy's figures, and the token counts come from the
    cache's `member_count` and `spatial_tokens` before and after it.
    """

    def __init__(
        self,
        header: TraceHeader,
        policy: Policy,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        audit: bool = True,
        stats_sink: Optional[Callable[[dict], None]] = None,
    ):
        if chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        self.header = header
        self.policy = policy
        self.chunk_size = chunk_size
        self.audit = audit
        self.stats_sink = stats_sink
        # Channels attend one after another, so they all attend through one
        # workspace; one per channel would pin C copies of the largest Q x K
        # (C x 31.6 MB under `full` at K of about 15k). It lives as long as
        # the replayer, not the process, and replays in other threads have
        # their own.
        self.workspace = Workspace()
        self.cache = (_StacChannels(policy.config, header, self.workspace) if policy.kind == "stac"
                      else _VerbatimChannels(header, policy.window if policy.kind == "window"
                                             else None, self.workspace))
        self.outputs: dict[int, np.ndarray] = {}
        self.rows: list[dict] = []
        self._pending: list[TraceRecord] = []
        self._frames_seen = 0
        self._peak_total = 0
        self._final_total = 0
        self._event_totals = dict.fromkeys(("evicted", *EVENTS), 0)
        self._t0 = time.perf_counter()
        self._finished = False

    def _held(self) -> int:
        """Tokens the cache holds, temporal and spatial, over every channel."""
        h = self.header
        return self.cache.member_count * h.layers * h.heads + self.cache.spatial_tokens

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
        if record.position_mask.dtype != np.bool_:
            # an integer mask would index positions as rows
            raise TraceFormatError(f"frame {record.frame_idx}: position_mask has dtype "
                                   f"{record.position_mask.dtype}, want bool")
        self._frames_seen += 1
        if record.frame_idx == 0:
            self.cache.register(record)
            # the reference is held from here on, also if no chunk follows
            self._peak_total = self._final_total = self._held()
            return None
        self._pending.append(record)
        if len(self._pending) == self.chunk_size:
            return self.process_chunk(self._pending)
        return None

    def process_chunk(self, records: list[TraceRecord]) -> dict:
        """Attend one chunk on every channel, update the cache, and count
        the chunk in its stats row; this is the only place a row is made."""
        if not records:
            raise InvariantViolation("process_chunk with no records")
        t0 = time.perf_counter()
        h, cache = self.header, self.cache
        frames, n, d = len(records), h.tokens_per_frame, h.d_h
        temporal = cache.member_count * h.layers * h.heads
        spatial = cache.spatial_tokens
        in_flight = h.layers * h.heads * frames * n
        # The last chunk's outputs go before this chunk's block is made, and
        # each channel's are copied in as it attends: one block is alive at once.
        self.outputs = {}
        out = np.empty((frames, h.layers, h.heads, n, d))
        figures = cache.step(records, self.audit, out)
        self.outputs = {r.frame_idx: o for r, o in zip(records, out)}

        total = temporal + spatial + in_flight
        total_end = self._held()
        self._peak_total = max(self._peak_total, total, total_end)
        self._final_total = total_end
        for k, v in figures["events"].items():
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
            "bytes": total * d * BYTES_PER_SCALAR * 2,
            **figures,  # events, retrieval, spatial_mass_frac, score_means
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
            "half_saturations": self.cache.half_saturations,
            "audits_checked": self.cache.audits,
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
    # no compared frame reads as identical outputs, as zero against zero does
    n = len(per_frame)
    means = sums / n if n else np.stack([np.ones(sums.shape[1:]), np.zeros(sums.shape[1:])])
    per_channel = [
        {"layer": li, "head": hi,
         "mean_cosine": means[0, li, hi], "mean_rel_l2": means[1, li, hi]}
        for li, hi in np.ndindex(header.layers, header.heads)
    ]
    return {
        "type": "divergence",
        "policy_a": stats_a.policy,
        "policy_b": stats_b.policy,
        "per_frame": per_frame,
        "per_channel": per_channel,
        "overall": {
            "mean_cosine": sum(r["cosine"] for r in per_frame) / n if n else 1.0,
            "mean_rel_l2": sum(r["rel_l2"] for r in per_frame) / n if n else 0.0,
            "max_rel_l2": max((r["rel_l2"] for r in per_frame), default=0.0),
        },
        "summary_a": stats_a.summary,
        "summary_b": stats_b.summary,
    }
