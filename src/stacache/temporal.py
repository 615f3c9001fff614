"""Working cache over the recent past of every (layer, head) channel.

Membership has three parts: the reference tokens of the very first frame
(kept verbatim forever), a FIFO window of the last few frames, and a
score-ranked anchor set fed by tokens the window expels. Scores are
cumulative attention mass with exponential decay, updated once per chunk.
Every channel holds the same number of members in each part, so one cache
turns all of a replay's channels over at once.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, StacacheError
from .kernel import HALF_MAX, half_roundtrip
from .tokens import TokenBlock, _grown
from .traceio import TraceRecord


class TemporalCache:
    """Reference + sliding window + anchors for `channels` channels.

    Members live in slots. Each channel has `capacity` of them, and slot s
    of channel c is row s * channels + c of the slot arrays: `rows`
    ([key | value | position], as in TokenBlock), `scores`, `frames`,
    `tokens` and `mask`. That row number is the slot's flat index. A slot
    is written once, when its token arrives, and a held row never moves.
    What turns over is `order`, the (channels, member_count) flat indices
    of each channel's members in snapshot order: the reference, the window
    oldest frame first, then the anchors in descending score as of their
    last selection. `free` holds each channel's unused slots, one row per
    channel; member counts never differ between channels, so neither do
    the free lists' lengths. When a chunk needs more slots than are free,
    every array grows by appending rows for the new slot numbers, so a
    flat index, once handed out, names the same slot for the life of the
    cache; only register_reference and ingest_frames grow them.

    Frames come as trace records: each record's data is (L, H, 3, N, d_h),
    with L * H == channels and channel c the c-th (layer, head) pair in
    row-major order. All mutation happens through the four public methods
    below, in the order the pipeline calls them.
    """

    def __init__(
        self,
        window_frames: int,
        anchor_budget: int,
        gamma: float,
        quantize: bool = False,
        channels: int = 1,
    ):
        if window_frames < 1:
            raise DimensionError(f"window_frames must be >= 1, got {window_frames}")
        if anchor_budget < 0:
            raise DimensionError(f"anchor_budget must be >= 0, got {anchor_budget}")
        if not (0.0 <= gamma <= 1.0):
            raise DimensionError(f"gamma must lie in [0, 1], got {gamma}")
        if channels < 1:
            raise DimensionError(f"channels must be >= 1, got {channels}")
        self.window_frames = window_frames
        self.anchor_budget = anchor_budget
        self.gamma = gamma
        self.quantize = quantize
        self.channels = int(channels)
        self.half_saturations = 0
        self.tokens_per_frame = 0
        self.capacity = 0
        self.rows = np.empty((0, 0))
        self.scores = np.empty(0)
        self.frames = np.empty(0, dtype=np.int64)
        self.tokens = np.empty(0, dtype=np.int64)
        self.mask = np.empty(0, dtype=bool)
        self.order = np.empty((self.channels, 0), dtype=np.int64)
        self.free = np.empty((self.channels, 0), dtype=np.int64)
        self.reference_count = 0
        self._window_held = 0  # frames in the window
        self._last_frame: int | None = None

    # -- membership -----------------------------------------------------

    @property
    def member_count(self) -> int:
        """Members per channel."""
        return self.order.shape[1]

    @property
    def window_token_count(self) -> int:
        return self._window_held * self.tokens_per_frame

    @property
    def anchor_count(self) -> int:
        return self.member_count - self.reference_count - self.window_token_count

    def block(self, slots) -> TokenBlock:
        """Copies of the given slots' rows as a TokenBlock, in the given order."""
        slots = np.asarray(slots, dtype=np.int64)
        return TokenBlock(self.rows[slots], self.mask[slots], self.scores[slots],
                          self.frames[slots], self.tokens[slots],
                          np.ones(len(slots), dtype=np.int64))

    def snapshot(self) -> TokenBlock:
        """All members as one new block: channel by channel, each in
        snapshot order."""
        return self.block(self.order.ravel())

    # -- mutation -------------------------------------------------------

    def register_reference(self, record: TraceRecord) -> None:
        """Install the first frame as the permanent reference set."""
        if self._last_frame is not None:
            raise StacacheError("reference already registered")
        n, d = self._check(record)
        self.tokens_per_frame = n
        self.rows = np.empty((0, 2 * d + 3))
        self.order = self._alloc(n)
        self._write(self.order, [record], None)
        self.reference_count = n
        self._last_frame = record.frame_idx

    def ingest_frames(self, records: list[TraceRecord],
                      initial_scores: np.ndarray | None = None) -> np.ndarray:
        """Append chunk frames to the window; return the slots it expels.

        initial_scores, when given, is (channels, frames * N): it seeds each
        fresh token's score with the attention mass it just received as
        part of its own chunk (scores are otherwise only updated for tokens
        already resident when the chunk attended). The window keeps its
        newest `window_frames` frames, so with more fresh frames than that
        the oldest fresh ones are expelled too. Fresh frames are written to
        slots either way. The expelled slots come back as flat indices,
        channel by channel and oldest frame first, with their scores
        intact; they are candidates for anchor selection, not members and
        not yet evicted.
        """
        if self._last_frame is None:
            raise StacacheError("register_reference must run before ingest_frames")
        n, last = self.tokens_per_frame, self._last_frame
        for record in records:
            self._check(record, n, (self.rows.shape[1] - 3) // 2)
            if record.frame_idx <= last:
                raise DimensionError(
                    f"frame indices must increase: got {record.frame_idx} after {last}"
                )
            last = record.frame_idx
        fresh_shape = (self.channels, len(records) * n)
        if initial_scores is not None:
            initial_scores = np.asarray(initial_scores, dtype=np.float64)
            if initial_scores.shape != fresh_shape:
                raise DimensionError(
                    f"initial scores of shape {initial_scores.shape}, want {fresh_shape}"
                )
        fresh = self._alloc(len(records) * n)
        if records:
            self._write(fresh, records, initial_scores)
        self._last_frame = last
        ref, win = self.reference_count, self.reference_count + self.window_token_count
        held = self._window_held + len(records)
        out = max(0, held - self.window_frames) * n  # oldest rows leave, fresh ones too
        window = np.concatenate([self.order[:, ref:win], fresh], axis=1)
        self.order = np.concatenate(
            [self.order[:, :ref], window[:, out:], self.order[:, win:]], axis=1)
        self._window_held = held - out // n
        return window[:, :out].ravel()

    def update_scores(self, mass: np.ndarray) -> None:
        """Decay-and-accumulate: s <- gamma * s + mass, with mass of shape
        (channels, member_count) in snapshot order."""
        mass = np.asarray(mass, dtype=np.float64)
        if mass.shape != self.order.shape:
            raise DimensionError(
                f"mass shape {mass.shape} misaligned with {self.order.shape} cache members"
            )
        scores = self.scores[self.order]
        scores *= self.gamma
        scores += mass
        self.scores[self.order] = scores

    def select_anchors(self, expelled: np.ndarray) -> TokenBlock:
        """Rank each channel's current anchors plus its expelled slots; keep
        the top ones in their slots.

        Ties break deterministically: higher score first, then younger
        frame, then lower token index. Losers come back as one block,
        channel by channel and each in rank order, as copies of their rows;
        their scores stay frozen at the value they held here, and their
        slots are freed.
        """
        expelled = np.asarray(expelled, dtype=np.int64).reshape(self.channels, -1)
        kept = self.reference_count + self.window_token_count
        candidates = np.concatenate([self.order[:, kept:], expelled], axis=1)
        # one lexsort ranks every channel's row of candidates on its own
        rank = np.lexsort((self.tokens[candidates], -self.frames[candidates],
                           -self.scores[candidates]), axis=-1)
        ranked = np.take_along_axis(candidates, rank, axis=1)
        self.order = np.concatenate([self.order[:, :kept], ranked[:, : self.anchor_budget]],
                                    axis=1)
        losers = ranked[:, self.anchor_budget :]
        self.free = np.concatenate([self.free, losers], axis=1)
        return self.block(losers.ravel())

    # -- helpers ----------------------------------------------------------

    def _check(self, record: TraceRecord, n: int | None = None,
               d: int | None = None) -> tuple[int, int]:
        # The record's shapes against this cache's channels, N and d_h; a
        # reference record sets N and d_h.
        got = record.data.shape
        if len(got) == 5 and n is None:
            n, d = got[3], got[4]
        if len(got) != 5 or (got[0] * got[1], *got[2:]) != (self.channels, 3, n, d) \
                or record.positions.shape != (n, 3) or record.position_mask.shape != (n,):
            raise DimensionError(
                f"frame {record.frame_idx}: data {got}, positions {record.positions.shape} "
                f"and mask {record.position_mask.shape} do not fit {self.channels} channels "
                f"of {n} tokens with d_h={d}"
            )
        return n, d

    def _alloc(self, k: int) -> np.ndarray:
        # k free slots per channel, (channels, k); the arrays grow first
        # if too few are free.
        short = k - self.free.shape[1]
        if short > 0:
            old, new = self.capacity, self.capacity + short
            for name in ("rows", "scores", "frames", "tokens", "mask"):
                setattr(self, name, _grown(getattr(self, name), new * self.channels))
            added = np.arange(old, new) * self.channels + np.arange(self.channels)[:, None]
            self.free = np.concatenate([self.free, added], axis=1)
            self.capacity = new
        cut = self.free.shape[1] - k
        slots, self.free = self.free[:, cut:].copy(), self.free[:, :cut].copy()
        return slots

    def _write(self, slots: np.ndarray, records: list[TraceRecord],
               scores: np.ndarray | None) -> None:
        # The records' tokens into slots (channels, frames * N), with
        # (quantized) copies of their keys and values.
        d = (self.rows.shape[1] - 3) // 2
        n = self.tokens_per_frame
        kv = np.stack([r.data[:, :, 1:] for r in records], axis=3)  # (L, H, k|v, frames, N, d)
        keys = kv[:, :, 0].reshape(slots.shape + (d,))
        values = kv[:, :, 1].reshape(slots.shape + (d,))
        if self.quantize:
            self.half_saturations += int((np.abs(kv) > HALF_MAX).sum())
            keys, values = half_roundtrip(keys), half_roundtrip(values)
        self.rows[slots, :d] = keys
        self.rows[slots, d : 2 * d] = values
        self.rows[slots, 2 * d :] = np.concatenate([r.positions for r in records])
        self.mask[slots] = np.concatenate([r.position_mask for r in records])
        self.scores[slots] = 0.0 if scores is None else scores
        self.frames[slots] = np.repeat([r.frame_idx for r in records], n)
        self.tokens[slots] = np.tile(np.arange(n), len(records))
