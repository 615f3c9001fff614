"""Working cache over the recent past of one (layer, head) channel.

Membership has three parts: the reference tokens of the very first frame
(kept verbatim forever), a FIFO window of the last few frames, and a
score-ranked anchor set fed by tokens the window expels. Scores are
cumulative attention mass with exponential decay, updated once per chunk.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import DimensionError, StacacheError
from .kernel import HALF_MAX, half_roundtrip
from .tokens import CachedToken, FrameTokens, Origin, TokenId


class TemporalCache:
    """Reference + sliding window + anchors for a single channel.

    Reference tokens carry Origin.WINDOW (they are window residents that
    never expire); structurally they live in their own list, so counts and
    stats can still tell them apart. All mutation happens through the four
    public methods below, in the order the pipeline calls them.

    Next to each resident frame's tokens the cache keeps that frame's key
    and value blocks, so a caller can assemble the framed part of the key
    set by concatenation instead of stacking token by token.
    """

    def __init__(
        self,
        window_frames: int,
        anchor_budget: int,
        gamma: float,
        quantize: bool = False,
    ):
        if window_frames < 1:
            raise DimensionError(f"window_frames must be >= 1, got {window_frames}")
        if anchor_budget < 0:
            raise DimensionError(f"anchor_budget must be >= 0, got {anchor_budget}")
        if not (0.0 <= gamma <= 1.0):
            raise DimensionError(f"gamma must lie in [0, 1], got {gamma}")
        self.window_frames = window_frames
        self.anchor_budget = anchor_budget
        self.gamma = gamma
        self.quantize = quantize
        self.half_saturations = 0
        self._reference: list[CachedToken] = []
        self._window: deque[list[CachedToken]] = deque()
        # (keys, values) of the reference frame and of each window frame
        self._reference_block: tuple[np.ndarray, np.ndarray] | None = None
        self._window_blocks: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._anchors: list[CachedToken] = []
        self._last_frame = -1

    # -- membership -----------------------------------------------------

    @property
    def reference_count(self) -> int:
        return len(self._reference)

    @property
    def window_token_count(self) -> int:
        return sum(len(frame) for frame in self._window)

    @property
    def anchor_count(self) -> int:
        return len(self._anchors)

    @property
    def member_count(self) -> int:
        return self.reference_count + self.window_token_count + self.anchor_count

    def snapshot(self) -> list[CachedToken]:
        """Members in canonical order: reference, window oldest-first,
        anchors in descending score as of their last selection."""
        out = list(self._reference)
        for frame in self._window:
            out.extend(frame)
        out.extend(self._anchors)
        return out

    def frame_blocks(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Key and value blocks of the reference and window frames.

        Stacked in order, their rows are the keys and values of the first
        reference_count + window_token_count members of snapshot(); the
        blocks are read-only.
        """
        blocks = [self._reference_block, *self._window_blocks]
        return [k for k, _ in blocks], [v for _, v in blocks]

    # -- mutation -------------------------------------------------------

    def register_reference(self, frame: FrameTokens) -> None:
        """Install the first frame as the permanent reference set."""
        if self._reference or self._window or self._anchors:
            raise StacacheError("reference already registered")
        self._reference, self._reference_block = self._make_tokens(frame, None)
        self._last_frame = frame.frame_idx

    def ingest_frames(
        self,
        frames: list[FrameTokens],
        initial_scores: list[np.ndarray] | None = None,
    ) -> list[CachedToken]:
        """Append chunk frames to the window; return tokens the window expels.

        initial_scores, when given, seeds each fresh token's score with the
        attention mass it just received as part of its own chunk (scores
        are otherwise only updated for tokens already resident when the
        chunk attended). Expelled tokens come back oldest frame first with
        their scores intact; they are candidates for anchor selection, not
        yet evicted.
        """
        if not self._reference:
            raise StacacheError("register_reference must run before ingest_frames")
        if initial_scores is not None and len(initial_scores) != len(frames):
            raise DimensionError(
                f"{len(frames)} frames but {len(initial_scores)} score vectors"
            )
        for i, frame in enumerate(frames):
            if frame.frame_idx <= self._last_frame:
                raise DimensionError(
                    f"frame indices must increase: got {frame.frame_idx} "
                    f"after {self._last_frame}"
                )
            scores = None if initial_scores is None else initial_scores[i]
            tokens, block = self._make_tokens(frame, scores)
            self._window.append(tokens)
            self._window_blocks.append(block)
            self._last_frame = frame.frame_idx
        expelled: list[CachedToken] = []
        while len(self._window) > self.window_frames:
            expelled.extend(self._window.popleft())
            self._window_blocks.popleft()
        return expelled

    def update_scores(self, mass: np.ndarray) -> None:
        """Decay-and-accumulate: s <- gamma * s + mass, in snapshot order."""
        members = self.snapshot()
        mass = np.asarray(mass, dtype=np.float64)
        if mass.shape != (len(members),):
            raise DimensionError(
                f"mass shape {mass.shape} misaligned with {len(members)} cache members"
            )
        for token, m in zip(members, mass.tolist()):
            token.score = self.gamma * token.score + m

    def select_anchors(self, expelled: list[CachedToken]) -> list[CachedToken]:
        """Rank current anchors plus expelled tokens; keep the top ones.

        Ties break deterministically: higher score first, then younger
        frame, then lower token index. Losers are returned in rank order
        and are no longer cache members; their scores stay frozen at the
        value they held here.
        """
        candidates = self._anchors + list(expelled)
        candidates.sort(key=lambda t: (-t.score, -t.id.frame_idx, t.id.token_idx))
        self._anchors = candidates[: self.anchor_budget]
        for token in self._anchors:
            token.origin = Origin.ANCHOR
        return candidates[self.anchor_budget :]

    # -- helpers ----------------------------------------------------------

    def _make_tokens(
        self, frame: FrameTokens, scores: np.ndarray | None
    ) -> tuple[list[CachedToken], tuple[np.ndarray, np.ndarray]]:
        # The frame's tokens plus its (quantized) key and value blocks; each
        # token gets its own copy of its rows.
        keys, values = frame.keys, frame.values
        if self.quantize:
            self.half_saturations += int((np.abs(keys) > HALF_MAX).sum())
            self.half_saturations += int((np.abs(values) > HALF_MAX).sum())
            keys = half_roundtrip(keys)
            values = half_roundtrip(values)
        else:
            keys, values = np.array(keys), np.array(values)
        n = frame.token_count
        mask = np.asarray(frame.position_mask, dtype=bool).tolist()
        score_list = [0.0] * n if scores is None else np.asarray(scores, dtype=np.float64).tolist()
        if len(mask) != n or len(score_list) != n:
            raise DimensionError(
                f"frame {frame.frame_idx}: {n} tokens, {len(mask)} mask entries, "
                f"{len(score_list)} scores"
            )
        positions, fi = frame.positions, frame.frame_idx
        tokens = [
            CachedToken(
                id=TokenId(fi, j),
                key=k.copy(),
                value=v.copy(),
                score=s,
                position=positions[j].copy() if m else None,
                origin=Origin.WINDOW,
            )
            for j, (k, v, m, s) in enumerate(zip(keys, values, mask, score_list))
        ]
        return tokens, (keys, values)
