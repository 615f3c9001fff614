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
from .tokens import FrameTokens, TokenBlock


class TemporalCache:
    """Reference + sliding window + anchors for a single channel.

    Every member is a row of one TokenBlock, `members`, in snapshot order:
    the reference, the window oldest frame first, then the anchors, which
    are in descending score as of their last selection. `reference_count`
    and the window frames' row counts say where each part starts, and
    `blocks()` gives the three parts as views. All mutation happens through
    the four public methods below, in the order the pipeline calls them;
    ingestion and anchor selection each rebuild `members` once.
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
        self.members: TokenBlock | None = None
        self.reference_count = 0
        self._window_sizes: deque[int] = deque()
        self._last_frame: int | None = None

    # -- membership -----------------------------------------------------

    @property
    def window_token_count(self) -> int:
        return sum(self._window_sizes)

    @property
    def anchor_count(self) -> int:
        return self.member_count - self.reference_count - self.window_token_count

    @property
    def member_count(self) -> int:
        return 0 if self.members is None else len(self.members)

    def blocks(self) -> list[TokenBlock]:
        """The reference, window and anchors, as views of `members`.
        Callers read them; only update_scores writes."""
        ref, win = self.reference_count, self.reference_count + self.window_token_count
        return [self.members.take(s) for s in (slice(0, ref), slice(ref, win), slice(win, None))]

    def snapshot(self) -> TokenBlock:
        """All members as one new block, in snapshot order."""
        return TokenBlock.concat([self.members])

    # -- mutation -------------------------------------------------------

    def register_reference(self, frame: FrameTokens) -> None:
        """Install the first frame as the permanent reference set."""
        if self.members is not None:
            raise StacacheError("reference already registered")
        self.members = self._make_block(frame, None)
        self.reference_count = len(self.members)
        self._last_frame = frame.frame_idx

    def ingest_frames(
        self,
        frames: list[FrameTokens],
        initial_scores: list[np.ndarray] | None = None,
    ) -> TokenBlock:
        """Append chunk frames to the window; return the rows it expels.

        initial_scores, when given, seeds each fresh token's score with the
        attention mass it just received as part of its own chunk (scores
        are otherwise only updated for tokens already resident when the
        chunk attended). The window keeps its newest `window_frames`
        frames, so with more fresh frames than that the oldest fresh ones
        are expelled too. Expelled rows come back oldest frame first with
        their scores intact; they are candidates for anchor selection, not
        yet evicted.
        """
        if self._last_frame is None:
            raise StacacheError("register_reference must run before ingest_frames")
        if initial_scores is not None and len(initial_scores) != len(frames):
            raise DimensionError(
                f"{len(frames)} frames but {len(initial_scores)} score vectors"
            )
        fresh = []
        for i, frame in enumerate(frames):
            if frame.frame_idx <= self._last_frame:
                raise DimensionError(
                    f"frame indices must increase: got {frame.frame_idx} "
                    f"after {self._last_frame}"
                )
            scores = None if initial_scores is None else initial_scores[i]
            fresh.append(self._make_block(frame, scores))
            self._last_frame = frame.frame_idx
        reference, window, anchors = self.blocks()
        self._window_sizes.extend(len(block) for block in fresh)
        out = max(0, len(self._window_sizes) - self.window_frames)
        gone = sum(self._window_sizes.popleft() for _ in range(out))
        k = max(0, len(fresh) - len(self._window_sizes))  # fresh frames expelled too
        expelled = TokenBlock.concat([window.take(slice(0, gone)), *fresh[:k]])
        self.members = TokenBlock.concat([reference, window.take(slice(gone, None)), *fresh[k:], anchors])
        return expelled

    def update_scores(self, mass: np.ndarray) -> None:
        """Decay-and-accumulate: s <- gamma * s + mass, in snapshot order."""
        mass = np.asarray(mass, dtype=np.float64)
        if mass.shape != (self.member_count,):
            raise DimensionError(
                f"mass shape {mass.shape} misaligned with {self.member_count} cache members"
            )
        self.members.scores *= self.gamma
        self.members.scores += mass

    def select_anchors(self, expelled: TokenBlock) -> TokenBlock:
        """Rank current anchors plus expelled rows; keep the top ones.

        Ties break deterministically: higher score first, then younger
        frame, then lower token index. Losers are returned in rank order
        and are no longer cache members; their scores stay frozen at the
        value they held here.
        """
        if self.members is None:  # no reference: the anchors are all there is
            self.members = expelled.take(slice(0, 0))
        reference, window, anchors = self.blocks()
        candidates = TokenBlock.concat([anchors, expelled])
        order = np.lexsort((candidates.tokens, -candidates.frames, -candidates.scores))
        self.members = TokenBlock.concat([reference, window, candidates.take(order[: self.anchor_budget])])
        return candidates.take(order[self.anchor_budget :])

    # -- helpers ----------------------------------------------------------

    def _make_block(self, frame: FrameTokens, scores: np.ndarray | None) -> TokenBlock:
        # The frame's tokens with (quantized) copies of its keys and values.
        keys, values = frame.keys, frame.values
        if self.quantize:
            self.half_saturations += int((np.abs(keys) > HALF_MAX).sum())
            self.half_saturations += int((np.abs(values) > HALF_MAX).sum())
            keys = half_roundtrip(keys)
            values = half_roundtrip(values)
        try:
            return TokenBlock.build(
                keys, values, frame.positions, frame.position_mask, scores,
                frames=frame.frame_idx,
            )
        except DimensionError as e:
            raise DimensionError(f"frame {frame.frame_idx}: {e}") from None
