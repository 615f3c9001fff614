"""Token and configuration records shared by the temporal and spatial caches."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError


class TokenId(NamedTuple):
    """Identity of a token by its birth coordinates in the stream."""

    frame_idx: int
    token_idx: int


@dataclass
class TokenBlock:
    """Tokens of one channel held as rows of arrays, not as objects.

    rows[i] is token i's [key | value | position], 2 * d_h + 3 floats; the
    position columns of a row whose mask is False are junk and never read.
    The other fields are parallel per-row columns. Merged representatives
    synthesized inside the spatial cache carry frame -1 and a store-assigned
    serial as their token index, so ids stay unique without pretending a
    merged vector was ever part of a frame.
    """

    rows: np.ndarray    # (n, 2 * d_h + 3) float64
    mask: np.ndarray    # (n,) bool: the token has a position
    scores: np.ndarray  # (n,) float64: decayed attention mass
    frames: np.ndarray  # (n,) int64: birth frame
    tokens: np.ndarray  # (n,) int64: index within the birth frame
    counts: np.ndarray  # (n,) int64: source tokens the row stands for

    @classmethod
    def build(cls, keys, values, positions=None, mask=None, scores=None,
              frames=0, tokens=None, counts=1) -> "TokenBlock":
        """Block from per-field arrays; positions=None means none present."""
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 2:
            raise DimensionError(f"keys must be (n, d_h), got shape {keys.shape}")
        n, d = keys.shape
        rows = np.zeros((n, 2 * d + 3))
        rows[:, :d] = keys
        rows[:, d : 2 * d] = values
        if positions is not None:
            rows[:, 2 * d :] = positions
        if mask is None:
            mask = np.full(n, positions is not None)
        block = cls(
            rows,
            np.array(mask, dtype=bool),
            np.zeros(n) if scores is None else np.array(scores, dtype=np.float64),
            np.array(np.broadcast_to(frames, (n,)), dtype=np.int64),
            np.arange(n, dtype=np.int64) if tokens is None else np.array(tokens, dtype=np.int64),
            np.array(np.broadcast_to(counts, (n,)), dtype=np.int64),
        )
        for name in ("mask", "scores", "tokens"):
            if getattr(block, name).shape != (n,):
                raise DimensionError(
                    f"{n} tokens but {name} has shape {getattr(block, name).shape}"
                )
        return block

    @classmethod
    def empty(cls, d_h: int) -> "TokenBlock":
        return cls.build(np.empty((0, d_h)), np.empty((0, d_h)))

    @classmethod
    def concat(cls, blocks: list["TokenBlock"]) -> "TokenBlock":
        return cls(*(np.concatenate(column) for column in zip(*(b.columns() for b in blocks))))

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.rows, self.mask, self.scores, self.frames, self.tokens, self.counts)

    def take(self, index) -> "TokenBlock":
        """The rows at index, in index order: copies for an index array,
        views for a slice."""
        return TokenBlock(*(column[index] for column in self.columns()))

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def d_h(self) -> int:
        return (self.rows.shape[1] - 3) // 2

    @property
    def keys(self) -> np.ndarray:
        return self.rows[:, : self.d_h]

    @property
    def values(self) -> np.ndarray:
        d = self.d_h
        return self.rows[:, d : 2 * d]

    @property
    def positions(self) -> np.ndarray:
        return self.rows[:, 2 * self.d_h :]

    def ids(self) -> list[TokenId]:
        return [TokenId(f, t) for f, t in zip(self.frames.tolist(), self.tokens.tolist())]


@dataclass
class FrameTokens:
    """All tokens one frame contributes to one (layer, head) channel.

    positions carries one 3-D point per token; position_mask marks which
    rows are real. Rows with a False mask (no geometry for that token) are
    junk and must never be read.
    """

    frame_idx: int
    queries: np.ndarray      # (N, d_h)
    keys: np.ndarray         # (N, d_h)
    values: np.ndarray       # (N, d_h)
    positions: np.ndarray    # (N, 3)
    position_mask: np.ndarray  # (N,) bool

    @property
    def token_count(self) -> int:
        return self.keys.shape[0]


@dataclass
class CacheConfig:
    """Tuning knobs for the compression scheme, with the published defaults.

    budget_multiplier is the total attendable budget in frame-token
    multiples; the three fractions split it between the temporal window,
    the anchor set, and spatial retrieval, and must sum to 1.
    """

    gamma: float = 0.9               # per-chunk score decay
    merge_lambda: float = 0.8        # cosine threshold for key merging
    voxel_size: float = 0.05         # edge length of a voxel cell
    g_cap: int = 4                   # merged representatives per voxel
    e_cap: int = 8                   # buffered evictees per voxel
    knn_radius_mult: float = 2.0     # retrieval neighborhood, in voxel sizes
    budget_multiplier: float = 8.0   # attendable budget, in frame-token multiples
    window_frac: float = 0.5
    anchor_frac: float = 0.25
    retrieve_frac: float = 0.25
    window_frames: int = 4           # frames kept verbatim in the window
    half_precision: bool = False     # quantize cache contents through float16

    def splits(self) -> tuple[float, float, float]:
        return (self.window_frac, self.anchor_frac, self.retrieve_frac)


def validate_config(config: CacheConfig) -> list[str]:
    """Return a list of human-readable problems; empty means valid."""
    problems: list[str] = []
    c = config
    if not (0.0 < c.gamma < 1.0):
        problems.append(f"gamma must lie in (0, 1), got {c.gamma}")
    if not (-1.0 < c.merge_lambda <= 1.0):
        problems.append(f"merge_lambda must lie in (-1, 1], got {c.merge_lambda}")
    if not (0.0 < c.voxel_size < math.inf):
        problems.append(f"voxel_size must be positive and finite, got {c.voxel_size}")
    if c.g_cap < 1:
        problems.append(f"g_cap must be >= 1, got {c.g_cap}")
    if c.e_cap < 1:
        problems.append(f"e_cap must be >= 1, got {c.e_cap}")
    if not (c.knn_radius_mult > 0.0):
        problems.append(f"knn_radius_mult must be positive, got {c.knn_radius_mult}")
    if not (0.0 < c.budget_multiplier < math.inf):
        problems.append(f"budget_multiplier must be positive and finite, got {c.budget_multiplier}")
    # written so that a NaN fraction fails
    fracs = c.splits()
    if not all(f >= 0.0 for f in fracs):
        problems.append(f"budget fractions must be non-negative, got {fracs}")
    elif not (abs(sum(fracs) - 1.0) <= 1e-12):
        problems.append(f"budget fractions must sum to 1, got sum {sum(fracs)!r}")
    if c.window_frames < 1:
        problems.append(f"window_frames must be >= 1, got {c.window_frames}")
    # The window must fit inside its budget share: window_frames * N tokens
    # against window_frac * budget_multiplier * N, with N cancelling.
    if not problems and c.window_frames > c.window_frac * c.budget_multiplier + 1e-12:
        problems.append(
            f"window_frames={c.window_frames} exceeds its budget share "
            f"({c.window_frac} * {c.budget_multiplier} frames)"
        )
    return problems
