"""Config validation and token record basics."""

import math

import numpy as np
import pytest

from stacache import CacheConfig, DimensionError, FrameTokens, TokenBlock, TokenId, validate_config


def test_default_config_is_valid():
    assert validate_config(CacheConfig()) == []


def test_default_config_values():
    c = CacheConfig()
    assert c.gamma == 0.9
    assert c.merge_lambda == 0.8
    assert c.voxel_size == 0.05
    assert c.g_cap == 4
    assert c.e_cap == 8
    assert c.knn_radius_mult == 2.0
    assert c.budget_multiplier == 8.0
    assert c.splits() == (0.5, 0.25, 0.25)
    assert c.window_frames == 4
    assert c.half_precision is False


@pytest.mark.parametrize(
    "field,value,needle",
    [
        ("gamma", 0.0, "gamma"),
        ("gamma", 1.0, "gamma"),
        ("gamma", -0.2, "gamma"),
        ("merge_lambda", 1.5, "merge_lambda"),
        ("merge_lambda", -1.0, "merge_lambda"),
        ("voxel_size", 0.0, "voxel_size"),
        ("voxel_size", -0.1, "voxel_size"),
        ("voxel_size", math.inf, "voxel_size"),
        ("g_cap", 0, "g_cap"),
        ("e_cap", 0, "e_cap"),
        ("knn_radius_mult", 0.0, "knn_radius_mult"),
        ("budget_multiplier", 0.0, "budget_multiplier"),
        ("budget_multiplier", math.inf, "budget_multiplier"),
        ("window_frac", math.nan, "fractions"),
        ("anchor_frac", math.nan, "fractions"),
        ("window_frames", 0, "window_frames"),
    ],
)
def test_invalid_fields_are_reported(field, value, needle):
    c = CacheConfig()
    setattr(c, field, value)
    problems = validate_config(c)
    assert problems, f"{field}={value} should be invalid"
    assert any(needle in p for p in problems)


def test_fraction_sum_must_be_one():
    c = CacheConfig(window_frac=0.5, anchor_frac=0.3, retrieve_frac=0.3)
    assert any("sum" in p for p in validate_config(c))
    c = CacheConfig(window_frac=-0.1, anchor_frac=0.6, retrieve_frac=0.5)
    assert any("non-negative" in p for p in validate_config(c))


def test_window_must_fit_its_budget_share():
    # 5 window frames against a share of 0.5 * 8 = 4 frames.
    c = CacheConfig(window_frames=5)
    assert any("exceeds its budget share" in p for p in validate_config(c))
    # Growing the budget makes the same window legal.
    assert validate_config(CacheConfig(window_frames=5, budget_multiplier=10.0)) == []


def test_token_id_ordering_and_hash():
    a, b = TokenId(1, 2), TokenId(1, 3)
    assert a < b
    assert TokenId(0, 9) < a
    assert len({a, b, TokenId(1, 2)}) == 2


def test_frame_tokens_count():
    n, d = 5, 4
    ft = FrameTokens(
        frame_idx=3,
        queries=np.zeros((n, d)),
        keys=np.zeros((n, d)),
        values=np.zeros((n, d)),
        positions=np.zeros((n, 3)),
        position_mask=np.ones(n, dtype=bool),
    )
    assert ft.token_count == n



def test_token_block_rows_take_and_concat():
    keys, values = np.arange(6.0).reshape(3, 2), -np.arange(6.0).reshape(3, 2)
    positions = np.arange(9.0).reshape(3, 3)
    block = TokenBlock.build(keys, values, positions, mask=[True, False, True],
                             scores=[0.5, 0.0, 2.0], frames=7)
    assert len(block) == 3 and block.d_h == 2
    assert block.rows.shape == (3, 2 * 2 + 3)
    assert np.array_equal(block.keys, keys) and np.array_equal(block.values, values)
    assert np.array_equal(block.positions, positions)
    assert block.ids() == [TokenId(7, 0), TokenId(7, 1), TokenId(7, 2)]
    assert block.counts.tolist() == [1, 1, 1]
    picked = block.take([2, 0])
    assert picked.ids() == [TokenId(7, 2), TokenId(7, 0)]
    assert picked.mask.tolist() == [True, True] and picked.scores.tolist() == [2.0, 0.5]
    picked.scores[0] = 9.0  # a taken block owns its columns
    assert block.scores[2] == 2.0
    both = TokenBlock.concat([block, picked])
    assert both.tokens.tolist() == [0, 1, 2, 2, 0]
    assert np.array_equal(both.rows[3:], picked.rows)
    assert len(TokenBlock.empty(2)) == 0 and TokenBlock.empty(2).d_h == 2
    with pytest.raises(DimensionError):
        TokenBlock.build(keys, values, positions, mask=[True, False])
    with pytest.raises(DimensionError):
        TokenBlock.build(keys, values, scores=[1.0])
