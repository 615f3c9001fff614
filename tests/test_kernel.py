"""Numeric primitive checks, mostly against plain-Python oracles."""

import numpy as np
import pytest

from stacache import (
    DegenerateVectorError,
    DimensionError,
    HALF_MAX,
    attend,
    half_roundtrip,
)
from oracles import py_softmax, weighted_mean


def _row_softmax(logits, mask):
    """attend's row softmax over the unmasked logits, scattered back.

    With d_h = 1, a single query of 1.0, keys equal to the logits and unit
    counts, attend's per-key mass is that query's softmax weights. A masked
    logit is a key left out of the key set.
    """
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    sel = logits[mask][:, None]
    res = attend(np.ones((1, 1)), sel, np.zeros_like(sel), np.ones(sel.shape[0]), 1)
    out = np.zeros(logits.size)
    out[mask] = res.mass
    return out


def test_masked_softmax_known_value():
    out = _row_softmax([1.0, 2.0, 3.0], [True, True, True])
    assert np.allclose(out, [0.0900, 0.2447, 0.6652], atol=1e-4)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_masked_softmax_matches_oracle_with_masks():
    rng = np.random.default_rng(15)
    for _ in range(200):
        n = rng.integers(1, 16)
        logits = rng.normal(scale=3.0, size=n)
        mask = rng.random(n) < 0.6
        if not mask.any():
            mask[rng.integers(0, n)] = True
        out = _row_softmax(logits, mask)
        assert np.allclose(out, py_softmax(logits, mask), atol=1e-12)
        assert (out[~mask] == 0.0).all()


def test_weighted_mean_equal_weights_is_mean():
    rng = np.random.default_rng(16)
    vecs = rng.normal(size=(5, 7))
    out = weighted_mean(vecs, np.full(5, 2.5))
    assert np.allclose(out, vecs.mean(axis=0), atol=1e-12)


def test_weighted_mean_single_vector_identity():
    v = np.array([1.0, -2.0, 3.0])
    assert np.allclose(weighted_mean(v[None, :], [0.3]), v)


def test_weighted_mean_weight_scale_invariant():
    rng = np.random.default_rng(17)
    vecs = rng.normal(size=(4, 5))
    w = rng.random(4) + 0.1
    a = weighted_mean(vecs, w)
    b = weighted_mean(vecs, 10.0 * w)
    assert np.allclose(a, b, atol=1e-12)


def test_weighted_mean_rejects_bad_input():
    with pytest.raises(DimensionError):
        weighted_mean(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(DegenerateVectorError):
        weighted_mean(np.ones((2, 3)), [1.0, 0.0])
    with pytest.raises(DimensionError):
        weighted_mean(np.ones((2, 3)), [1.0])


def test_half_roundtrip_known_value():
    out = half_roundtrip([0.1])
    assert out[0] == 0.0999755859375


def test_half_roundtrip_idempotent():
    rng = np.random.default_rng(18)
    a = rng.normal(scale=10.0, size=100)
    once = half_roundtrip(a)
    assert np.array_equal(half_roundtrip(once), once)


def test_half_roundtrip_saturates():
    out = half_roundtrip([1e6, -1e6, HALF_MAX])
    assert out[0] == HALF_MAX
    assert out[1] == -HALF_MAX
    assert out[2] == HALF_MAX
    assert np.isfinite(out).all()


def test_half_roundtrip_relative_error_bound():
    # Normal-range float16 has a 10-bit mantissa: relative error <= 2^-11.
    rng = np.random.default_rng(19)
    a = rng.uniform(1e-3, 1e3, size=1000) * rng.choice([-1.0, 1.0], size=1000)
    out = half_roundtrip(a)
    rel = np.abs(out - a) / np.abs(a)
    assert rel.max() <= 2.0**-11 + 1e-12
