"""Attention engine against a triple-loop oracle, plus the count bias."""

import tracemalloc

import numpy as np
import pytest

from stacache import DimensionError, EmptySupportError, Workspace, attend
from oracles import naive_attend


def _random_instance(rng, n_q=None, n_k=None, d=None):
    n_q = n_q or int(rng.integers(1, 8))
    n_k = n_k or int(rng.integers(1, 12))
    d = d or int(rng.integers(1, 9))
    q = rng.normal(size=(n_q, d))
    k = rng.normal(size=(n_k, d))
    v = rng.normal(size=(n_k, d))
    counts = rng.integers(1, 6, size=n_k).astype(float)
    return q, k, v, counts, d


def test_attend_matches_naive_oracle():
    rng = np.random.default_rng(21)
    for _ in range(60):
        q, k, v, counts, d = _random_instance(rng)
        res = attend(q, k, v, counts, d)
        allowed = np.ones((q.shape[0], k.shape[0]), dtype=bool)
        ref_out, ref_mass = naive_attend(q, k, v, counts, allowed, d)
        assert np.allclose(res.outputs, ref_out, atol=1e-12)
        assert np.allclose(res.mass, ref_mass, atol=1e-12)


def test_attend_matches_oracle_under_partial_masks():
    # attend has no mask: a masked-out key is a key left out of the key set,
    # which is how the pipeline builds each channel's keys. Attending each
    # query row over its allowed keys must match the masked oracle.
    rng = np.random.default_rng(22)
    for _ in range(60):
        q, k, v, counts, d = _random_instance(rng)
        allowed = rng.random((q.shape[0], k.shape[0])) < 0.7
        for i in range(q.shape[0]):
            if not allowed[i].any():
                allowed[i, rng.integers(0, k.shape[0])] = True
        outputs = np.empty((q.shape[0], v.shape[1]))
        mass = np.zeros(k.shape[0])
        for i in range(q.shape[0]):
            sel = allowed[i]
            res = attend(q[i:i + 1], k[sel], v[sel], counts[sel], d)
            outputs[i] = res.outputs[0]
            mass[sel] += res.mass
        ref_out, ref_mass = naive_attend(q, k, v, counts, allowed, d)
        assert np.allclose(outputs, ref_out, atol=1e-12)
        assert np.allclose(mass, ref_mass, atol=1e-12)
        # a key no query may see receives exactly zero mass
        dead = ~allowed.any(axis=0)
        assert (mass[dead] == 0.0).all()


def _allocating_attend(q, k, v, counts, d_h):
    """The previous attend: a fresh Q x K array for every step."""
    logits = q @ k.T / np.sqrt(float(d_h)) + np.log(counts)[None, :]
    shifted = logits - logits.max(axis=1, keepdims=True)
    w = np.exp(shifted)
    w /= w.sum(axis=1, keepdims=True)
    return w @ v, w.sum(axis=0)


@pytest.mark.parametrize(
    "n_q, n_k, d, count_hi, scale",
    [
        (1, 1, 4, 1, 1.0),
        (1, 37, 8, 5, 1.0),
        (9, 1, 8, 1e6, 1.0),
        (64, 300, 32, 1e6, 1.0),
        (256, 1056, 32, 50, 1.0),
        (7, 16384, 16, 1e6, 1.0),
        (33, 513, 32, 1e6, 16.0),  # logits around +-1e3
        (5, 40, 4, 1, 1.0),
    ],
)
def test_attend_is_bit_identical_to_allocating_form(n_q, n_k, d, count_hi, scale):
    rng = np.random.default_rng(n_q * 7919 + n_k)
    q = rng.normal(size=(n_q, d)) * scale
    k = rng.normal(size=(n_k, d)) * scale
    v = rng.normal(size=(n_k, d))
    counts = np.floor(rng.uniform(1.0, count_hi + 1.0, size=n_k))
    if count_hi == 1:
        # All counts are 1, so attend skips the zero bias. Plant a -0.0
        # logit, which the allocating form's + ln(1) turns into +0.0: the
        # product -5e-324 underflows to -0.0 when scaled by 1/sqrt(d_h).
        # (q = -1, k = 0 would not do: matmul sums from +0.0.)
        q[0], k[0] = 0.0, 0.0
        q[0, 0], k[0, 0] = -1.0, 5e-324
        logit = (q @ k.T / np.sqrt(float(d)))[0, 0]
        assert logit == 0.0 and np.signbit(logit) and not np.log(counts).any()
    inputs = [a.copy() for a in (q, k, v, counts)]
    ref_out, ref_mass = _allocating_attend(q, k, v, counts, d)
    # Through one workspace: sized to this case, then grown past it by a
    # K = 16384 call and used as a prefix, then after a K = 1 call.
    workspace = Workspace()
    results = [attend(q, k, v, counts, d), attend(q, k, v, counts, d, workspace=workspace)]
    kept = [(r.outputs.copy(), r.mass.copy()) for r in results]
    for big_q, big_k in ((n_q + 1, 16384), (1, 1)):
        attend(rng.normal(size=(big_q, d)), rng.normal(size=(big_k, d)),
               rng.normal(size=(big_k, d)), np.ones(big_k), d, workspace=workspace)
        results.append(attend(q, k, v, counts, d, workspace=workspace))
        kept.append((results[-1].outputs.copy(), results[-1].mass.copy()))
    for res, (out, mass) in zip(results, kept):
        assert np.array_equal(res.outputs, ref_out)
        assert np.array_equal(res.mass, ref_mass)
        # outputs and mass never alias the workspace: later calls leave them be
        assert np.array_equal(res.outputs, out)
        assert np.array_equal(res.mass, mass)
    # the in-place steps work on their own buffer, never the caller's arrays
    for before, after in zip(inputs, (q, k, v, counts)):
        assert np.array_equal(before, after)
    if scale > 1.0:
        logits = q @ k.T / np.sqrt(float(d))
        assert np.abs(logits).max() > 500.0


def test_attend_through_a_warm_workspace_allocates_no_q_by_k_array():
    rng = np.random.default_rng(25)
    n_q, n_k, d = 256, 4096, 32
    q, k, v = rng.normal(size=(n_q, d)), rng.normal(size=(n_k, d)), rng.normal(size=(n_k, d))
    counts = np.ones(n_k)
    workspace = Workspace()
    attend(q, k, v, counts, d, workspace=workspace)
    tracemalloc.start()
    try:
        attend(q, k, v, counts, d, workspace=workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_q * n_k * 8 / 4


def test_count_bias_equals_duplication():
    # One representative with count n must attend exactly like n copies.
    rng = np.random.default_rng(23)
    for _ in range(40):
        d = int(rng.integers(2, 10))
        n = int(rng.integers(1, 9))
        q = rng.normal(size=(3, d))
        base_k = rng.normal(size=(4, d))
        base_v = rng.normal(size=(4, d))
        rep_k = rng.normal(size=d)
        rep_v = rng.normal(size=d)

        dup_k = np.vstack([base_k] + [rep_k] * n)
        dup_v = np.vstack([base_v] + [rep_v] * n)
        dup = attend(q, dup_k, dup_v, np.ones(4 + n), d)

        rep_keys = np.vstack([base_k, rep_k])
        rep_vals = np.vstack([base_v, rep_v])
        counts = np.array([1.0] * 4 + [float(n)])
        rep = attend(q, rep_keys, rep_vals, counts, d)

        assert np.allclose(rep.outputs, dup.outputs, atol=1e-9)
        # the representative's mass equals the sum over the duplicates
        assert rep.mass[-1] == pytest.approx(dup.mass[4:].sum(), abs=1e-9)


def test_mass_sums_to_query_count():
    rng = np.random.default_rng(24)
    q, k, v, counts, d = _random_instance(rng, n_q=7, n_k=11)
    res = attend(q, k, v, counts, d)
    assert res.mass.sum() == pytest.approx(7.0, abs=1e-9)
    assert (res.mass >= 0.0).all()


def test_attend_is_stable_for_large_logits():
    d = 4
    q = np.full((2, d), 50.0)
    k = np.vstack([np.full(d, 50.0), -np.full(d, 50.0)])
    v = np.eye(2, d)
    res = attend(q, k, v, np.ones(2), d)
    assert np.isfinite(res.outputs).all()
    # the aligned key takes essentially all the weight
    assert np.allclose(res.outputs, np.tile(v[0], (2, 1)), atol=1e-12)


def test_attend_error_paths():
    d = 3
    q = np.zeros((2, d))
    k = np.zeros((4, d))
    v = np.zeros((4, d))
    ones = np.ones(4)
    with pytest.raises(EmptySupportError):
        attend(q, np.zeros((0, d)), np.zeros((0, d)), np.zeros(0), d)
    with pytest.raises(DimensionError):
        attend(q, np.zeros((4, d + 1)), v, ones, d)
    with pytest.raises(DimensionError):
        attend(q, k, np.zeros((3, d)), ones, d)
    with pytest.raises(DimensionError):
        attend(q, k, v, np.ones(3), d)
    with pytest.raises(DimensionError):
        attend(q, k, v, np.full(4, 0.5), d)  # counts below 1
    with pytest.raises(DimensionError):
        attend(q, k, v, np.array([1.0, np.nan, 1.0, 1.0]), d)
    with pytest.raises(DimensionError):
        attend(q, k, v, np.array([1.0, np.inf, 1.0, 1.0]), d)
