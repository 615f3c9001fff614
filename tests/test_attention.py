"""Attention engine against a triple-loop oracle, plus the count bias."""

import functools
import tracemalloc

import numpy as np
import pytest

from stacache import DimensionError, EmptySupportError, Workspace, attend, attention
from oracles import allocating_attend, longdouble_attend, naive_attend, previous_attend


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


ATTEND_CASES = [
    (1, 1, 4, 1, 1.0, False),
    (1, 37, 8, 5, 1.0, False),
    (9, 1, 8, 1e6, 1.0, False),
    (64, 300, 32, 1e6, 1.0, False),
    (256, 1056, 32, 50, 1.0, False),
    (7, 16384, 16, 1e6, 1.0, False),
    (33, 513, 32, 1e6, 16.0, False),  # logits around +-1e3
    (5, 40, 4, 1, 1.0, False),
    (16, 300, 8, 50, 1.0, True),
]


def _case_id(case):
    # a case is named by its sizes, plus "inner" for the inner-span case
    return "-".join(str(x) for x in case[:5]) + ("-inner" if case[5] else "")


def _attend_case(n_q, n_k, d, count_hi, scale, inner):
    rng = np.random.default_rng(n_q * 7919 + n_k)
    q = rng.normal(size=(n_q, d)) * scale
    k = rng.normal(size=(n_k, d)) * scale
    v = rng.normal(size=(n_k, d))
    counts = np.floor(rng.uniform(1.0, count_hi + 1.0, size=n_k))
    if inner:
        # Counts above 1 fill an inner span only, ends included, so attend
        # adds the bias on that span alone; column 0 lies outside it.
        lo, hi = n_k // 3, 2 * n_k // 3
        counts[:lo] = counts[hi:] = 1.0
        counts[lo] = counts[hi - 1] = 2.0
    return rng, q, k, v, counts


def _negative_zero_logit(monkeypatch, call):
    """call() with np.matmul returning -0.0 for the zero logit [0, 0] of
    every product it takes, whatever sign the GEMM gave that zero."""
    matmul, signs = np.matmul, []

    def planting(*args, **kwargs):
        w = matmul(*args, **kwargs)
        assert w[0, 0] == 0.0
        w[0, 0] = -0.0
        signs.append(np.signbit(w[0, 0]))
        return w

    with monkeypatch.context() as patched:
        patched.setattr(np, "matmul", planting)
        result = call()
    assert signs == [True]
    return result


@pytest.mark.parametrize("n_q, n_k, d, count_hi, scale, inner", ATTEND_CASES,
                         ids=[_case_id(case) for case in ATTEND_CASES])
def test_attend_is_bit_identical_to_allocating_form(n_q, n_k, d, count_hi, scale, inner,
                                                    monkeypatch):
    rng, q, k, v, counts = _attend_case(n_q, n_k, d, count_hi, scale, inner)
    run = lambda call: call()
    if count_hi == 1 or inner:
        # Column 0 has count 1, so attend adds it no bias, where the
        # allocating form adds + ln(1). Plant a zero logit there: the
        # scaled query -1/sqrt(d_h) times 5e-324 underflows. Its sign is
        # the GEMM's to choose, so every product of these inputs, in attend
        # and in the allocating form (which + ln(1) turns into +0.0), is
        # handed -0.0 there, and the weights must still agree.
        q[0], k[0] = 0.0, 0.0
        q[0, 0], k[0, 0] = -1.0, 5e-324
        logit = ((q / np.sqrt(float(d))) @ k.T)[0, 0]
        assert logit == 0.0
        assert not np.log(counts[: 1 if inner else n_k]).any()
        run = functools.partial(_negative_zero_logit, monkeypatch)
    inputs = [a.copy() for a in (q, k, v, counts)]
    ref_out, ref_mass = run(lambda: allocating_attend(q, k, v, counts, d))
    # Through one workspace: sized to this case, then grown past it by a
    # K = 16384 call and used as a prefix, then after a K = 1 call.
    workspace = Workspace()
    results = [run(lambda: attend(q, k, v, counts, d)),
               run(lambda: attend(q, k, v, counts, d, workspace=workspace))]
    kept = [(r.outputs.copy(), r.mass.copy()) for r in results]
    for big_q, big_k in ((n_q + 1, 16384), (1, 1)):
        attend(rng.normal(size=(big_q, d)), rng.normal(size=(big_k, d)),
               rng.normal(size=(big_k, d)), np.ones(big_k), d, workspace=workspace)
        results.append(run(lambda: attend(q, k, v, counts, d, workspace=workspace)))
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
        logits = (q / np.sqrt(float(d))) @ k.T
        assert np.abs(logits).max() > 500.0


def _rel_error(got, ref):
    """The largest error of a row (of the vector, for one) over that row's
    largest magnitude, taken in extended precision."""
    got, ref = np.atleast_2d(got).astype(np.longdouble), np.atleast_2d(ref)
    return float((np.abs(got - ref).max(axis=1) / np.abs(ref).max(axis=1)).max())


ACCURACY_CASES = ATTEND_CASES + [(256, 832, 32, 1, 1.0, False)]


@pytest.mark.parametrize("n_q, n_k, d, count_hi, scale, inner", ACCURACY_CASES,
                         ids=[_case_id(case) for case in ACCURACY_CASES])
def test_attend_is_as_accurate_as_the_previous_arithmetic(n_q, n_k, d, count_hi, scale, inner):
    # Normalizing after the products rounds differently, not worse: against
    # an extended-precision softmax, attend's outputs and mass stay within
    # twice the error of the arithmetic that divided the Q x K weights
    _, q, k, v, counts = _attend_case(n_q, n_k, d, count_hi, scale, inner)
    ref = longdouble_attend(q, k, v, counts, d)
    res = attend(q, k, v, counts, d)
    for got, before, want in zip((res.outputs, res.mass), previous_attend(q, k, v, counts, d), ref):
        error = _rel_error(got, want)
        assert error <= 2.0 * _rel_error(before, want)
        assert error <= 1e-12


@pytest.mark.parametrize("n_q, n_k", [(1, 8191), (5, 8193), (256, 797), (256, 8192 + 300),
                                      (1, 70), (256, 40)])
def test_attend_bits_do_not_depend_on_the_ufunc_buffer(n_q, n_k, monkeypatch):
    # attend runs its broadcasting passes under a small ufunc buffer; under
    # numpy's default one they must give the same bits, with key counts on
    # both sides of the default buffer's 8192 elements and a span of counts
    # above 1, so the bias add runs too
    rng = np.random.default_rng(n_q + n_k)
    d = 16
    q, k, v = (rng.normal(size=(n, d)) for n in (n_q, n_k, n_k))
    counts = np.ones(n_k)
    counts[n_k // 4 : n_k // 2] = rng.integers(1, 6, size=n_k // 2 - n_k // 4)
    small = attend(q, k, v, counts, d)
    assert attention._ROW_BUFSIZE < np.getbufsize() == 8192
    monkeypatch.setattr(attention, "_ROW_BUFSIZE", np.getbufsize())
    default = attend(q, k, v, counts, d)
    assert np.array_equal(small.outputs, default.outputs)
    assert np.array_equal(small.mass, default.mass)


def test_attend_leaves_the_callers_buffer_size_and_error_state():
    rng = np.random.default_rng(3)
    q, k, v = (rng.normal(size=(4, 8)) for _ in range(3))
    with np.errstate(divide="raise", over="warn", under="print", invalid="call"):
        np.seterrcall(lambda *args: None)
        np.setbufsize(4096)
        state = np.geterr()
        attend(q, k, v, np.ones(4), 8)
        assert (np.getbufsize(), np.geterr()) == (4096, state)
        with pytest.raises(EmptySupportError):
            attend(q, k[:0], v[:0], np.ones(0), 8)
        assert (np.getbufsize(), np.geterr()) == (4096, state)
    assert np.getbufsize() == 8192


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
