"""Reference-math checks: RNG, error metric, dense and paged references."""

from __future__ import annotations

import numpy as np
import pytest

from tilec import oracle
from tilec.oracle import (
    AttentionProblem,
    OracleError,
    PagedKV,
    attention_ref,
    gemm_ref,
    paged_attention_ref,
    paged_blockwise_ref,
    philox,
    rand_f16,
    rel_max_err,
)


def test_philox_reproducible():
    a = philox(7).random(16)
    b = philox(7).random(16)
    c = philox(8).random(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rand_f16_range_and_quantization():
    x = rand_f16(philox(3), 64, 32)
    assert x.shape == (64, 32)
    assert x.dtype == np.float32
    assert x.min() >= 0.0 and x.max() < 1.0
    assert np.array_equal(x, x.astype(np.float16).astype(np.float32))


def test_rel_max_err_floor():
    got = np.array([1.0, 0.0, 2.0])
    assert rel_max_err(got, got) == 0.0
    # a tiny reference is floored, so noise near zero stays finite
    err = rel_max_err(np.array([1e-9]), np.array([0.0]))
    assert err == pytest.approx(1e-9 / 1e-6)


def test_rel_max_err_shape_mismatch():
    with pytest.raises(ValueError):
        rel_max_err(np.zeros(3), np.zeros(4))


def _rel_max_err_by_formula(got, want, floor=1e-6):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), floor)))


@pytest.mark.parametrize("got_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("want_dtype", [np.float32, np.float64])
def test_rel_max_err_has_the_formulas_bits(got_dtype, want_dtype):
    rng = philox(19)
    for _ in range(20):
        want = rng.standard_normal((64, 48)) * 10.0 ** rng.integers(-9, 3, size=(64, 48))
        want[rng.random((64, 48)) < 0.05] = 0.0  # under the floor too
        got = want * (1 + rng.standard_normal((64, 48)) * 1e-3) + rng.standard_normal((64, 48)) * 1e-8
        got, want = got.astype(got_dtype), want.astype(want_dtype)
        err = rel_max_err(got, want)
        assert np.float64(err).view(np.uint64) == np.float64(_rel_max_err_by_formula(got, want)).view(np.uint64)
    assert rel_max_err(np.float32(2.0), np.float32(1.0)) == 1.0  # 0-d operands


def test_rel_max_err_of_a_nan_is_nan():
    want = np.ones((4, 4), dtype=np.float64)
    got = want.astype(np.float32)
    got[2, 1] = np.nan
    err = rel_max_err(got, want)
    assert np.isnan(err) and not err <= 1.0  # a tolerance check fails it


def test_rel_max_err_of_nothing_is_zero():
    assert rel_max_err(np.zeros((0, 3), np.float32), np.zeros((0, 3))) == 0.0


def test_gemm_ref_matches_f32_matmul():
    rng = philox(11)
    a = rand_f16(rng, 8, 12)
    b = rand_f16(rng, 12, 6)
    c0 = rng.random((8, 6)).astype(np.float32)
    want = c0 + a.astype(np.float32) @ b.astype(np.float32)
    assert np.array_equal(gemm_ref(a, b, c0), want)


def test_gemm_ref_shape_mismatch():
    with pytest.raises(ValueError):
        gemm_ref(np.zeros((4, 3)), np.zeros((5, 2)), np.zeros((4, 2)))


def test_attention_ref_agrees_with_monolithic():
    rng = philox(13)
    q = rand_f16(rng, 32, 16)
    k = rand_f16(rng, 32, 16)
    v = rand_f16(rng, 32, 16)
    out = attention_ref(AttentionProblem(q, k, v, block_size=8))

    s = q.astype(np.float64) @ k.astype(np.float64).T
    p = np.exp(s - s.max(axis=1, keepdims=True))
    mono = (p / p.sum(axis=1, keepdims=True)) @ v.astype(np.float64)
    assert rel_max_err(out, mono) <= 1e-3


def test_attention_ref_self_check_fires(monkeypatch):
    rng = philox(13)
    p = AttentionProblem(*(rand_f16(rng, 32, 16) for _ in range(3)), block_size=8)
    attention_ref(p)
    # only the monolithic path calls _softmax_pv: make it disagree
    softmax_pv = oracle._softmax_pv
    monkeypatch.setattr(oracle, "_softmax_pv", lambda s, v: softmax_pv(s, v) * 1.01)
    with pytest.raises(OracleError, match="online vs monolithic softmax diverged: rel err 9.9"):
        attention_ref(p)


def test_attention_ref_self_check_rejects_a_nan():
    rng = philox(13)
    q, k, v = (rand_f16(rng, 16, 8) for _ in range(3))
    q[3, 5] = np.nan  # one NaN row in both paths, so their error is NaN
    with pytest.raises(OracleError, match="rel err nan"):
        attention_ref(AttentionProblem(q, k, v, block_size=4))


def test_attention_problem_validation():
    q = np.zeros((8, 4))
    with pytest.raises(ValueError):
        AttentionProblem(q, np.zeros((8, 5)), q, 4)
    with pytest.raises(ValueError):
        AttentionProblem(q, q, q, 3)  # 8 % 3 != 0


def test_paged_refs():
    rng = philox(17)
    kb = rand_f16(rng, 6, 4, 8)
    vb = rand_f16(rng, 6, 4, 8)
    q = rand_f16(rng, 1, 8)
    kv = PagedKV((2, 0, 5, 2), kb, vb)

    # exact reference equals attention over the gathered cache
    k, v = kv.gathered()
    assert k.shape == (16, 8)
    s = q.astype(np.float64) @ k.astype(np.float64).T
    p = np.exp(s - s.max())
    want = (p / p.sum()) @ v.astype(np.float64)
    assert rel_max_err(paged_attention_ref(q, kv), want) < 1e-12

    # blockwise reference sums per-block softmax outputs instead
    blockwise = paged_blockwise_ref(q, kv)
    assert blockwise.shape == (1, 8)
    assert rel_max_err(blockwise, paged_attention_ref(q, kv)) > 1e-3


def test_paged_kv_validation():
    kb = np.zeros((2, 4, 8))
    with pytest.raises(ValueError):
        PagedKV((0, 2), kb, kb)  # table entry out of range
    with pytest.raises(ValueError):
        PagedKV((0,), kb, np.zeros((2, 4, 7)))
