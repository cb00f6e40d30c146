"""Brute-force reference computations for the kernel suite.

Everything here is plain numpy, single threaded, and independent of the
compiler and simulator, but for the inputs: `rand_f16` rounds its f64 draws
to f16 by ``sim._round_f16``, the rounding every f16 buffer binds with, which
gives the bits of numpy's ``astype(float16).astype(float32)``.  References
accumulate in f64 (f32 for gemm_ref, which mirrors the kernel's own
accumulator width), the attention reference along both its paths, so
differential tests compare the simulator against genuinely separate
arithmetic.

The attention reference is dual-path: the blockwise online-softmax and a
monolithic softmax are both computed and cross-checked before either is
trusted.  A divergence between the two indicates a bug in the reference
itself, not in the kernel under test.  Both read one f64 score matrix
Q Kᵀ, and each takes its own row max from it: the blockwise path a running
max over its column blocks, the monolithic path the max of each whole row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import _round_f16


class OracleError(ValueError):
    """Internal inconsistency in a reference computation."""


# the least scale `rel_max_err` divides by
_FLOOR = 1e-6


def rel_max_err(got: np.ndarray, want: np.ndarray) -> float:
    """Max elementwise relative error with an absolute floor on the scale."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        raise ValueError(f"shape mismatch: {got.shape} vs {want.shape}")
    if not got.size:
        return 0.0
    # |got - want| / max(|want|, _FLOOR), all in f64, in two arrays
    err = np.subtract(got, want, out=np.empty(got.shape), dtype=np.float64)
    np.abs(err, out=err)
    scale = np.abs(want, out=np.empty(want.shape), dtype=np.float64)
    np.maximum(scale, _FLOOR, out=scale)
    err /= scale
    return float(err.max())


def philox(seed: int) -> np.random.Generator:
    """The suite's portable RNG: Philox4x64-10 counter-based generator."""
    return np.random.Generator(np.random.Philox(seed))


def rand_f16(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Uniform [0, 1) samples rounded to f16 precision, held as f32: each
    f64 draw rounded once, to the nearest f16, ties to even.

    Positive inputs keep matmul and attention outputs away from zero, so
    a max-relative-error comparison measures rounding, not cancellation.
    """
    return _round_f16(rng.uniform(0.0, 1.0, size=shape))


# --------------------------------------------------------------------------
# GEMM


def gemm_ref(a: np.ndarray, b: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """C = C0 + A @ B with f32 accumulation."""
    a, b, c0 = (np.asarray(x) for x in (a, b, c0))
    if a.ndim != 2 or b.ndim != 2 or c0.ndim != 2:
        raise ValueError("gemm_ref operands must be matrices")
    m, ka = a.shape
    kb, n = b.shape
    if ka != kb or c0.shape != (m, n):
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape} + {c0.shape}")
    return c0.astype(np.float32) + a.astype(np.float32) @ b.astype(np.float32)


# --------------------------------------------------------------------------
# attention


@dataclass(frozen=True)
class AttentionProblem:
    """Single-head attention instance: O = softmax(Q Kᵀ) V, streamed over
    K/V row blocks of block_size.  No 1/sqrt(D) scaling is applied; the
    kernels under test apply none either."""

    q: np.ndarray  # (N, D)
    k: np.ndarray  # (N, D)
    v: np.ndarray  # (N, D)
    block_size: int

    def __post_init__(self) -> None:
        n, d = self.q.shape
        if self.k.shape != (n, d) or self.v.shape != (n, d):
            raise ValueError("Q, K, V must share one (N, D) shape")
        if self.block_size < 1 or n % self.block_size:
            raise ValueError(f"N={n} not divisible by block_size={self.block_size}")


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    m = s.max(axis=-1, keepdims=True)
    p = np.exp(s - m)
    return p / p.sum(axis=-1, keepdims=True)


def _softmax_pv(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """softmax(s) @ v, each row shifted by its own max and divided by its
    sum after the matmul."""
    e = s - s.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    out = e @ v
    out /= e.sum(axis=1, keepdims=True)
    return out


def attention_ref(p: AttentionProblem) -> np.ndarray:
    """Blockwise online-softmax attention at f64, self-checked against a
    monolithic softmax; returns the blockwise result (N, D)."""
    q = p.q.astype(np.float64)
    k = p.k.astype(np.float64)
    v = p.v.astype(np.float64)
    n, d = q.shape
    bs = p.block_size
    scores = q @ k.T

    m = np.full(n, -np.inf)
    l = np.zeros(n)
    acc = np.zeros((n, d))
    for j in range(0, n, bs):
        s = scores[:, j : j + bs]
        m_new = np.maximum(m, s.max(axis=1))
        alpha = np.exp(m - m_new)
        pj = s - m_new[:, None]
        np.exp(pj, out=pj)
        l *= alpha
        l += pj.sum(axis=1)
        acc *= alpha[:, None]
        acc += pj @ v[j : j + bs]
        m = m_new
    acc /= l[:, None]

    err = rel_max_err(acc, _softmax_pv(scores, v))
    if not err <= 1e-3:
        raise OracleError(f"online vs monolithic softmax diverged: rel err {err:.3e}")
    return acc


# --------------------------------------------------------------------------
# paged attention


@dataclass(frozen=True)
class PagedKV:
    """K/V cache stored as physical blocks addressed through a block table.

    block_table maps logical block index -> physical block index; k_blocks
    and v_blocks are (num_physical, block_len, D).
    """

    block_table: tuple[int, ...]
    k_blocks: np.ndarray
    v_blocks: np.ndarray

    def __post_init__(self) -> None:
        if self.k_blocks.shape != self.v_blocks.shape or self.k_blocks.ndim != 3:
            raise ValueError("k_blocks and v_blocks must share a (blocks, block_len, D) shape")
        num = self.k_blocks.shape[0]
        if any(not (0 <= t < num) for t in self.block_table):
            raise ValueError(f"block table entry out of range [0, {num})")

    @property
    def block_len(self) -> int:
        return self.k_blocks.shape[1]

    @property
    def d(self) -> int:
        return self.k_blocks.shape[2]

    def gathered(self) -> tuple[np.ndarray, np.ndarray]:
        """K and V in logical order, (num_logical*block_len, D)."""
        idx = list(self.block_table)
        kk = self.k_blocks[idx].reshape(-1, self.d)
        vv = self.v_blocks[idx].reshape(-1, self.d)
        return kk, vv


def paged_attention_ref(q: np.ndarray, kv: PagedKV) -> np.ndarray:
    """Exact single-query attention over the gathered cache, at f64: (1, D)."""
    q = np.asarray(q, dtype=np.float64).reshape(1, kv.d)
    k, v = kv.gathered()
    return _softmax_rows(q @ k.astype(np.float64).T) @ v.astype(np.float64)


def paged_blockwise_ref(q: np.ndarray, kv: PagedKV) -> np.ndarray:
    """Sum over logical blocks of softmax(q Kᵢᵀ) Vᵢ, at f64: (1, D).

    Each block is softmax-normalized independently and the per-block outputs
    are summed with no cross-block rescaling.  This mirrors the workgroup
    paged kernel in the suite, which normalizes inside its loop; it is a
    different function from paged_attention_ref.
    """
    q = np.asarray(q, dtype=np.float64).reshape(1, kv.d)
    o = np.zeros((1, kv.d))
    for t in kv.block_table:
        kb = kv.k_blocks[t].astype(np.float64)
        vb = kv.v_blocks[t].astype(np.float64)
        o += _softmax_rows(q @ kb.T) @ vb
    return o
