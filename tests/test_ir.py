"""Core IR: types, builder, verifier, traversal, structural equality."""

from __future__ import annotations

import itertools
import math

import pytest

from tilec.ir import (
    ElemType,
    FunctionBuilder,
    KernelModule,
    PtrType,
    TensorType,
    VerifyError,
    block_index,
    block_origin,
    fn_equal,
    module_equal,
    scalar,
    verify,
    verify_or_raise,
    walk_fn_ops,
)
from tilec.textio import parse_module

F16 = ElemType.f16
F32 = ElemType.f32


def _add_kernel(mul_shape=(64, 64)):
    fb = FunctionBuilder("axpy", [("X", PtrType(F16)), ("Y", PtrType(F16))], num_warps=4)
    x_arg, y_arg = fb.fn.args
    c0 = fb.constant(0)
    c1 = fb.constant(1)
    c64 = fb.constant(64)
    xp = fb.make_tensor_ptr(x_arg, [c64, c64], [c64, c1], [c0, c0], (64, 64), (1, 0))
    x = fb.load(xp)
    two = fb.splat(fb.constant(2.0, F16), mul_shape)
    y = fb.binary("arith.mulf", x, two)
    yp = fb.make_tensor_ptr(y_arg, [c64, c64], [c64, c1], [c0, c0], (64, 64), (1, 0))
    fb.store(yp, y)
    fb.ret()
    return fb.build()


def test_types():
    t = TensorType((8, 16), F32)
    assert t.rank == 2 and t.numel == 128
    assert scalar(F32).rank == 0
    assert PtrType(F16).is_block is False
    assert PtrType(t).is_block is True


def test_builder_produces_verified_fn():
    fn = _add_kernel()
    assert verify(fn) == []
    verify_or_raise(fn)
    kinds = [op.kind for op in walk_fn_ops(fn)]
    assert kinds.count("tt.load") == 1
    assert kinds.count("tt.store") == 1
    assert kinds[-1] == "tt.return"


def test_verifier_rejects_shape_mismatch():
    fn = _add_kernel(mul_shape=(64, 32))  # elementwise operand disagreement
    diags = verify(fn)
    assert diags
    with pytest.raises(VerifyError) as exc:
        verify_or_raise(fn)
    assert "axpy" in str(exc.value)


@pytest.mark.parametrize("op", ["tt.get_program_id {axis = 0}", "tt.warp_id", "arith.constant {value = 0}", "tt.alloc"])
def test_verifier_rejects_a_producer_without_a_result(op):
    text = f"tt.func public @f() attributes {{num_warps = 1, warp_level = true}} {{\n  {op} : () -> ()\n  tt.return : () -> ()\n}}\n"
    with pytest.raises(VerifyError):
        verify_or_raise(parse_module(text).functions[0])


def test_verifier_rejects_bad_dot():
    fb = FunctionBuilder("bad", [("X", PtrType(F16))], num_warps=1)
    a = fb.splat(fb.constant(1.0, F16), (8, 16))
    b = fb.splat(fb.constant(1.0, F16), (8, 16))  # contraction dims disagree
    c = fb.splat(fb.constant(0.0, F32), (8, 16))
    fb.dot(a, b, c)
    fb.ret()
    diags = verify(fb.build())
    assert any("contraction dims disagree" in d.message for d in diags)


def test_verifier_rejects_bad_reduce_axis():
    fb = FunctionBuilder("bad", [("X", PtrType(F16))], num_warps=1)
    t = fb.splat(fb.constant(1.0, F32), (8, 16))
    fb.op("tt.reduce", [t], {"kind": "sum", "axis": 2}, [TensorType((8,), F32)])
    fb.ret()
    diags = verify(fb.build())
    assert any("axis" in d.message for d in diags)


def test_verifier_rejects_cross_warp_at_workgroup_level():
    fb = FunctionBuilder("bad", [("X", PtrType(F16))], num_warps=4)
    t = fb.splat(fb.constant(1.0, F32), (8, 16))
    fb.cross_warp_reduce(t, "max")
    fb.ret()
    diags = verify(fb.build())
    assert any("warp-level" in d.message for d in diags)


@pytest.mark.parametrize(("whole", "block"), [((64,), (16,)), ((64,), (64,)), ((64, 32), (16, 8)), ((8, 8), (8, 2))])
def test_block_numbering_round_trips(whole, block):
    grid = [w // b for w, b in zip(whole, block)]
    origins = [block_origin(whole, block, i) for i in range(math.prod(grid))]
    # row-major: the last dim counts fastest
    assert origins == [tuple(c * b for c, b in zip(cs, block)) for cs in itertools.product(*map(range, grid))]
    assert [block_index(whole, block, o) for o in origins] == list(range(len(origins)))
    assert [block_index(whole, block, [o + b - 1 for o, b in zip(at, block)]) for at in origins] == list(
        range(len(origins)))  # any element of a block gives its number
    assert block_origin(whole, block, len(origins)) is None
    assert block_origin(whole, block, -1) is None


def test_verifier_bounds_extract_indices_and_glue_pieces_by_the_block_grid():
    fb = FunctionBuilder("blocks", [("X", PtrType(F16))], num_warps=1)
    t = fb.splat(fb.constant(1.0, F32), (8, 8))
    last = fb.extract(t, 3, (4, 4))
    fb.extract(t, 4, (4, 4))
    fb.glue([last] * 4, (8, 8))
    fb.glue([last] * 3, (8, 8))
    fb.ret()
    assert [d.message for d in verify(fb.build())] == [
        "tt.extract: index must lie in [0, 4) for sub-block grid (2, 2)",
        "tt.glue: grid (2, 2) needs 4 pieces, got 3",
    ]


def test_walk_enters_loop_regions():
    fb = FunctionBuilder("loopy", [("X", PtrType(F16))], num_warps=1)
    c0 = fb.constant(0)
    c8 = fb.constant(8)
    c1 = fb.constant(1)
    acc0 = fb.splat(fb.constant(0.0, F32), (4, 4))
    _, (acc,) = fb.begin_for(c0, c8, c1, [acc0])
    nxt = fb.binary("arith.addf", acc, acc)
    fb.end_for([nxt])
    fb.ret()
    fn = fb.build()
    kinds = [op.kind for op in walk_fn_ops(fn)]
    assert "scf.for" in kinds and "arith.addf" in kinds and "scf.yield" in kinds


def test_structural_equality():
    m1 = KernelModule((_add_kernel(),))
    m2 = KernelModule((_add_kernel(),))
    assert module_equal(m1, m2)
    assert fn_equal(m1.functions[0], m2.functions[0])
    assert not fn_equal(_add_kernel(), _add_kernel(mul_shape=(64, 32)))


def test_defuse_chains():
    fn = _add_kernel()
    load = next(op for op in walk_fn_ops(fn) if op.kind == "tt.load")
    assert load.results[0].producer is load
