"""Core IR: types, builder, verifier, traversal, structural equality."""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from tilec.ir import (
    ElemType,
    FunctionBuilder,
    KernelModule,
    Operation,
    PtrType,
    Region,
    TensorType,
    Value,
    VerifyError,
    block_index,
    block_origin,
    fn_equal,
    module_equal,
    scalar,
    trip_count,
    verify,
    verify_or_raise,
    walk_fn_ops,
)
from tilec.kernels import load_fixture
from tilec.layouts import BlockedEncoding
from tilec.textio import parse_module

F16 = ElemType.f16
F32 = ElemType.f32
I32 = ElemType.i32


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
    text = f'tt.func public @f() attributes {{level = "warp", num_warps = 1}} {{\n  {op} : () -> ()\n  tt.return : () -> ()\n}}\n'
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


def _t(*shape, elem=F32):
    return TensorType(shape, elem)


def _body(*arg_types, yields=()):
    """A loop or branch body: block arguments of these types, ending in scf.yield."""
    body = Region([Value(t) for t in arg_types])
    body.ops.append(Operation("scf.yield", yields))
    return body


def _diagnose(build) -> str:
    """The verifier's messages for a warp-level kernel that defines the values
    named below, then runs `build` on them, then returns."""
    fb = FunctionBuilder("v", [("X", PtrType(F16)), ("I", PtrType(I32))], num_warps=4, level="warp")
    x, i, f, h = fb.fn.args[0], fb.constant(0), fb.constant(0.0), fb.constant(0.0, F16)
    v = SimpleNamespace(X=x, I=fb.fn.args[1], i=i, f=f, b=fb.cmpi("eq", i, i),
                        a=fb.splat(h, (8, 16)), bt=fb.splat(h, (16, 8)), c=fb.splat(f, (8, 8)), n=fb.splat(i, (8, 8)),
                        p=fb.make_tensor_ptr(x, [i, i], [i, i], [i, i], (8, 16), (1, 0)))
    build(fb, v)
    fb.ret()
    with pytest.raises(VerifyError) as exc:
        verify_or_raise(fb.fn)
    return "; ".join(d.message for d in exc.value.diagnostics)


# one case per verifier diagnostic: the message, and the ops that draw it
# (X: f16 buffer, I: i32 buffer, i: i32, f: f32, b: i1, a: 8x16 f16,
# bt: 16x8 f16, c: 8x8 f32, n: 8x8 i32, p: block pointer to 8x16 f16)
_VERIFY_CASES = {
    "unknown_level": ("unknown level 'thread'", lambda fb, v: setattr(fb.fn, "level", "thread")),
    "num_warps": ("num_warps must be positive, got 0", lambda fb, v: setattr(fb.fn, "num_warps", 0)),
    "dup_arg": ("duplicate argument name %X", lambda fb, v: setattr(fb.fn.args[1], "name", "X")),
    "enc_rank": ("encoding rank 2 != tensor rank 1 in tensor<8xf32, #blocked>",
                 lambda fb, v: fb.splat(v.f, (8,), BlockedEncoding((8, 8), (1, 1), (1, 0)))),
    "dominance": ("math.exp: operand does not dominate use", lambda fb, v: fb.exp(Value(v.c.type))),
    "yield_last": ("scf.yield must terminate its region", lambda fb, v: fb.op("scf.yield")),
    "return_last": ("tt.return must terminate the function body", lambda fb, v: fb.ret()),
    "no_return": ("function body must end in tt.return", lambda fb, v: fb.begin_if(v.b)),  # tt.return goes in the if
    "warp_only": ("tt.warp_id is only valid in warp-level functions or pass output",
                  lambda fb, v: setattr(fb.fn, "level", "workgroup") or fb.warp_id()),
    "pid_axis": ("tt.get_program_id: axis must be 0, 1, or 2", lambda fb, v: fb.program_id(3)),
    "mtp_not_block": ("tt.make_tensor_ptr: result must be a block pointer",
                      lambda fb, v: fb.op("tt.make_tensor_ptr", [v.X], {"order": [0]}, [PtrType(F16)])),
    "mtp_rank0": ("tt.make_tensor_ptr: block rank must be 1 or 2, got 0",
                  lambda fb, v: fb.op("tt.make_tensor_ptr", [v.X], {"order": []}, [PtrType(_t(elem=F16))])),
    "mtp_count": ("tt.make_tensor_ptr: expected base + 3 i32 operands for rank 1, got 2",
                  lambda fb, v: fb.op("tt.make_tensor_ptr", [v.X, v.i], {"order": [0]}, [PtrType(_t(8, elem=F16))])),
    "mtp_base": ("tt.make_tensor_ptr: base must be a buffer pointer",
                 lambda fb, v: fb.make_tensor_ptr(v.p, [v.i], [v.i], [v.i], (8,), (0,))),
    "mtp_base_elem": ("tt.make_tensor_ptr: base element i32 != block element f16",
                      lambda fb, v: fb.op("tt.make_tensor_ptr", [v.I, v.i, v.i, v.i], {"order": [0]},
                                          [PtrType(_t(8, elem=F16))])),
    "mtp_i32": ("tt.make_tensor_ptr: shape/stride/offset operands must be i32 scalars",
                lambda fb, v: fb.make_tensor_ptr(v.X, [v.f], [v.i], [v.i], (8,), (0,))),
    "mtp_order": ("tt.make_tensor_ptr: order must be a permutation of 0..0",
                  lambda fb, v: fb.make_tensor_ptr(v.X, [v.i], [v.i], [v.i], (8,), (1,))),
    "adv_ptr": ("tt.advance: first operand must be a block pointer",
                lambda fb, v: fb.op("tt.advance", [v.i], {}, [v.p.type])),
    "adv_count": ("tt.advance: expected 2 delta operands", lambda fb, v: fb.advance(v.p, [v.i])),
    "adv_i32": ("tt.advance: deltas must be i32 scalars", lambda fb, v: fb.advance(v.p, [v.f, v.i])),
    "adv_result": ("tt.advance: result type must equal pointer type (block shape is immutable)",
                   lambda fb, v: fb.op("tt.advance", [v.p, v.i, v.i], {}, [PtrType(_t(8, 8, elem=F16))])),
    "load_ptr": ("tt.load: operand must be a block pointer", lambda fb, v: fb.op("tt.load", [v.X], {}, [v.a.type])),
    "load_result": ("tt.load: result type must equal the pointee block type",
                    lambda fb, v: fb.op("tt.load", [v.p], {}, [v.c.type])),
    "store_operands": ("tt.store: operands are (block pointer, value)", lambda fb, v: fb.op("tt.store", [v.p])),
    "store_value": ("tt.store: stored value type must equal the pointee block type", lambda fb, v: fb.store(v.p, v.c)),
    "store_results": ("tt.store: has no results", lambda fb, v: fb.op("tt.store", [v.p, v.a], {}, [v.i.type])),
    "dot_operands": ("tt.dot: expected (a, b, c) operands", lambda fb, v: fb.op("tt.dot", [v.a, v.bt], {}, [v.c.type])),
    "dot_rank": ("tt.dot: operands must be rank-2 tensors", lambda fb, v: fb.dot(v.i, v.i, v.i)),
    "dot_acc_shape": ("tt.dot: accumulator shape (8, 8) != (16, 16)", lambda fb, v: fb.dot(v.bt, v.a, v.c)),
    "dot_ab_float": ("tt.dot: a/b must share a float element type", lambda fb, v: fb.dot(v.n, v.n, v.c)),
    "dot_acc_f32": ("tt.dot: accumulates in f32, got accumulator i32", lambda fb, v: fb.dot(v.a, v.bt, v.n)),
    "dot_result": ("tt.dot: result type must equal the accumulator type",
                   lambda fb, v: fb.op("tt.dot", [v.a, v.bt, v.c], {}, [v.n.type])),
    "dot_tiling": ("tt.dot: unknown tiling hint 'diagonal'", lambda fb, v: fb.dot(v.a, v.bt, v.c, tiling="diagonal")),
    "dot_attr": ("tt.dot: unknown attribute tilling; expected tiling",
                 lambda fb, v: fb.op("tt.dot", [v.a, v.bt, v.c], {"tilling": "diagonal"}, [v.c.type])),
    "load_attr": ("tt.load: unknown attribute cache; expected none",
                  lambda fb, v: fb.op("tt.load", [v.p], {"cache": "ca"}, [v.a.type])),
    "reduce_tensor": ("tt.reduce: operand must be a tensor",
                      lambda fb, v: fb.op("tt.reduce", [v.p], {"kind": "sum", "axis": 0}, [v.f.type])),
    "reduce_kind": ("tt.reduce: kind must be 'max' or 'sum'", lambda fb, v: fb.reduce(v.c, "min", 1)),
    "xreduce_tensor": ("tt.cross_warp_reduce: operand must be a tensor",
                       lambda fb, v: fb.op("tt.cross_warp_reduce", [v.p], {"kind": "sum"}, [v.p.type])),
    "xreduce_kind": ("tt.cross_warp_reduce: kind must be 'max' or 'sum'", lambda fb, v: fb.cross_warp_reduce(v.c, "min")),
    "xreduce_axis": ("tt.cross_warp_reduce: unknown attribute axis; expected dst_warps, kind",
                     lambda fb, v: fb.op("tt.cross_warp_reduce", [v.c], {"kind": "max", "axis": 0}, [v.c.type])),
    "xreduce_result": ("tt.cross_warp_reduce: result type must equal the operand type",
                       lambda fb, v: fb.op("tt.cross_warp_reduce", [v.c], {"kind": "max"}, [v.n.type])),
    "xreduce_dst": ("tt.cross_warp_reduce: dst_warps must list warp ids below num_warps=4",
                    lambda fb, v: fb.cross_warp_reduce(v.c, "max", [4])),
    "reduce_result": ("tt.reduce: result must be (8,) of f32",
                      lambda fb, v: fb.op("tt.reduce", [v.c], {"kind": "sum", "axis": 1}, [_t(4)])),
    "splat_scalar": ("tt.splat: operand must be a scalar", lambda fb, v: fb.op("tt.splat", [v.c], {}, [v.c.type])),
    "const_float": ("arith.constant: float constant needs a float value attr",
                    lambda fb, v: fb.op("arith.constant", [], {"value": 1}, [v.f.type])),
    "const_int": ("arith.constant: integer constant needs an int value attr",
                  lambda fb, v: fb.op("arith.constant", [], {"value": 1.0}, [v.i.type])),
    **{f"const_{x}": (f"arith.constant: float constant must be finite, got {x}",
                      lambda fb, v, x=x: fb.constant(float(x))) for x in ("inf", "-inf", "nan")},
    "convert_tensor": ("tt.convert: operand must be a tensor",
                       lambda fb, v: fb.op("tt.convert", [v.p], {}, [v.c.type])),
    "convert_float": ("tt.convert: float element cast only; shape must be preserved",
                      lambda fb, v: fb.convert(v.n, F32)),
    "expand_tensor": ("tt.expand_dims: operand must be a tensor",
                      lambda fb, v: fb.op("tt.expand_dims", [v.p], {"axis": 0}, [v.c.type])),
    "expand_axis": ("tt.expand_dims: axis out of range",
                    lambda fb, v: fb.op("tt.expand_dims", [v.c], {"axis": 3}, [v.c.type])),
    "expand_result": ("tt.expand_dims: result must be (1, 8, 8) of f32",
                      lambda fb, v: fb.op("tt.expand_dims", [v.c], {"axis": 0}, [v.c.type])),
    "bcast_tensor": ("tt.broadcast: operand must be a tensor",
                     lambda fb, v: fb.op("tt.broadcast", [v.p], {}, [v.c.type])),
    "bcast_dims": ("tt.broadcast: source dims must be 1 or match result (8, 8)",
                   lambda fb, v: fb.broadcast(v.a, (8, 8))),
    "extract_operand": ("tt.extract: expected one operand",
                        lambda fb, v: fb.op("tt.extract", [], {"index": 0}, [v.c.type])),
    "extract_result": ("tt.extract: expected one result", lambda fb, v: fb.op("tt.extract", [v.c], {"index": 0})),
    "extract_ptrness": ("tt.extract: pointer-ness of source and result must agree",
                        lambda fb, v: fb.op("tt.extract", [v.p], {"index": 0}, [v.a.type])),
    "extract_block": ("tt.extract: block-typed source required",
                      lambda fb, v: fb.op("tt.extract", [v.X], {"index": 0}, [PtrType(F16)])),
    "extract_elem": ("tt.extract: source/result element and rank must match",
                     lambda fb, v: fb.op("tt.extract", [v.c], {"index": 0}, [_t(4, 4, elem=F16)])),
    "extract_divide": ("tt.extract: result shape (3, 8) must divide source shape (8, 8)",
                       lambda fb, v: fb.extract(v.c, 0, (3, 8))),
    "glue_operands": ("tt.glue: expected operands and one result", lambda fb, v: fb.op("tt.glue", [], {}, [v.c.type])),
    "glue_ranked": ("tt.glue: operands must be ranked tensors", lambda fb, v: fb.op("tt.glue", [v.f], {}, [v.c.type])),
    "glue_pieces": ("tt.glue: all pieces must share one type",
                    lambda fb, v: fb.op("tt.glue", [v.c, v.n], {}, [_t(16, 8)])),
    "glue_result": ("tt.glue: result element/rank must match pieces",
                    lambda fb, v: fb.op("tt.glue", [v.c, v.c], {}, [_t(16, 8, elem=I32)])),
    "glue_divide": ("tt.glue: piece shape (8, 8) must divide result shape (12, 8)",
                    lambda fb, v: fb.op("tt.glue", [v.c, v.c], {}, [_t(12, 8)])),
    "barrier": ("tt.barrier: takes nothing, returns nothing", lambda fb, v: fb.op("tt.barrier", [v.i])),
    "return_nothing": ("tt.return: kernels return nothing; tt.return must terminate the function body",
                       lambda fb, v: fb.op("tt.return", [v.i])),
    "float_arity": ("math.exp: expected 1 operands and one result",
                    lambda fb, v: fb.op("math.exp", [v.c, v.c], {}, [v.c.type])),
    "float_operands": ("arith.addf: operands must be float tensors", lambda fb, v: fb.binary("arith.addf", v.n, v.n)),
    "int_arity": ("arith.addi: expected 2 operands and one result",
                  lambda fb, v: fb.op("arith.addi", [v.i], {}, [v.i.type])),
    "int_operands": ("arith.addi: i32 operands required", lambda fb, v: fb.binary("arith.addi", v.c, v.c)),
    "int_share": ("arith.addi: all operands and the result must share one shape and element",
                  lambda fb, v: fb.binary("arith.addi", v.i, v.n)),
    "cmpi_pred": ("arith.cmpi: pred must be one of ('eq', 'ne', 'slt', 'sle', 'sgt', 'sge')",
                  lambda fb, v: fb.cmpi("lt", v.i, v.i)),
    "cmpi_sig": ("arith.cmpi: signature is (i32, i32) -> i1", lambda fb, v: fb.cmpi("eq", v.f, v.f)),
    "for_operands": ("scf.for: expected lb, ub, step operands",
                     lambda fb, v: fb.op("scf.for", [v.i, v.i], {}, [], [_body(v.i.type)])),
    "for_bounds": ("scf.for: bounds must be i32 scalars",
                   lambda fb, v: fb.op("scf.for", [v.f, v.i, v.i], {}, [], [_body(v.i.type)])),
    "for_regions": ("scf.for: expected one body region", lambda fb, v: fb.op("scf.for", [v.i, v.i, v.i])),
    "for_body_args": ("scf.for: body must take the induction var plus 0 iter args",
                      lambda fb, v: fb.op("scf.for", [v.i, v.i, v.i], {}, [], [_body()])),
    "for_iv": ("scf.for: induction variable must be i32",
               lambda fb, v: fb.op("scf.for", [v.i, v.i, v.i], {}, [], [_body(v.f.type)])),
    "for_iter_arg": ("scf.for: iter arg type tensor<8x8xi32> != init type tensor<8x8xf32>",
                     lambda fb, v: fb.op("scf.for", [v.i, v.i, v.i, v.c], {}, [v.c.type],
                                         [_body(v.i.type, v.n.type, yields=[v.c])])),
    "for_buffer_ptr": ("scf.for: iter arg 0 carries buffer pointer !tt.ptr<f16>; a loop carries tiles, scalars and "
                       "block pointers", lambda fb, v: fb.end_for(list(fb.begin_for(v.i, v.i, v.i, [v.X])[1]))),
    "for_results": ("scf.for: results must mirror the iter args",
                    lambda fb, v: fb.op("scf.for", [v.i, v.i, v.i, v.c], {}, [],
                                        [_body(v.i.type, v.c.type, yields=[v.c])])),
    "for_yield_last": ("scf.for: body must end in scf.yield",
                       lambda fb, v: fb.op("scf.for", [v.i, v.i, v.i], {}, [], [Region([Value(v.i.type)])])),
    "for_yield": ("scf.yield operands must match the loop's iter args",
                  lambda fb, v: fb.op("scf.for", [v.i, v.i, v.i], {}, [], [_body(v.i.type, yields=[v.i])])),
    "if_cond": ("scf.if: condition must be an i1 scalar", lambda fb, v: fb.op("scf.if", [v.i], {}, [], [Region()])),
    "if_results": ("scf.if: results not supported", lambda fb, v: fb.op("scf.if", [v.b], {}, [v.i.type], [Region()])),
    "if_regions": ("scf.if: expected one body region", lambda fb, v: fb.op("scf.if", [v.b])),
    "if_args": ("scf.if: body takes no arguments",
                lambda fb, v: fb.op("scf.if", [v.b], {}, [], [Region([Value(v.i.type)])])),
    "unknown_kind": ("unknown op kind 'tt.frobnicate'", lambda fb, v: fb.op("tt.frobnicate")),
}


@pytest.mark.parametrize("case", sorted(_VERIFY_CASES))
def test_verifier_diagnostics(case):
    message, build = _VERIFY_CASES[case]
    assert _diagnose(build) == message


# integer attributes, each with the message that `true` or `1.0` in it
# draws: both compare equal to 1, but neither is an integer
_INT_ATTRS = {
    "pid_axis": ("tt.get_program_id: axis must be 0, 1, or 2",
                 lambda fb, v, x: fb.op("tt.get_program_id", [], {"axis": x}, [v.i.type])),
    "reduce_axis": ("tt.reduce: axis must name a dim of rank-2 operand",
                    lambda fb, v, x: fb.op("tt.reduce", [v.c], {"kind": "sum", "axis": x}, [_t(8)])),
    "expand_axis": ("tt.expand_dims: axis out of range",
                    lambda fb, v, x: fb.op("tt.expand_dims", [fb.splat(v.f, (8,))], {"axis": x}, [_t(8, 1)])),
    "extract_index": ("tt.extract: index must lie in [0, 2) for sub-block grid (2, 1)",
                      lambda fb, v, x: fb.op("tt.extract", [v.c], {"index": x}, [_t(4, 8)])),
    "mtp_order": ("tt.make_tensor_ptr: order must be a permutation of 0..1",
                  lambda fb, v, x: fb.make_tensor_ptr(v.X, [v.i] * 2, [v.i] * 2, [v.i] * 2, (8, 16), (x, 0))),
    "xreduce_dst": ("tt.cross_warp_reduce: dst_warps must list warp ids below num_warps=4",
                    lambda fb, v, x: fb.cross_warp_reduce(v.c, "max", [x])),
    "const_i32": ("arith.constant: integer constant needs an int value attr",
                  lambda fb, v, x: fb.op("arith.constant", [], {"value": x}, [v.i.type])),
}


@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "float"])
@pytest.mark.parametrize("case", sorted(_INT_ATTRS))
def test_integer_attributes_reject_bools_and_floats(case, value):
    message, build = _INT_ATTRS[case]
    assert _diagnose(lambda fb, v: build(fb, v, value)) == message


@pytest.mark.parametrize("value", [True, False, 0, 1, 5])
def test_an_i1_constant_takes_a_bool_or_an_int(value):
    fb = FunctionBuilder("k", [("X", PtrType(F32))])
    fb.constant(value, ElemType.i1)
    fb.ret()
    verify_or_raise(fb.fn)
    assert _diagnose(lambda fb, v: fb.op("arith.constant", [], {"value": 1.0}, [v.b.type])) == (
        "arith.constant: integer constant needs an int value attr")


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


def _loop_kernel():
    fb = FunctionBuilder("loopy", [("X", PtrType(F16))], num_warps=1)
    c0 = fb.constant(0)
    c8 = fb.constant(8)
    c1 = fb.constant(1)
    acc0 = fb.splat(fb.constant(0.0, F32), (4, 4))
    _, (acc,) = fb.begin_for(c0, c8, c1, [acc0])
    nxt = fb.binary("arith.addf", acc, acc)
    fb.end_for([nxt])
    fb.ret()
    return fb.build()


def test_walk_enters_loop_regions():
    fn = _loop_kernel()
    kinds = [op.kind for op in walk_fn_ops(fn)]
    assert "scf.for" in kinds and "arith.addf" in kinds and "scf.yield" in kinds


def _first(fn, kind):
    return next(op for op in walk_fn_ops(fn) if op.kind == kind)


# a kernel, and an edit that changes one thing in it
_EDITS = {
    "num_warps": (_add_kernel, lambda fn: setattr(fn, "num_warps", 8)),
    "arg_type": (_add_kernel, lambda fn: setattr(fn.args[1], "type", PtrType(F32))),
    "op_attr": (_add_kernel, lambda fn: _first(fn, "arith.constant").attrs.update(value=5)),
    "op_kind": (_add_kernel, lambda fn: setattr(_first(fn, "arith.mulf"), "kind", "arith.addf")),
    "result_type": (_add_kernel, lambda fn: setattr(_first(fn, "tt.splat").result, "type", _t(64, 64))),
    "swapped_operands": (_add_kernel, lambda fn: _first(fn, "arith.mulf").operands.reverse()),
    "loop_arg_type": (_loop_kernel,
                      lambda fn: setattr(_first(fn, "scf.for").regions[0].args[1], "type", _t(4, 4, elem=F16))),
    "loop_body_op_kind": (_loop_kernel, lambda fn: setattr(_first(fn, "arith.addf"), "kind", "arith.mulf")),
}


def test_structural_equality():
    m1 = KernelModule((_add_kernel(),))
    m2 = KernelModule((_add_kernel(),))
    assert module_equal(m1, m2)
    assert fn_equal(m1.functions[0], m2.functions[0])
    assert fn_equal(_loop_kernel(), _loop_kernel())
    assert not fn_equal(_add_kernel(), _add_kernel(mul_shape=(64, 32)))
    for edit, (make, change) in _EDITS.items():
        fn = make()
        change(fn)
        assert not fn_equal(make(), fn) and not fn_equal(fn, make()), edit


# a mismatch that each length check of `fn_equal` and `module_equal` finds,
# made in a module that holds one clone of a fixture function
_COUNTS = {
    "arg_count": lambda m: m.functions[0].args.append(Value(PtrType(F32), "Z")),
    "op_count": lambda m: m.functions[0].body.ops.pop(0),
    "operand_count": lambda m: _first(m.functions[0], "tt.advance").operands.pop(),
    "result_count": lambda m: _first(m.functions[0], "tt.dot").results.append(Value(TensorType((256, 256), F32))),
    "region_count": lambda m: _first(m.functions[0], "scf.for").regions.append(Region()),
    "region_arg_count": lambda m: _first(m.functions[0], "scf.for").regions[0].args.append(Value(scalar(I32))),
    "function_count": lambda m: m.functions.append(load_fixture("gemm_256")),
}


@pytest.mark.parametrize("change", _COUNTS)
def test_structural_equality_tells_apart_counts(change):
    fn, clone = load_fixture("gemm_256"), load_fixture("gemm_256")
    assert fn_equal(fn, clone) and module_equal(KernelModule([fn]), KernelModule([clone]))
    changed = KernelModule([clone])
    _COUNTS[change](changed)
    assert not module_equal(KernelModule([fn]), changed) and not module_equal(changed, KernelModule([fn]))
    if change != "function_count":  # else the functions themselves still match
        assert not fn_equal(fn, clone) and not fn_equal(clone, fn)


def test_trip_count_is_the_length_of_the_range():
    bounds = list(itertools.product(range(-4, 5), range(-4, 5), range(1, 6)))
    want = [len(range(*b)) for b in bounds]
    assert [trip_count(*b) for b in bounds] == want
    assert trip_count(*np.array(bounds, dtype=np.int64).T).tolist() == want
