"""Pass pipeline: layout assignment, warp distribution, intrinsic splitting."""

from __future__ import annotations

import pytest

from conftest import ops_of
from tilec.ir import ElemType, FunctionBuilder, PtrType, fn_equal, walk_fn_ops
from tilec.kernels import load_fixture
from tilec.layouts import BlockedEncoding, DotOperandEncoding
from tilec.passes import (
    PassError,
    apply_tiling_hints,
    assign_layouts,
    classify_workload,
    compile_kernel,
    distribute_to_warps,
    match_target_size,
)
from tilec.visa import PVC

F16 = ElemType.f16
F32 = ElemType.f32


def test_compile_levels(gemm_compiled):
    assert gemm_compiled.source.level == "workgroup"
    assert gemm_compiled.layouts.level == "workgroup"
    assert gemm_compiled.distribute.level == "warp"
    assert gemm_compiled.match.level == "intrinsic"
    assert gemm_compiled.at_level("workgroup") is gemm_compiled.layouts
    assert gemm_compiled.at_level("warp") is gemm_compiled.distribute
    assert gemm_compiled.at_level("intrinsic") is gemm_compiled.match
    assert gemm_compiled.at_level("visa") is gemm_compiled.vprog


def test_at_level_unreached():
    res = compile_kernel(load_fixture("gemm_256"), to_level="workgroup")
    with pytest.raises(ValueError):
        res.at_level("visa")


def test_classify_workloads():
    assert classify_workload(load_fixture("gemm_256")).kind == "gemm"
    assert classify_workload(load_fixture("fa2_d64")).kind == "attention"


class _Tiles:
    """A 64x64 kernel under construction: f16 operand tiles from one buffer,
    f32 accumulators, and stores to another."""

    def __init__(self, name: str):
        self.fb = fb = FunctionBuilder(name, [("X", PtrType(F16)), ("O", PtrType(F32))], num_warps=4)
        self.x_arg, self.o_arg = fb.fn.args
        self.c0, self.c1, self.c64 = fb.constant(0), fb.constant(1), fb.constant(64)

    def ptr(self, arg):
        c0, c1, c64 = self.c0, self.c1, self.c64
        return self.fb.make_tensor_ptr(arg, [c64, c64], [c64, c1], [c0, c0], (64, 64), (1, 0))

    def load(self):
        return self.fb.load(self.ptr(self.x_arg))

    def dot(self, a, b):
        return self.fb.dot(a, b, self.fb.splat(self.fb.constant(0.0, F32), (64, 64)))

    def store(self, v):
        self.fb.store(self.ptr(self.o_arg), v)

    def build(self):
        self.fb.ret()
        return self.fb.build()


def test_unchained_dots_are_gemm_rooted_at_the_last():
    k = _Tiles("two_gemms")
    a, b = k.load(), k.load()
    k.store(k.dot(a, b))
    k.store(k.dot(b, a))
    fn = k.build()
    work = classify_workload(fn)
    assert (work.kind, work.root, work.hint) == ("gemm", ops_of(fn, "tt.dot")[1], None)


def test_dot_through_exp_and_convert_is_attention():
    k = _Tiles("chain")
    q, kt, v = k.load(), k.load(), k.load()
    p = k.fb.convert(k.fb.exp(k.dot(q, kt)), F16)
    k.store(k.dot(p, v))
    fn = k.build()
    work = classify_workload(fn)
    assert (work.kind, work.root, work.hint) == ("attention", ops_of(fn, "tt.dot")[1], "horizontal")


def test_dot_chained_only_through_a_loop_carry_is_attention():
    # the first dot reads the carried tile; the second one's result reaches it
    # only as the next iteration's body arg, never as a direct operand
    k = _Tiles("carried")
    a, b = k.load(), k.load()
    fb = k.fb
    _, (acc,) = fb.begin_for(k.c0, k.c64, k.c1, [a])
    k.store(k.dot(acc, b))
    nxt = fb.convert(k.dot(a, b), F16)
    fb.end_for([nxt])
    fn = k.build()
    work = classify_workload(fn)
    assert (work.kind, work.root) == ("attention", ops_of(fn, "tt.dot")[0])


def test_dot_feeding_two_dots_has_no_single_root():
    k = _Tiles("fork")
    q, kt, v = k.load(), k.load(), k.load()
    p = k.fb.convert(k.dot(q, kt), F16)
    k.store(k.dot(p, v))
    k.store(k.dot(v, p))
    with pytest.raises(PassError) as exc:
        classify_workload(k.build())
    assert str(exc.value) == "@fork: attention pattern needs one final dot, found 2"


def test_reduce_and_store_only_kernels():
    k = _Tiles("rowmax")
    k.fb.reduce(k.fb.convert(k.load(), F32), "max", 1)
    fn = k.build()
    work = classify_workload(fn)
    assert (work.kind, work.root, work.hint) == ("reduction", ops_of(fn, "tt.reduce")[0], "horizontal")
    k = _Tiles("copy")
    k.store(k.fb.convert(k.load(), F32))
    fn = k.build()
    work = classify_workload(fn)
    assert (work.kind, work.root, work.hint) == ("elementwise", ops_of(fn, "tt.store")[0], None)


def test_dot_disconnected_from_the_root_is_reported():
    # the first dot shares no tile with the root (the last dot), so no
    # layout reaches its operands
    k = _Tiles("apart")
    k.store(k.dot(k.load(), k.load()))
    k.store(k.dot(k.load(), k.load()))
    fn = k.build()
    with pytest.raises(PassError) as exc:
        assign_layouts(fn)
    assert str(exc.value) == "@apart: layout assignment left a tt.dot operand uncovered"
    assert exc.value.diagnostics[0].op is ops_of(fn, "tt.dot")[0]


def test_source_is_not_mutated():
    fn = load_fixture("gemm_256")
    before = [op.kind for op in walk_fn_ops(fn)]
    compile_kernel(fn)
    assert [op.kind for op in walk_fn_ops(fn)] == before
    assert all(v.type.encoding is None for op in walk_fn_ops(fn)
               for v in op.results if hasattr(v.type, "encoding"))


def test_warp_level_source_passes_through_layouts():
    fn = load_fixture("paged_warp")
    assert fn.warp_level
    out = assign_layouts(fn)
    assert out is not fn
    assert fn_equal(out, fn)
    dist = distribute_to_warps(out)
    assert dist.level == "warp"
    assert fn_equal(dist, fn) is False or dist.level != fn.level


def test_tiling_hint_overrides_root():
    res = compile_kernel(load_fixture("gemm_256"), to_level="workgroup", hints={0: "horizontal"})
    store = ops_of(res.layouts, "tt.store")[0]
    enc = store.operands[1].type.encoding
    assert enc == BlockedEncoding((8, 256), (32, 1), (1, 0))


def test_apply_tiling_hints_validates_index():
    with pytest.raises(PassError):
        apply_tiling_hints(load_fixture("gemm_256"), {3: "horizontal"})


def test_layout_conflict_is_reported():
    fb = FunctionBuilder("selfdot", [("X", PtrType(F16)), ("O", PtrType(F32))], num_warps=4)
    x_arg, o_arg = fb.fn.args
    c0 = fb.constant(0)
    c1 = fb.constant(1)
    c64 = fb.constant(64)
    xp = fb.make_tensor_ptr(x_arg, [c64, c64], [c64, c1], [c0, c0], (64, 64), (1, 0))
    x = fb.load(xp)
    z = fb.splat(fb.constant(0.0, F32), (64, 64))
    d = fb.dot(x, x, z)  # one value as both dot operands
    op = fb.make_tensor_ptr(o_arg, [c64, c64], [c64, c1], [c0, c0], (64, 64), (1, 0))
    fb.store(op, d)
    fb.ret()
    with pytest.raises(PassError) as exc:
        assign_layouts(fb.build())
    assert "conflicting layouts" in str(exc.value)


def test_distribute_narrow_tensors_clamp(fa2_compiled):
    # row stats live on (128, 1) and (128,) tensors; their per-warp types
    # must clamp to the tensor, not inherit the (16, 64) root tile wholesale
    fn = fa2_compiled.distribute
    expands = ops_of(fn, "tt.expand_dims")
    assert expands
    for op in expands:
        assert op.results[0].type.shape == (16, 1)
    assert any(op.results[0].type.shape == (16, 64) for op in ops_of(fn, "tt.broadcast"))


def test_distribute_dot_operand_types(gemm_compiled):
    dot = ops_of(gemm_compiled.distribute, "tt.dot")[0]
    assert dot.operands[0].type.shape == (32, 32)
    assert dot.operands[1].type.shape == (32, 64)
    assert dot.results[0].type.shape == (32, 64)
    # warp-level functions may use tt.warp_id
    assert ops_of(gemm_compiled.distribute, "tt.warp_id")


def test_match_introduces_extract_glue(gemm_compiled, fa2_compiled):
    fn = gemm_compiled.match
    assert ops_of(fn, "tt.extract")
    # gemm keeps accumulator pieces apart; attention re-blocks with glue
    assert ops_of(fa2_compiled.match, "tt.glue")
    for op in ops_of(fn, "tt.load"):
        shape = op.results[0].type.shape
        assert all(d <= m for d, m in zip(shape, PVC.max_load))
    m, n, k = PVC.max_dot
    for op in ops_of(fn, "tt.dot"):
        assert op.results[0].type.shape == (m, n)
        assert op.operands[0].type.shape == (m, k)


def test_match_requires_warp_level_input():
    with pytest.raises(PassError):
        match_target_size(load_fixture("gemm_256"), PVC)


def test_pipeline_rejects_unknown_level():
    with pytest.raises(ValueError):
        compile_kernel(load_fixture("gemm_256"), to_level="nope")
