"""Pass pipeline: layout assignment, warp distribution, intrinsic splitting."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import ops_of
from tilec.ir import ElemType, FunctionBuilder, KernelFn, PtrType, fn_equal, walk_fn_ops
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
from tilec.sim import DeviceMemory, LaunchConfig, RunTrace, run
from tilec.textio import parse_module
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


def test_per_warp_source_passes_through_layouts_and_distribution():
    fn = load_fixture("paged_warp")
    assert fn.level == "warp"
    out = assign_layouts(fn)
    assert out is not fn
    assert fn_equal(out, fn)
    dist = distribute_to_warps(out)
    assert dist is not out
    assert fn_equal(dist, fn)


@pytest.mark.parametrize("run", [assign_layouts, distribute_to_warps])
def test_first_two_passes_reject_intrinsic_input(run):
    fn = match_target_size(load_fixture("paged_warp"), PVC)
    assert fn.level == "intrinsic"
    with pytest.raises(PassError, match="expects workgroup-level input, got 'intrinsic'"):
        run(fn)


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


def test_match_requires_per_warp_input():
    with pytest.raises(PassError):
        match_target_size(load_fixture("gemm_256"), PVC)


def _one_dot(level: str, k: int) -> KernelFn:
    """An 8xkx16 dot of splats at `level`, whose result is read by no op."""
    fb = FunctionBuilder("f", [], level=level)
    one = fb.constant(1.0, F16)
    fb.dot(fb.splat(one, (8, k)), fb.splat(one, (k, 16)), fb.splat(fb.constant(0.0), (8, 16)))
    fb.ret()
    return fb.build()


@pytest.mark.parametrize(("fn", "message"), [
    (_one_dot("warp", 8), "@f: dot k=8 is not a multiple of the unit k=16"),
    (_one_dot("intrinsic", 16), "@f: target matching already ran"),
], ids=["k_off_the_unit", "intrinsic_input"])
def test_match_rejects(fn, message):
    with pytest.raises(PassError) as exc:
        match_target_size(fn, PVC)
    assert str(exc.value) == message


def test_apply_tiling_hints_rejects_an_unknown_hint():
    with pytest.raises(PassError) as exc:
        apply_tiling_hints(_one_dot("workgroup", 16), {0: "diagonal"})
    assert str(exc.value) == "@f: unknown tiling hint 'diagonal'"


def test_pipeline_rejects_unknown_level():
    with pytest.raises(ValueError):
        compile_kernel(load_fixture("gemm_256"), to_level="nope")


def _block_ptr(fb, arg, shape):
    """A block pointer over all of a row-major buffer of the given shape."""
    c = fb.constant
    strides = (shape[1], 1) if len(shape) == 2 else (1,)
    order = tuple(range(len(shape) - 1, -1, -1))
    return fb.make_tensor_ptr(arg, [c(d) for d in shape], [c(s) for s in strides], [c(0)] * len(shape), shape, order)


def _one_warp(name, x_shape, o_shape, body):
    """A 1-warp, warp-level kernel that stores body(fb, X's block pointer)
    to all of O; X and O are f32 buffers."""
    fb = FunctionBuilder(name, [("X", PtrType(F32)), ("O", PtrType(F32))], num_warps=1, level="warp")
    x_arg, o_arg = fb.fn.args
    value = body(fb, _block_ptr(fb, x_arg, x_shape))
    fb.store(_block_ptr(fb, o_arg, o_shape), value)
    fb.ret()
    return fb.build()


def _outputs(fn, x, o_shape, levels=("warp", "intrinsic", "visa")):
    """O after a run of fn at each level, with X = x."""
    res = compile_kernel(fn)
    mem = DeviceMemory()
    mem.set_tensor("X", x, F32)
    mem.set_tensor("O", np.zeros(o_shape), F32)
    return {level: run(res.at_level(level), LaunchConfig(), mem).tensor("O") for level in levels}


_X64 = np.arange(64 * 64, dtype=np.float32).reshape(64, 64)


def test_extract_of_a_split_tile_takes_its_own_block():
    # PVC's 32x32 load cap splits the 64x64 tile in four; block 2 of the
    # 16x16 grid is rows 0-15, columns 32-47, inside the second piece
    fn = _one_warp("tile_extract", (64, 64), (16, 16), lambda fb, xp: fb.extract(fb.load(xp), 2, (16, 16)))
    for level, got in _outputs(fn, _X64, (16, 16)).items():
        np.testing.assert_array_equal(got, _X64[:16, 32:48], err_msg=level)


def test_extract_of_a_split_block_pointer_takes_its_own_block():
    def body(fb, xp):
        fb.load(xp)  # which splits xp in four
        return fb.load(fb.extract(xp, 2, (16, 16)))

    fn = _one_warp("ptr_extract", (64, 64), (16, 16), body)
    for level, got in _outputs(fn, _X64, (16, 16)).items():
        np.testing.assert_array_equal(got, _X64[:16, 32:48], err_msg=level)


def test_glue_of_extracted_halves_that_span_pieces():
    def body(fb, xp):
        x = fb.load(xp)
        return fb.glue([fb.extract(x, 1, (64, 32)), fb.extract(x, 0, (64, 32))], (64, 64))

    fn = _one_warp("swap_halves", (64, 64), (64, 64), body)
    for level, got in _outputs(fn, _X64, (64, 64)).items():
        np.testing.assert_array_equal(got, np.hstack([_X64[:, 32:], _X64[:, :32]]), err_msg=level)


def test_reduce_to_a_scalar_of_a_split_tile_covers_every_piece():
    # the 64-element tile loads as two 32-element pieces
    fn = _one_warp("total", (64,), (16,), lambda fb, xp: fb.splat(fb.reduce(fb.load(xp), "sum", 0), (16,)))
    x = np.arange(64, dtype=np.float32)
    for level, got in _outputs(fn, x, (16,)).items():
        np.testing.assert_array_equal(got, np.full(16, x.sum()), err_msg=level)


def test_pointer_extract_spanning_pieces_is_a_pass_error():
    def body(fb, xp):
        fb.load(xp)  # which splits xp in four
        return fb.load(fb.extract(xp, 0, (64, 32)))

    fn = _one_warp("ptr_straddle", (64, 64), (64, 32), body)
    compile_kernel(fn, to_level="warp")
    with pytest.raises(PassError, match="block pointers do not glue"):
        compile_kernel(fn, to_level="intrinsic")


def _split_tile(body, o_shape, rooted=True):
    """A 4-warp kernel that loads a 64x64 tile of X and stores body(fb, tile)
    to O; when `rooted`, it then stores the tile itself to P, which roots the
    layout at the tile: 2x2 warps of 32x32."""
    fb = FunctionBuilder("split", [("X", PtrType(F32)), ("O", PtrType(F32)), ("P", PtrType(F32))], num_warps=4)
    x_arg, o_arg, p_arg = fb.fn.args
    tile = fb.load(_block_ptr(fb, x_arg, (64, 64)))
    fb.store(_block_ptr(fb, o_arg, o_shape), body(fb, tile))
    if rooted:
        fb.store(_block_ptr(fb, p_arg, (64, 64)), tile)
    fb.ret()
    return fb.build()


_ACROSS_WARPS = [
    # each index of a 16x16 block: 0-3 used to race between warps at run
    # time, 4-15 to fail in the verifier after the passes
    *[pytest.param(lambda fb, t, i=i: fb.extract(t, i, (16, 16)), (16, 16), True,
                   "tt.extract moves data along dim 0, .* each warp holds 32 of its 64", id=f"extract{i}")
      for i in range(16)],
    # rooted at the extract, warps hold 8x8 of the tile: block 0 used to be
    # warp 0's own share, right only by chance
    pytest.param(lambda fb, t: fb.extract(t, 0, (16, 16)), (16, 16), False,
                 "tt.extract moves data along dim 0, .* each warp holds 8 of its 64", id="extract0-unrooted"),
    pytest.param(lambda fb, t: fb.glue([t, t], (64, 128)), (64, 128), True,
                 "tt.glue moves data along dim 1, .* each warp holds 32 of its 128", id="glue"),
    # rooted at the reduce, each warp holds 16 rows
    pytest.param(lambda fb, t: fb.reduce(t, "sum", 0), (64,), False,
                 "tt.reduce moves data along dim 0, .* each warp holds 16 of its 64", id="reduce"),
]


@pytest.mark.parametrize(("body", "o_shape", "rooted", "message"), _ACROSS_WARPS)
def test_moving_data_along_a_dim_split_over_warps_is_a_pass_error(body, o_shape, rooted, message):
    wg = assign_layouts(_split_tile(body, o_shape, rooted))
    with pytest.raises(PassError, match=message):
        distribute_to_warps(wg)


def test_a_tile_the_warps_shares_do_not_cover_is_a_pass_error():
    # the 1x64 row roots the layout (warps of 1x16), so the 64x64 broadcast of
    # it has one row per warp; warp, intrinsic and visa used to store row 0 only
    fb = FunctionBuilder("row_bcast", [("X", PtrType(F32)), ("O", PtrType(F32)), ("P", PtrType(F32))], num_warps=4)
    x_arg, o_arg, p_arg = fb.fn.args
    row = fb.load(_block_ptr(fb, x_arg, (1, 64)))
    wide = fb.broadcast(row, (64, 64))
    fb.store(_block_ptr(fb, o_arg, (64, 64)), wide)
    fb.store(_block_ptr(fb, p_arg, (1, 64)), row)
    fb.ret()
    fn = fb.build()
    x = np.arange(64, dtype=np.float32)[None]
    mem = DeviceMemory()
    for name, data in (("X", x), ("O", np.zeros((64, 64))), ("P", np.zeros((1, 64)))):
        mem.set_tensor(name, data, F32)
    out = run(compile_kernel(fn, to_level="workgroup").at_level("workgroup"), LaunchConfig(), mem)
    np.testing.assert_array_equal(out.tensor("O"), np.repeat(x, 64, axis=0))
    with pytest.raises(PassError, match=r"^@row_bcast: tt.broadcast: the warps' shares cover 1 of the 64 elements "
                                        r"along dim 0 of its \(64, 64\) tile, and would drop the rest"):
        compile_kernel(fn, to_level="warp")


# a workgroup kernel annotated by hand: four warps of 16 full rows each over
# a tile of 32 rows, so the warp grid overshoots the tile
_WRAP = """\
#blocked = #triton_gpu.blocked<{sizePerWarp = [16, 64], warpsPerCTA = [4, 1], order = [1, 0]}>

tt.func public @wrap(%X: !tt.ptr<f32>, %O: !tt.ptr<f32>) attributes {num_warps = 4} {
  %0 = arith.constant {value = 0} : () -> i32
  %1 = arith.constant {value = 1} : () -> i32
  %2 = arith.constant {value = 32} : () -> i32
  %3 = arith.constant {value = 64} : () -> i32
  %4 = tt.make_tensor_ptr %X, %2, %3, %3, %1, %0, %0 {order = [1, 0]} : (!tt.ptr<f32>, i32, i32, i32, i32, i32, i32) \
-> !tt.ptr<tensor<32x64xf32, #blocked>>
  %5 = tt.load %4 : (!tt.ptr<tensor<32x64xf32, #blocked>>) -> tensor<32x64xf32, #blocked>
  %6 = tt.make_tensor_ptr %O, %2, %3, %3, %1, %0, %0 {order = [1, 0]} : (!tt.ptr<f32>, i32, i32, i32, i32, i32, i32) \
-> !tt.ptr<tensor<32x64xf32, #blocked>>
  tt.store %6, %5 : (!tt.ptr<tensor<32x64xf32, #blocked>>, tensor<32x64xf32, #blocked>) -> ()
  tt.return
}
"""


def test_a_warp_grid_that_overshoots_the_tile_wraps_around():
    # warps 2 and 3 take the rows of warps 0 and 1 again, and store the same
    # bits there, which the race check lets pass
    wg = parse_module(_WRAP).get("wrap")
    warp = distribute_to_warps(wg)
    x = np.arange(32 * 64, dtype=np.float32).reshape(32, 64)
    mem = DeviceMemory()
    for name, data in (("X", x), ("O", np.zeros((32, 64)))):
        mem.set_tensor(name, data, F32)
    np.testing.assert_array_equal(run(wg, LaunchConfig(), mem).tensor("O"), x)
    trace = RunTrace()
    np.testing.assert_array_equal(run(warp, LaunchConfig(), mem, trace=trace).tensor("O"), x)
    for accesses in (trace.loads, trace.stores):
        assert sorted((a.warp, a.offsets, a.block) for a in accesses) == [
            (0, (0, 0), (16, 64)), (1, (16, 0), (16, 64)), (2, (0, 0), (16, 64)), (3, (16, 0), (16, 64))]


def test_distribution_of_a_kernel_without_encodings_is_a_pass_error():
    with pytest.raises(PassError, match=r"^@gemm_256: distribution needs encodings; tensor<256x32xf16> has none "
                                        r"\(run layout assignment\)$"):
        distribute_to_warps(load_fixture("gemm_256"))


def test_expand_dims_of_a_blocked_row_inserts_a_unit_dim():
    # the row, stored last, roots the layout at four warps of 16 elements;
    # its 1x64 expansion takes that split with a unit dim in front
    fb = FunctionBuilder("row_up", [("X", PtrType(F32)), ("O", PtrType(F32)), ("P", PtrType(F32))], num_warps=4)
    x_arg, o_arg, p_arg = fb.fn.args
    row = fb.load(_block_ptr(fb, x_arg, (64,)))
    fb.store(_block_ptr(fb, o_arg, (1, 64)), fb.expand_dims(row, 0))
    fb.store(_block_ptr(fb, p_arg, (64,)), row)
    fb.ret()
    res = compile_kernel(fb.build())
    (up,) = ops_of(res.layouts, "tt.expand_dims")
    assert up.results[0].type.encoding == BlockedEncoding((1, 16), (1, 4), (1, 0))
    x = np.arange(64, dtype=np.float32)
    mem = DeviceMemory()
    for name, data in (("X", x), ("O", np.zeros((1, 64))), ("P", np.zeros(64))):
        mem.set_tensor(name, data, F32)
    for level in ("workgroup", "warp", "intrinsic", "visa"):
        out = run(res.at_level(level), LaunchConfig(), mem)
        np.testing.assert_array_equal(out.tensor("O"), x[None], err_msg=level)
        np.testing.assert_array_equal(out.tensor("P"), x, err_msg=level)


def test_reduction_rooted_kernel_matches_numpy_at_every_level():
    fb = FunctionBuilder("rowmax_exp", [("X", PtrType(F32)), ("O", PtrType(F32))], num_warps=4)
    x_arg, o_arg = fb.fn.args
    fb.store(_block_ptr(fb, o_arg, (128,)), fb.reduce(fb.exp(fb.load(_block_ptr(fb, x_arg, (128, 64)))), "max", 1))
    fb.ret()
    fn = fb.build()
    assert classify_workload(fn).kind == "reduction"
    x = np.random.default_rng(15).standard_normal((128, 64)).astype(np.float32)
    got = _outputs(fn, x, (128,), levels=("workgroup", "warp", "intrinsic", "visa"))
    np.testing.assert_array_equal(got["warp"], got["workgroup"])
    np.testing.assert_array_equal(got["visa"], got["intrinsic"])
    for level, out in got.items():
        np.testing.assert_allclose(out, np.exp(x).max(axis=1), rtol=1e-6, err_msg=level)
