"""Virtual ISA lowering: widths, mnemonics, stats, target profiles."""

from __future__ import annotations

from dataclasses import replace
from importlib.resources import files

import pytest

from tilec import sim
from tilec.ir import WARP_ONLY_OPS, ElemType, FunctionBuilder, KernelFn, PtrType, scalar, verify
from tilec.kernels import load_fixture
from tilec.passes import compile_kernel
from tilec.visa import (
    LOWERING,
    PVC,
    LoweringError,
    Stats,
    TargetConfig,
    VOpcode,
    count_stats,
    disassemble,
    lower,
    parse_target,
)

F16 = ElemType.f16
F32 = ElemType.f32


def test_pvc_profile():
    assert PVC.max_load == (32, 32)
    assert PVC.max_dot == (8, 16, 16)
    assert PVC.threads_per_warp == 16
    assert PVC.slm_bytes == 131072
    assert PVC.style == "simt"


def test_target_validation():
    with pytest.raises(ValueError):
        TargetConfig(style="scalar")
    with pytest.raises(ValueError):
        TargetConfig(threads_per_warp=0)


def test_parse_shipped_target_file():
    text = files("tilec").joinpath("targets/pvc.target").read_text()
    t = parse_target(text, name="pvc")
    assert t.max_load == (32, 32)
    assert t.max_dot == (8, 16, 16)
    assert t.threads_per_warp == 16
    assert t.slm_bytes == 131072
    assert t.style == "simd"
    assert t == replace(PVC, style="simd")  # the built-in default differs only in style


def test_parse_target_errors():
    with pytest.raises(ValueError):
        parse_target("max_load=32")
    with pytest.raises(ValueError):
        parse_target("clock=9000")
    with pytest.raises(ValueError):
        parse_target("threads_per_warp=many")
    with pytest.raises(ValueError, match="^target line 2: repeated key max_load$"):
        parse_target("max_load=32x32\nmax_load=8x8")


def test_lower_requires_intrinsic_level():
    res = compile_kernel(load_fixture("gemm_256"), to_level="warp")
    with pytest.raises(LoweringError):
        lower(res.distribute, PVC)


def test_lowering_table_inverts():
    # raise_program reads an instruction's IR kind off its (opcode, op) pair
    pairs = [(row.opcode, row.op) for row in LOWERING.values()]
    assert len(set(pairs)) == len(pairs)


def test_one_table_of_op_kinds():
    # the simulator runs every kind the lowering knows, loops and branches
    # in its executor, and the verifier knows each of them
    assert set(LOWERING) == set(sim._SEMANTICS) | {"scf.for", "scf.if"}
    for kind in LOWERING:
        fb = FunctionBuilder("known", [], level="intrinsic")
        fb.op(kind)
        fb.ret()
        assert not any(d.message.startswith("unknown op kind") for d in verify(fb.build())), kind
    for kind in WARP_ONLY_OPS:
        fb = FunctionBuilder("wg", [])
        fb.op(kind)
        fb.ret()
        assert f"{kind} is only valid in warp-level functions or pass output" in [d.message for d in verify(fb.build())]


def test_unknown_op_has_no_lowering():
    fb = FunctionBuilder("bogus", [], level="intrinsic")
    fb.op("tt.bogus")
    fb.ret()
    with pytest.raises(LoweringError, match="@bogus: no lowering for op 'tt.bogus'"):
        lower(fb.build(), PVC)


def test_non_pointer_argument_is_spelled_as_ir():
    fb = FunctionBuilder("f", [("X", scalar(ElemType.f32))], level="intrinsic")
    fb.ret()
    with pytest.raises(LoweringError) as exc:
        lower(fb.build(), PVC)
    assert str(exc.value) == "@f: only buffer pointer arguments lower, %X is f32"


def _intrinsic(build) -> KernelFn:
    """An intrinsic-level kernel on an f32 buffer X whose body `build(fb, X)` writes."""
    fb = FunctionBuilder("f", [("X", PtrType(F32))], level="intrinsic")
    build(fb, fb.fn.args[0])
    fb.ret()
    return fb.build()


def _load_64x64(fb, x) -> None:
    c0, c1, c64 = (fb.constant(v) for v in (0, 1, 64))
    fb.load(fb.make_tensor_ptr(x, [c64, c64], [c64, c1], [c0, c0], (64, 64), (1, 0)))


def _dot_16x16x16(fb, x) -> None:
    a = fb.splat(fb.constant(1.0, F16), (16, 16))
    fb.dot(a, a, fb.splat(fb.constant(0.0), (16, 16)))


@pytest.mark.parametrize(("build", "target", "message"), [
    (_load_64x64, PVC, "@f: load block (64, 64) exceeds max load (32, 32)"),
    (_dot_16x16x16, PVC, "@f: mma 16x16x16 violates max dot 8x16x16 (m may be smaller, n and k must match)"),
    (lambda fb, x: fb.alloc((1, 4), F32), replace(PVC, slm_bytes=8), "@f: SLM use 16 bytes exceeds target budget 8"),
    (lambda fb, x: fb.splat(fb.constant(1.0), (1, 24)), PVC, "vector length 24 not divisible by threadsPerWarp 16"),
    (lambda fb, x: fb.splat(fb.constant(1.0, F16), (1, 3)), replace(PVC, style="simd"),
     "odd f16 element count 3 cannot be packed"),
], ids=["over_max_load", "over_max_dot", "slm_over_budget", "simt_lanes", "odd_packed_f16"])
def test_lowering_rejects_what_the_target_cannot_run(build, target, message):
    with pytest.raises(LoweringError) as exc:
        lower(_intrinsic(build), target)
    assert str(exc.value) == message


@pytest.mark.parametrize(("ub", "step", "message"), [
    (lambda fb: fb.program_id(0), 1, "stats require constant loop bounds"),
    (lambda fb: fb.constant(4), 0, "non-positive loop step 0"),
], ids=["bounds_not_constant", "step_zero"])
def test_stats_reject_a_loop_without_a_static_trip_count(ub, step, message):
    def loop(fb, x):
        fb.begin_for(fb.constant(0), ub(fb), fb.constant(step), [])
        fb.end_for([])

    prog = lower(_intrinsic(loop), PVC)
    with pytest.raises(LoweringError) as exc:
        count_stats(prog)
    assert str(exc.value) == message


def test_gemm_mnemonics(gemm_compiled):
    text = disassemble(gemm_compiled.vprog)
    assert "block2d_load.v64i16" in text  # A tile, one i16 unit per element
    assert "block2d_load.v32i32" in text  # B tile, f16 pair packed per unit
    assert "dpas.v8f32.v8i16.v8i32" in text
    assert "block2d_store.v8i32" in text


def test_dot_reads_b_in_the_format_its_producer_wrote():
    # a splat defines a plain f16 register: the dpas must not read it packed
    fb = FunctionBuilder("splat_dot", [("O", PtrType(ElemType.f32))], level="intrinsic")
    one, zero = fb.constant(1.0, ElemType.f16), fb.constant(0.0)
    d = fb.dot(fb.splat(one, (8, 16)), fb.splat(one, (16, 16)), fb.splat(zero, (8, 16)))
    c0, c1, c16 = fb.constant(0), fb.constant(1), fb.constant(16)
    fb.store(fb.make_tensor_ptr(fb.fn.args[0], [c16, c16], [c16, c1], [c0, c0], (8, 16), (1, 0)), d)
    fb.ret()
    text = disassemble(lower(fb.build(), PVC))
    assert "%3 = mov.splat.v16f16 %0" in text
    assert "dpas.v8f32.v8i16.v16i16" in text


def test_simd_style_widths(gemm_compiled):
    simd = lower(gemm_compiled.match, replace(PVC, style="simd"))
    text = disassemble(simd)
    assert simd.style == "simd"
    assert "block2d_load.v512i32" in text  # whole-warp width for the A tile


def test_gemm_stats(gemm_compiled):
    stats = count_stats(gemm_compiled.vprog)
    assert stats == Stats(loads=3, stores=16, mmas=32, barriers=0,
                          bytes_loaded=49152, slm_bytes_used=0)
    assert stats.as_lines()[0] == "loads=3"
    assert stats.as_lines()[4] == "bytes_loaded=49152"


def test_stats_count_loop_trips(gemm_compiled):
    # 8 k-steps: one 32x32 A tile and two 32x32 B tiles of f16 per step
    stats = count_stats(gemm_compiled.vprog)
    assert stats.bytes_loaded == 8 * 3 * 32 * 32 * 2


def test_paged_warp_uses_slm_and_barrier():
    res = compile_kernel(load_fixture("paged_warp"))
    stats = count_stats(res.vprog)
    assert stats.slm_bytes_used == 64 * 2  # one (1, 64) f16 staging tile
    assert stats.barriers >= 1
    ops = [i.opcode for i in res.vprog.walk()]
    assert VOpcode.slm_alloc in ops
    assert VOpcode.cross_warp_reduce in ops


def test_program_metadata(gemm_compiled):
    prog = gemm_compiled.vprog
    assert prog.name == "gemm_256"
    assert prog.num_warps == 32
    assert prog.style == "simt"
    assert prog.threads_per_warp == 16
    assert [n for n, _ in prog.args] == ["A", "B", "C"]


def test_disassemble_structure(gemm_compiled):
    text = disassemble(gemm_compiled.vprog)
    assert text.startswith("vprogram @gemm_256 style=simt tpw=16 num_warps=32")
    assert " = for %" in text  # the k-loop keeps its bounds and carried regs
    assert text.rstrip().endswith("}")
    assert "  ret" in text
