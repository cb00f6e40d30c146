"""Virtual GPU: memory, tensor files, launches, tracing, failure modes."""

from __future__ import annotations

import contextlib
import gc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import outcome, prove_nothing, ungrouped
from tilec import footprints as fp
from tilec.ir import (ElemType, FunctionBuilder, KernelFn, KernelModule, PtrType, Region, TensorType, Value, retile,
                      scalar)
from tilec.kernels import FIXTURE_NAMES, kernel_text, load_fixture, make_problem, suite
from tilec.oracle import philox, rand_f16
from tilec import sim
from tilec.passes import compile_kernel
from tilec.sim import (
    DeviceMemory,
    LaunchConfig,
    RunTrace,
    SimError,
    dump_tensor,
    load_tensor,
    prepare,
    run,
)
from tilec.textio import parse_module, print_module
from tilec.visa import PVC, VInstr, VOpcode, VProgram, lower

F16 = ElemType.f16
F32 = ElemType.f32
I32 = ElemType.i32


def test_device_memory_roundtrip():
    mem = DeviceMemory()
    x = rand_f16(philox(1), 4, 6)
    mem.set_tensor("X", x, F16)
    assert mem.names() == ["X"]
    assert "X" in mem and "Y" not in mem
    assert mem.shapes["X"] == (4, 6)
    assert mem.elem_of("X") == F16
    assert np.array_equal(mem.tensor("X"), x)
    assert mem.raw("X").ndim == 1

    cp = mem.copy()
    assert cp.equal_bits(mem)
    cp.raw("X")[0] += 1.0
    assert not cp.equal_bits(mem)


def test_tensor_file_roundtrip(tmp_path):
    for elem, data in ((F16, rand_f16(philox(2), 3, 5)),
                       (F32, philox(3).random((2, 7)).astype(np.float32)),
                       (I32, np.arange(12, dtype=np.int32).reshape(3, 4))):
        p = tmp_path / f"{elem.value}.tnsr"
        dump_tensor(str(p), data, elem)
        back, back_elem = load_tensor(str(p))
        assert back_elem == elem
        assert np.array_equal(back, np.asarray(data, dtype=back.dtype))
        # the caller owns the array: it is writable and no view of the file's bytes
        assert back.flags.writeable and back.flags.owndata


def test_tensor_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.tnsr"
    # wrong magic; then a rank-3 header with no dims after it
    for blob in (b"NOPE" + b"\x00" * 16, b"TTNS" + bytes([1, 0, 3, 0])):
        p.write_bytes(blob)
        with pytest.raises(ValueError):
            load_tensor(str(p))


def test_launch_config_validation():
    with pytest.raises(ValueError):
        LaunchConfig(grid=(0, 1, 1))
    with pytest.raises(ValueError):
        LaunchConfig(grid=(2, 2))


def _pid_kernel():
    """Each workgroup stores its program id into its own 16-row band."""
    fb = FunctionBuilder("bands", [("O", PtrType(I32))], num_warps=1)
    (o_arg,) = fb.fn.args
    c0 = fb.constant(0)
    c1 = fb.constant(1)
    c8 = fb.constant(8)
    c16 = fb.constant(16)
    c64 = fb.constant(64)
    pid = fb.program_id(0)
    row = fb.binary("arith.muli", pid, c16)
    ptr = fb.make_tensor_ptr(o_arg, [c64, c8], [c8, c1], [row, c0], (16, 8), (1, 0))
    fb.store(ptr, fb.splat(pid, (16, 8)))
    fb.ret()
    return fb.build()


def _counter_rows() -> KernelFn:
    """On trip t of 4, stores t to row t, columns 0-1, of a 4x4 O, and from
    a one-trip inner loop whose carry starts at t, t to columns 2-3."""
    fb = FunctionBuilder("counter", [("O", PtrType(I32))], level="warp")
    (o,) = fb.fn.args
    c0, c1, c2, c4 = (fb.constant(v) for v in (0, 1, 2, 4))
    t, _ = fb.begin_for(c0, c4, c1, [])
    fb.store(fb.make_tensor_ptr(o, [c4, c4], [c4, c1], [t, c0], (1, 2), (1, 0)), fb.splat(t, (1, 2)))
    _, (c,) = fb.begin_for(c0, c1, c1, [t])
    fb.store(fb.make_tensor_ptr(o, [c4, c4], [c4, c1], [t, c2], (1, 2), (1, 0)), fb.splat(c, (1, 2)))
    fb.end_for([c])
    fb.end_for([])
    fb.ret()
    return fb.build()


@pytest.mark.parametrize("grouped", [True, False])
def test_a_splat_of_a_loop_counter_or_of_a_carry_it_starts_runs(grouped, monkeypatch):
    if not grouped:
        ungrouped(monkeypatch)
    mem = DeviceMemory()
    mem.set_tensor("O", np.full((4, 4), -1), I32)
    assert run(_counter_rows(), LaunchConfig(), mem).tensor("O").tolist() == [[t] * 4 for t in range(4)]


def test_grid_covers_all_workgroups():
    fn = _pid_kernel()
    mem = DeviceMemory()
    mem.set_tensor("O", np.full((64, 8), -1), I32)
    out = run(fn, LaunchConfig(grid=(4, 1, 1)), mem)
    o = out.tensor("O")
    for g in range(4):
        assert np.all(o[16 * g : 16 * (g + 1)] == g)
    # input memory is never mutated in place
    assert np.all(mem.tensor("O") == -1)


def test_run_validates_bindings():
    fn = _pid_kernel()
    with pytest.raises(SimError):
        run(fn, LaunchConfig(), DeviceMemory())  # no buffer named O
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((64, 8)), F16)  # wrong element type
    with pytest.raises(SimError):
        run(fn, LaunchConfig(), mem)


def test_run_validates_order():
    fn = _pid_kernel()
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((64, 8)), I32)
    with pytest.raises(SimError):
        run(fn, LaunchConfig(grid=(2, 1, 1), wg_order=(0, 0)), mem)


def test_barrier_divergence_detected():
    fb = FunctionBuilder("diverge", [("O", PtrType(F32))], num_warps=2, level="warp")
    wid = fb.warp_id()
    cond = fb.cmpi("eq", wid, fb.constant(0))
    fb.begin_if(cond)
    fb.barrier()
    fb.end_if()
    fb.ret()
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros(4, dtype=np.float32), F32)
    with pytest.raises(SimError) as exc:
        run(fb.build(), LaunchConfig(), mem)
    assert "divergence" in str(exc.value)


def test_slm_overflow_detected():
    fb = FunctionBuilder("hog", [("O", PtrType(F32))], num_warps=1, level="warp")
    fb.alloc((512, 512), F32)  # 1 MiB, over the 128 KiB default budget
    fb.ret()
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros(4, dtype=np.float32), F32)
    with pytest.raises(SimError) as exc:
        run(fb.build(), LaunchConfig(), mem)
    assert "SLM" in str(exc.value)


def test_trace_records_accesses():
    fn = _pid_kernel()
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((64, 8)), I32)
    trace = RunTrace()
    run(fn, LaunchConfig(grid=(2, 1, 1)), mem, trace=trace)
    assert not trace.loads
    assert [s.offsets for s in trace.stores] == [(0, 0), (16, 0)]
    assert all(s.block == (16, 8) and s.base == "O" for s in trace.stores)


@pytest.mark.parametrize("step", [0, -1])
@pytest.mark.parametrize("level", ["workgroup", "visa"])
def test_non_positive_loop_step_rejected(level, step):
    text = kernel_text("paged_wg").replace(
        "  %6 = tt.make_tensor_ptr",
        f"  %step = arith.constant {{value = {step}}} : () -> i32\n  %6 = tt.make_tensor_ptr",
    ).replace("step %1 iter_args", "step %step iter_args")
    res = compile_kernel(parse_module(text).get("paged_wg"))
    prob = make_problem(suite()["paged_wg"])
    with pytest.raises(SimError, match=rf"@paged_wg wg=0 .*for: non-positive loop step {step}$"):
        run(res.at_level(level), prob.launch, prob.mem)


def test_unmapped_visa_instruction_rejected_at_decode():
    body = [VInstr(VOpcode.loop_ctl, "ret"), VInstr(VOpcode.alu, "frobnicate", ("%0",))]
    with pytest.raises(SimError, match="alu.frobnicate"):
        run(VProgram("bogus", (), 1, "simt", 16, body), LaunchConfig(), DeviceMemory())


@pytest.mark.parametrize(("instr", "message"), [
    (VInstr(VOpcode.extract, "", ("%1",), ("%0",), {"index": 0}, (8, 8), F32),
     "extract reads register %0 before it is defined"),
    (VInstr(VOpcode.alu, "addf", ("%1",), ("%0", "%0"), {}, (8, 8), F32),  # read by no step
     "alu.addf reads register %0 before it is defined"),
    (VInstr(VOpcode.mov, "const", ("%0",), (), {"value": 1.0}, (2, 2, 2), F32),
     "mov.const: rank 3 tensor not supported (max 2)"),
], ids=["extract", "unread_addf", "rank3"])
def test_malformed_visa_instruction_rejected_at_decode(instr, message):
    body = [instr, VInstr(VOpcode.loop_ctl, "ret")]
    with pytest.raises(SimError) as exc:
        run(VProgram("bogus", (), 1, "simt", 16, body), LaunchConfig(), DeviceMemory())
    assert str(exc.value) == f"@bogus: {message}"


def _malformed_ir(build, level: str = "warp") -> KernelFn:
    """A kernel at `level` on an f32 buffer X whose body `build(fb, X)` writes."""
    fb = FunctionBuilder("bad", [("X", PtrType(F32))], level=level)
    build(fb, fb.fn.args[0])
    fb.ret()
    return fb.build()


def _tile_base(fb, x) -> None:
    c0, c1, c4 = (fb.constant(v) for v in (0, 1, 4))
    tile = fb.splat(fb.constant(1.0), (4, 4))
    ptr = fb.op("tt.make_tensor_ptr", [tile, c4, c4, c4, c1, c0, c0], {"order": [1, 0]},
                [PtrType(TensorType((4, 4), F32))]).result
    fb.load(ptr)


def _for_without_yield(fb, x) -> None:
    c0, c1 = fb.constant(0), fb.constant(1)
    fb.op("scf.for", [c0, c1, c1], {}, [], [Region([Value(scalar(I32))])])


def _rank_1_dot(fb, x) -> None:
    a = fb.splat(fb.constant(1.0), (4,))
    fb.dot(a, a, a)  # its result is read by no step


def _malformed_visa(*body: VInstr) -> VProgram:
    return VProgram("bad", (("X", F32),), 1, "simt", 16, [*body, VInstr(VOpcode.loop_ctl, "ret")])


def _const(reg: str, value, elem: ElemType) -> VInstr:
    return VInstr(VOpcode.mov, "const", (reg,), (), {"value": value}, (), elem)


@pytest.mark.parametrize(("prog", "message"), [
    (_malformed_ir(_tile_base), "tt.make_tensor_ptr: base must be a buffer pointer"),
    (_malformed_ir(_for_without_yield), "scf.for: body must end in scf.yield"),
    (_malformed_ir(lambda fb, x: fb.op("tt.load", [fb.constant(0)], {}, [scalar(I32)])),
     "tt.load: operand must be a block pointer"),
    (_malformed_ir(_rank_1_dot), "tt.dot: operands must be rank-2 tensors"),
    (_malformed_ir(lambda fb, x: fb.extract(fb.splat(fb.constant(1.0), (8, 8)), 4, (4, 4)), "intrinsic"),
     "tt.extract: index must lie in [0, 4) for sub-block grid (2, 2)"),
    (_malformed_visa(VInstr(VOpcode.extract, "ptr", ("%0",), ("%X",), {"index": 0}, (8, 8), F32)),
     "tt.extract: block-typed source required"),
    (_malformed_visa(_const("%0", 1.0, F32), VInstr(VOpcode.mma, "", ("%1",), ("%0", "%0", "%0"), {}, (), F32)),
     "tt.dot: operands must be rank-2 tensors"),
    (_malformed_visa(_const("%0", 0, I32), _const("%1", 1, I32),
                     VInstr(VOpcode.loop_ctl, "for", (), ("%0", "%1", "%1"), {"iv": "%2", "iters": []}, body=[])),
     "scf.for: body must end in scf.yield"),
], ids=["tile_base", "for_without_yield", "load_of_a_scalar", "rank_1_dot", "extract_out_of_grid",
        "visa_extract_ptr_of_an_argument", "visa_mma_of_scalars", "visa_for_with_empty_body"])
def test_a_malformed_program_fails_verification_as_a_sim_error(prog, message):
    mem = DeviceMemory()
    mem.set_tensor("X", np.zeros((8, 8)), F32)
    with pytest.raises(SimError) as exc:
        run(prog, LaunchConfig(), mem)
    assert str(exc.value) == f"@bad: {message}"


# copies the 8x16 block at row `off` of X, seen as `rows` rows of 16 with row
# stride 16, to the top of Y; X and Y hold 16x16 f32
_COPY = """tt.func public @copy(%X: !tt.ptr<f32>, %Y: !tt.ptr<f32>) attributes {{num_warps = 1}} {{
  %0 = arith.constant {{value = 0}} : () -> i32
  %1 = arith.constant {{value = 1}} : () -> i32
  %2 = arith.constant {{value = 16}} : () -> i32
  %3 = arith.constant {{value = {rows}}} : () -> i32
  %4 = arith.constant {{value = {off}}} : () -> i32
  %5 = tt.make_tensor_ptr %X, %3, %2, %2, %1, %4, %0 {{order = [1, 0]}} : (!tt.ptr<f32>, i32, i32, i32, i32, i32, i32) -> !tt.ptr<tensor<8x16xf32>>
  %6 = tt.load %5 : (!tt.ptr<tensor<8x16xf32>>) -> tensor<8x16xf32>
  %7 = tt.make_tensor_ptr %Y, %2, %2, %2, %1, %0, %0 {{order = [1, 0]}} : (!tt.ptr<f32>, i32, i32, i32, i32, i32, i32) -> !tt.ptr<tensor<8x16xf32>>
  tt.store %7, %6 : (!tt.ptr<tensor<8x16xf32>>, tensor<8x16xf32>) -> ()
  tt.return
}}
"""


def _copy_at(level: str, rows: int = 16, off: int = 0):
    return compile_kernel(parse_module(_COPY.format(rows=rows, off=off)).get("copy")).at_level(level)


def _copy_mem(x: ElemType = F32, y: ElemType = F32) -> DeviceMemory:
    mem = DeviceMemory()
    mem.set_tensor("X", np.arange(256).reshape(16, 16), x)
    mem.set_tensor("Y", np.zeros((16, 16)), y)
    return mem


def _declare(prog, buf: str, elem: ElemType) -> None:
    """Declare buffer argument `buf` as `elem`; the accesses keep their types."""
    if isinstance(prog, VProgram):
        prog.args = tuple((n, elem if n == buf else e) for n, e in prog.args)
    else:
        prog.arg(buf).type = PtrType(elem)


def _narrow_y_block(prog) -> None:
    """Make the pointer to Y address an 8x8 block; the stored value stays 8x16."""
    if isinstance(prog, VProgram):
        next(i for i in prog.body if i.operands[:1] == ("%Y",)).shape = (8, 8)
    else:
        y = prog.arg("Y")
        res = next(o for o in prog.body.ops if o.operands[:1] == [y]).results[0]
        res.type = retile(res.type, (8, 8), None)


@pytest.mark.parametrize("level", ["workgroup", "visa"])
def test_memory_access_errors(level):
    load = "tt.load" if level == "workgroup" else "block2d_load"
    at = "@copy wg=0 pid=(0, 0, 0) warp=0"

    def fails(prog, mem, msg):
        with pytest.raises(SimError) as exc:
            run(prog, LaunchConfig(), mem)
        assert str(exc.value) == msg

    fails(_copy_at(level, off=12), _copy_mem(),
          f"out-of-bounds block access: dim 0 window [12, 20) outside [0, 16) ({at} {load})")
    fails(_copy_at(level, rows=32, off=16), _copy_mem(),
          f"out-of-bounds block access: flat index beyond buffer of 256 ({at} {load})")
    prog = _copy_at(level)
    _declare(prog, "X", F16)
    fails(prog, _copy_mem(x=F16), "@copy: tt.make_tensor_ptr: base element f16 != block element f32")
    prog = _copy_at(level)
    _declare(prog, "Y", F16)
    fails(prog, _copy_mem(y=F16), "@copy: tt.make_tensor_ptr: base element f16 != block element f32")
    prog = _copy_at(level)
    _narrow_y_block(prog)
    fails(prog, _copy_mem(), "@copy: tt.store: stored value type must equal the pointee block type")
    out = run(_copy_at(level), LaunchConfig(), _copy_mem())
    assert np.array_equal(out.tensor("Y")[:8], np.arange(128).reshape(8, 16))


@pytest.mark.parametrize("level", ["workgroup", "visa"])
def test_binding_elem_mismatch(level):
    with pytest.raises(SimError) as exc:
        run(_copy_at(level), LaunchConfig(), _copy_mem(x=F16))
    assert str(exc.value) == "@copy: buffer X holds f16, argument wants f32"


def test_non_pointer_argument_is_spelled_as_ir():
    fb = FunctionBuilder("f", [("X", scalar(F32))])
    fb.ret()
    with pytest.raises(SimError) as exc:
        run(fb.build(), LaunchConfig(), DeviceMemory())
    assert str(exc.value) == "@f: only buffer pointer arguments are bindable, %X is f32"


def _overwrite_after_load(level: str) -> KernelFn:
    """Load X's 16x32 block and take its second 8x16 piece, overwrite the block
    with -1, then store the load to the top of Y and the piece below it."""
    fb = FunctionBuilder("alias", [("X", PtrType(F32)), ("Y", PtrType(F32))], level=level)
    x, y = fb.fn.args
    c0, c1, c16, c32 = (fb.constant(v) for v in (0, 1, 16, 32))
    px = fb.make_tensor_ptr(x, [c32, c32], [c32, c1], [c0, c0], (16, 32), (1, 0))
    tile = fb.load(px)
    piece = fb.extract(tile, 1, (8, 16))
    fb.store(px, fb.splat(fb.constant(-1.0), (16, 32)))
    fb.store(fb.make_tensor_ptr(y, [c32, c32], [c32, c1], [c0, c0], (16, 32), (1, 0)), tile)
    fb.store(fb.make_tensor_ptr(y, [c32, c32], [c32, c1], [c16, c0], (8, 16), (1, 0)), piece)
    fb.ret()
    return fb.build()


@pytest.mark.parametrize("level", ["workgroup", "intrinsic", "visa"])
def test_loaded_tile_does_not_alias_its_buffer(level):
    fn = _overwrite_after_load("workgroup" if level == "workgroup" else "intrinsic")
    x = np.arange(1024).reshape(32, 32)
    mem = DeviceMemory()
    mem.set_tensor("X", x, F32)
    mem.set_tensor("Y", np.zeros((32, 32)), F32)
    out = run(lower(fn, PVC) if level == "visa" else fn, LaunchConfig(), mem)
    assert np.all(out.tensor("X")[:16] == -1.0) and np.array_equal(out.tensor("X")[16:], x[16:])
    assert np.array_equal(out.tensor("Y")[:16], x[:16])
    assert np.array_equal(out.tensor("Y")[16:24, :16], x[:8, 16:])


def _blocks(x: np.ndarray, first: int, strides: tuple[int, ...], block: tuple[int, ...]) -> np.ndarray:
    """The block of `x` whose first element is flat element `first`, by numpy indexing."""
    return x.reshape(-1)[first + np.tensordot(strides, np.indices(block), axes=1)]


def test_transposed_load_feeds_dot_a_c_ordered_tile(monkeypatch):
    # B is read from its transpose with strides (1, 32); tt.dot must get a
    # C-ordered tile, since the layout of a matmul operand can change its bits
    fb = FunctionBuilder("bt", [("A", PtrType(F32)), ("BT", PtrType(F32)), ("C", PtrType(F32))])
    a, bt, c = fb.fn.args
    c0, c1, c32 = (fb.constant(v) for v in (0, 1, 32))
    tile_a = fb.load(fb.make_tensor_ptr(a, [c32, c32], [c32, c1], [c0, c0], (32, 32), (1, 0)))
    tile_b = fb.load(fb.make_tensor_ptr(bt, [c32, c32], [c1, c32], [c0, c0], (32, 32), (0, 1)))
    acc = fb.dot(tile_a, tile_b, fb.splat(fb.constant(0.0), (32, 32)))
    fb.store(fb.make_tensor_ptr(c, [c32, c32], [c32, c1], [c0, c0], (32, 32), (1, 0)), acc)
    fb.ret()
    rng = philox(7)
    a_val, b_val = (rng.standard_normal((32, 32)).astype(np.float16).astype(np.float32) for _ in range(2))
    mem = DeviceMemory()
    mem.set_tensor("A", a_val, F32)
    mem.set_tensor("BT", b_val.T, F32)
    mem.set_tensor("C", np.zeros((32, 32)), F32)
    ordered, dot = [], sim._SEMANTICS["tt.dot"]

    def recording_dot(s, ctx, a):
        ordered.append([x.flags.c_contiguous for x in a[:2]])
        return dot(s, ctx, a)

    monkeypatch.setitem(sim._SEMANTICS, "tt.dot", recording_dot)
    out = run(fb.build(), LaunchConfig(), mem)
    assert ordered == [[True, True]]
    want = a_val[None] @ np.ascontiguousarray(b_val)[None] + np.zeros((1, 32, 32), np.float32)
    assert out.tensor("C").tobytes() == want[0].tobytes()


def _window_copy(glob, strides, offs, num_warps=1, masked=False) -> KernelFn:
    """Each warp loads a 4x4 block of X through a pointer whose fields are
    `glob`, `strides` and `offs`, each a function of the warp id w (an i32
    value) and the builder, and stores it to rows [4w, 4w + 4) of O; warp 2
    sits out if `masked`."""
    fb = FunctionBuilder("window", [("X", PtrType(F32)), ("O", PtrType(F32))], num_warps=num_warps, level="warp")
    x, o = fb.fn.args
    w, c0, c1, c4 = fb.warp_id(), fb.constant(0), fb.constant(1), fb.constant(4)
    fields = [[f(w, fb) for f in fs] for fs in (glob, strides, offs)]
    if masked:
        fb.begin_if(fb.cmpi("ne", w, fb.constant(2)))
    tile = fb.load(fb.make_tensor_ptr(x, *fields, (4, 4), (1, 0)))
    dst = fb.make_tensor_ptr(o, [fb.constant(4 * num_warps), c4], [c4, c1], [fb.binary("arith.muli", w, c4), c0], (4, 4), (1, 0))
    fb.store(dst, tile)
    if masked:
        fb.end_if()
    fb.ret()
    return fb.build()


def _const(v: int):
    return lambda w, fb: fb.constant(v)


def _window_mem(num_warps: int = 1) -> DeviceMemory:
    mem = DeviceMemory()
    mem.set_tensor("X", np.arange(256).reshape(16, 16), F32)
    mem.set_tensor("O", np.zeros((4 * num_warps, 4)), F32)
    return mem


@pytest.mark.parametrize(("glob", "strides", "offs"), [
    ((4, 16), (0, 1), (0, 3)),  # a stride-0 dimension replicates its rows
    ((4, 256), (-16, 1), (0, 60)),  # a negative stride reads rows upwards
    ((16, 16), (1, 16), (2, 5)),  # transposed
])
def test_window_load_matches_numpy_indexing(glob, strides, offs):
    fn = _window_copy([_const(v) for v in glob], [_const(v) for v in strides], [_const(v) for v in offs])
    out = run(fn, LaunchConfig(), _window_mem())
    first = int(np.dot(strides, offs))
    assert np.array_equal(out.tensor("O"), _blocks(np.arange(256), first, strides, (4, 4)))


@pytest.mark.parametrize("masked", [False, True])
def test_warps_with_their_own_strides_and_global_shape_load_their_blocks(masked):
    # odd warps read X transposed; warp w sees a global shape of 16 - w rows
    # and starts at row w, column 2w
    parity = lambda w, fb: fb.binary("arith.remi", w, fb.constant(2))  # noqa: E731
    times = lambda k, f: lambda w, fb: fb.binary("arith.muli", f(w, fb), fb.constant(k))  # noqa: E731
    plus = lambda k, f: lambda w, fb: fb.binary("arith.addi", f(w, fb), fb.constant(k))  # noqa: E731
    ident = lambda w, fb: w  # noqa: E731
    glob = [plus(16, times(-1, ident)), _const(16)]
    strides = [plus(16, times(-15, parity)), plus(1, times(15, parity))]
    fn = _window_copy(glob, strides, [ident, times(2, ident)], num_warps=4, masked=masked)
    out = run(fn, LaunchConfig(), _window_mem(4)).tensor("O")
    for w in range(4):
        st = (1, 16) if w % 2 else (16, 1)
        want = np.zeros((4, 4)) if masked and w == 2 else _blocks(np.arange(256), st[0] * w + st[1] * 2 * w, st, (4, 4))
        assert np.array_equal(out[4 * w : 4 * w + 4], want), w


@pytest.mark.parametrize(("glob", "strides", "offs", "msg"), [
    ((4, 300), (0, 1), (0, 254), "flat index beyond buffer of 256"),
    ((4, 256), (-16, 1), (0, 40), "flat index beyond buffer of 256"),
    ((4, 16), (0, 1), (2, 0), "dim 0 window [2, 6) outside [0, 4)"),
    ((4, 16), (-16, 1), (0, 14), "dim 1 window [14, 18) outside [0, 16)"),
])
def test_windows_past_the_buffer_are_out_of_bounds(glob, strides, offs, msg):
    fn = _window_copy([_const(v) for v in glob], [_const(v) for v in strides], [_const(v) for v in offs])
    with pytest.raises(SimError) as exc:
        run(fn, LaunchConfig(), _window_mem())
    assert str(exc.value) == f"out-of-bounds block access: {msg} (@window wg=0 pid=(0, 0, 0) warp=0 tt.load)"


@pytest.mark.parametrize("level", ["workgroup", "warp", "intrinsic", "visa"])
def test_missing_barrier_is_a_race(level):
    # without its barrier, warps 1-7 read the SLM row that warp 0 stores
    # before any synchronization point
    text = kernel_text("paged_warp").replace("  tt.barrier\n", "")
    prog = compile_kernel(parse_module(text).get("paged_warp")).at_level(level)
    prob = make_problem(suite()["paged_warp"])
    with pytest.raises(SimError, match=r"^race on buffer '%slm0' element 0: warps 0 and 1 touch it between two "
                                       r"synchronization points, .* \(@paged_warp wg=0 pid=\(0, 0, 0\) warp=1 "):
        run(prog, prob.launch, prob.mem)


def _overlapping_stores(per_warp: bool, transposed: bool = False) -> KernelFn:
    """Both warps store a 4x4 block to the top of O: their warp id where
    `per_warp`, else 1; warp 1 with strides (1, 4) if `transposed`."""
    fb = FunctionBuilder("overlap", [("O", PtrType(I32))], num_warps=2, level="warp")
    (o,) = fb.fn.args
    c0, c1, c4 = (fb.constant(v) for v in (0, 1, 4))
    w3 = fb.binary("arith.muli", fb.warp_id(), fb.constant(3 if transposed else 0))
    ptr = fb.make_tensor_ptr(o, [c4, c4], [fb.binary("arith.subi", c4, w3), fb.binary("arith.addi", c1, w3)],
                             [c0, c0], (4, 4), (1, 0))
    fb.store(ptr, fb.splat(fb.warp_id() if per_warp else c1, (4, 4)))
    fb.ret()
    return fb.build()


def test_replicated_stores_of_equal_bits_pass():
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((8, 4)), I32)
    trace = RunTrace()
    out = run(_overlapping_stores(per_warp=False), LaunchConfig(), mem, trace=trace)
    assert np.array_equal(out.tensor("O"), np.repeat([[1], [0]], 4, axis=0) * np.ones((8, 4)))
    assert [s.warp for s in trace.stores] == [0, 1]


def test_overlapping_stores_of_other_bits_race():
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((8, 4)), I32)
    with pytest.raises(SimError) as exc:
        run(_overlapping_stores(per_warp=True), LaunchConfig(), mem)
    assert str(exc.value) == (
        "race on buffer 'O' element 0: warps 0 and 1 touch it between two synchronization points, "
        "not only reading it or storing the same bits (@overlap wg=0 pid=(0, 0, 0) warp=0 tt.store)"
    )


def test_overlapping_stores_with_other_strides_race():
    # rows with other strides are checked and stored one strides after
    # another, so the later warp finds the earlier one's write and is named
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((8, 4)), I32)
    with pytest.raises(SimError) as exc:
        run(_overlapping_stores(per_warp=True, transposed=True), LaunchConfig(), mem)
    assert str(exc.value) == (
        "race on buffer 'O' element 0: warps 0 and 1 touch it between two synchronization points, "
        "not only reading it or storing the same bits (@overlap wg=0 pid=(0, 0, 0) warp=1 tt.store)"
    )


def test_store_after_loads_by_two_warps_races():
    # warps 0 and 1 both load the top of O in one step; then warp 1 alone
    # stores other bits there
    fb = FunctionBuilder("reload", [("O", PtrType(F32))], num_warps=2, level="warp")
    (o,) = fb.fn.args
    c0, c1, c4 = (fb.constant(v) for v in (0, 1, 4))
    ptr = fb.make_tensor_ptr(o, [c4, c4], [c4, c1], [c0, c0], (4, 4), (1, 0))
    tile = fb.load(ptr)
    fb.begin_if(fb.cmpi("eq", fb.warp_id(), c1))
    fb.store(ptr, fb.binary("arith.addf", tile, fb.splat(fb.constant(1.0), (4, 4))))
    fb.end_if()
    fb.ret()
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((4, 4)), F32)
    with pytest.raises(SimError) as exc:
        run(fb.build(), LaunchConfig(), mem)
    assert str(exc.value) == (
        "race on buffer 'O' element 0: warps 0 and 1 touch it between two synchronization points, "
        "not only reading it or storing the same bits (@reload wg=0 pid=(0, 0, 0) warp=1 tt.store)"
    )


@pytest.mark.parametrize(("storer", "other"), [(0, 2), (1, 0), (2, 0)])
def test_store_after_loads_by_three_warps_races(storer, other):
    # warps 0-2 load the top of O in one step, so their blocks overlap in the
    # read marks; then one warp stores other bits there.  The marks must hold
    # the lowest and highest reader whichever of the overlapping writes lands.
    fb = FunctionBuilder("reload", [("O", PtrType(F32))], num_warps=3, level="warp")
    (o,) = fb.fn.args
    c0, c1, c4 = (fb.constant(v) for v in (0, 1, 4))
    ptr = fb.make_tensor_ptr(o, [c4, c4], [c4, c1], [c0, c0], (4, 4), (1, 0))
    tile = fb.load(ptr)
    fb.begin_if(fb.cmpi("eq", fb.warp_id(), fb.constant(storer)))
    fb.store(ptr, fb.binary("arith.addf", tile, fb.splat(fb.constant(1.0), (4, 4))))
    fb.end_if()
    fb.ret()
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((4, 4)), F32)
    with pytest.raises(SimError) as exc:
        run(fb.build(), LaunchConfig(), mem)
    assert str(exc.value) == (
        f"race on buffer 'O' element 0: warps {min(storer, other)} and {max(storer, other)} touch it between "
        f"two synchronization points, not only reading it or storing the same bits "
        f"(@reload wg=0 pid=(0, 0, 0) warp={storer} tt.store)"
    )


def test_a_warp_storing_one_element_twice_does_not_race():
    # a row stride of 0 maps each column of a warp's 4x4 block to one element
    # of O, so each warp stores four rows of X over its own four elements
    fb = FunctionBuilder("alias", [("X", PtrType(F32)), ("O", PtrType(F32))], num_warps=2, level="warp")
    x, o = fb.fn.args
    c0, c1, c4, c8 = (fb.constant(v) for v in (0, 1, 4, 8))
    tile = fb.load(fb.make_tensor_ptr(x, [c4, c4], [c4, c1], [c0, c0], (4, 4), (1, 0)))
    col = fb.binary("arith.muli", fb.warp_id(), c4)
    fb.store(fb.make_tensor_ptr(o, [c4, c8], [c0, c1], [c0, col], (4, 4), (1, 0)), tile)
    fb.ret()
    x_val = philox(6).random((4, 4)).astype(np.float32)
    mem = DeviceMemory()
    mem.set_tensor("X", x_val, F32)
    mem.set_tensor("O", np.zeros((2, 4)), F32)
    out = run(fb.build(), LaunchConfig(), mem)
    o_val = out.tensor("O")
    assert all(o_val[w, c] in x_val[:, c] for w in range(2) for c in range(4))


def _reciprocals(pred: str, bound: int) -> KernelFn:
    """Warp w stores 1/x of row block w (4x4) of X to O, inside an scf.if
    that the warps with `warp_id pred bound` take."""
    fb = FunctionBuilder("recip", [("X", PtrType(F32)), ("O", PtrType(F32))], num_warps=2, level="warp")
    x, o = fb.fn.args
    c0, c1, c4, c8 = (fb.constant(v) for v in (0, 1, 4, 8))
    row = fb.binary("arith.muli", fb.warp_id(), c4)
    fb.begin_if(fb.cmpi(pred, fb.warp_id(), fb.constant(bound)))
    tile = fb.load(fb.make_tensor_ptr(x, [c8, c4], [c4, c1], [row, c0], (4, 4), (1, 0)))
    recip = fb.binary("arith.divf", fb.splat(fb.constant(1.0), (4, 4)), tile)
    fb.store(fb.make_tensor_ptr(o, [c8, c4], [c4, c1], [row, c0], (4, 4), (1, 0)), recip)
    fb.end_if()
    fb.ret()
    return fb.build()


def test_a_kernels_own_division_by_zero_warns():
    # both warps take the scf.if, and both divide by zero
    mem = DeviceMemory()
    mem.set_tensor("X", np.zeros((8, 4)), F32)
    mem.set_tensor("O", np.zeros((8, 4)), F32)
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        out = run(_reciprocals("slt", 2), LaunchConfig(), mem)
    assert np.all(np.isposinf(out.tensor("O")))


def test_masked_off_warps_compute_quietly():
    # warp 0 sits out the scf.if, so its load yields zeros that it divides by
    mem = DeviceMemory()
    mem.set_tensor("X", np.ones((8, 4)), F32)
    mem.set_tensor("O", np.zeros((8, 4)), F32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = run(_reciprocals("sge", 1), LaunchConfig(), mem)
    assert np.array_equal(out.tensor("O"), np.repeat([[0.0], [1.0]], 4, axis=0) * np.ones((8, 4)))


def _integer_ops(kind: str, pred: str, bound: int) -> KernelFn:
    """Warp w stores `7 kind w` to element w of the i32 buffer O, inside an
    scf.if that the warps with `warp_id pred bound` take; warp 0 divides by
    zero."""
    fb = FunctionBuilder("idiv", [("O", PtrType(I32))], num_warps=2, level="warp")
    (o,) = fb.fn.args
    wid = fb.warp_id()
    fb.begin_if(fb.cmpi(pred, wid, fb.constant(bound)))
    q = fb.binary(kind, fb.constant(7), wid)
    c1, c2 = fb.constant(1), fb.constant(2)
    fb.store(fb.make_tensor_ptr(o, [c2], [c1], [wid], (1,), (0,)), fb.splat(q, (1,)))
    fb.end_if()
    fb.ret()
    return fb.build()


@pytest.mark.parametrize("kind", ["arith.divi", "arith.remi"])
def test_an_active_row_dividing_an_integer_by_zero_fails(kind):
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros(2), I32)
    with pytest.raises(SimError, match=rf"^@idiv wg=0 pid=\(0, 0, 0\) warp=0 {kind}: integer division by zero$"):
        run(_integer_ops(kind, "sge", 0), LaunchConfig(), mem)
    # warp 0 sits out the scf.if, so its division by zero is never made
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = run(_integer_ops(kind, "sge", 1), LaunchConfig(), mem)
    assert out.tensor("O").tolist() == [0, 7 if kind == "arith.divi" else 0]


def test_integer_division_floors_and_the_remainder_takes_the_divisors_sign():
    fb = FunctionBuilder("ints", [(n, PtrType(I32)) for n in "ABQRW"], num_warps=1, level="warp")
    c0, c1, c5 = fb.constant(0), fb.constant(1), fb.constant(5)
    ptr = [fb.make_tensor_ptr(arg, [c5], [c1], [c0], (5,), (0,)) for arg in fb.fn.args]
    a, b = fb.load(ptr[0]), fb.load(ptr[1])
    fb.store(ptr[2], fb.binary("arith.divi", a, b))
    fb.store(ptr[3], fb.binary("arith.remi", a, b))
    fb.store(ptr[4], fb.binary("arith.addi", a, b))
    fb.ret()
    mem = DeviceMemory()
    mem.set_tensor("A", [-7, 7, -7, 7, -(2**31)], I32)
    mem.set_tensor("B", [2, 2, -2, -2, -1], I32)
    for name in "QRW":
        mem.set_tensor(name, np.zeros(5), I32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = run(fb.build(), LaunchConfig(), mem)
    assert out.tensor("Q").tolist() == [-4, 3, 3, -4, -(2**31)]  # MLIR's divsi would give -3, 3, 3, -3
    assert out.tensor("R").tolist() == [1, 1, -1, -1, 0]
    assert out.tensor("W").tolist() == [-5, 9, -9, 5, 2**31 - 1]  # i32 wraps around


def _suffix_sums(rows: int, warps: int) -> KernelFn:
    """Warp w adds rows w..rows-1 of X, one per loop trip, reading through a
    carried pointer, while a second carried pointer moves down O one row per
    trip; the sum goes where that pointer ends, row rows - w of O.  The trip
    count is rows - w, and a warp that is done would read past X's end."""
    fb = FunctionBuilder("suffix", [("X", PtrType(F32)), ("O", PtrType(F32))], num_warps=warps, level="warp")
    x, o = fb.fn.args
    c0, c1, c4, cr = (fb.constant(v) for v in (0, 1, 4, rows))
    wid = fb.warp_id()
    px = fb.make_tensor_ptr(x, [cr, c4], [c4, c1], [wid, c0], (1, 4), (1, 0))
    po = fb.make_tensor_ptr(o, [fb.constant(rows + 1), c4], [c4, c1], [c0, c0], (1, 4), (1, 0))
    _, (acc, px, po) = fb.begin_for(wid, cr, c1, [fb.splat(fb.constant(0.0), (1, 4)), px, po])
    acc = fb.binary("arith.addf", acc, fb.load(px))
    acc, _, po = fb.end_for([acc, fb.advance(px, [c1, c0]), fb.advance(po, [c1, c0])])
    fb.store(po, acc)
    fb.ret()
    return fb.build()


def test_loop_trip_count_may_differ_by_warp():
    x = philox(5).random((6, 4)).astype(np.float32)
    mem = DeviceMemory()
    mem.set_tensor("X", x, F32)
    mem.set_tensor("O", np.zeros((7, 4)), F32)
    out = run(_suffix_sums(rows=6, warps=4), LaunchConfig(), mem)
    want = np.zeros((7, 4), dtype=np.float32)
    for w in range(4):
        want[6 - w] = np.add.reduce(x[w:], axis=0, dtype=np.float32)
    assert np.array_equal(out.tensor("O"), want)


def test_fault_names_the_lowest_faulting_warp():
    # warp w loads rows 4w..4w+3 of an 8-row X: warps 2 and 3 are out of bounds
    fb = FunctionBuilder("rows", [("X", PtrType(F32))], num_warps=4, level="warp")
    (x,) = fb.fn.args
    c0, c1, c4, c8 = (fb.constant(v) for v in (0, 1, 4, 8))
    fb.load(fb.make_tensor_ptr(x, [c8, c4], [c4, c1], [fb.binary("arith.muli", fb.warp_id(), c4), c0], (4, 4), (1, 0)))
    fb.ret()
    mem = DeviceMemory()
    mem.set_tensor("X", np.zeros((8, 4)), F32)
    with pytest.raises(SimError) as exc:
        run(fb.build(), LaunchConfig(), mem)
    assert str(exc.value) == (
        "out-of-bounds block access: dim 0 window [8, 12) outside [0, 8) (@rows wg=0 pid=(0, 0, 0) warp=2 tt.load)"
    )


# -- launches of several workgroups ---------------------------------------------


def _shared_tile(num_warps: int, per_wg: bool) -> KernelFn:
    """Every warp of every workgroup stores a 4x4 block to the top of O: its
    program id where `per_wg`, else 1."""
    fb = FunctionBuilder("shared", [("O", PtrType(I32))], num_warps=num_warps, level="warp")
    (o,) = fb.fn.args
    c0, c1, c4 = (fb.constant(v) for v in (0, 1, 4))
    ptr = fb.make_tensor_ptr(o, [c4, c4], [c4, c1], [c0, c0], (4, 4), (1, 0))
    fb.store(ptr, fb.splat(fb.program_id(0) if per_wg else c1, (4, 4)))
    fb.ret()
    return fb.build()


@pytest.mark.parametrize("num_warps", [1, 2])
def test_workgroups_storing_one_tile_race_unless_the_bits_agree(num_warps):
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((4, 4)), I32)
    with pytest.raises(SimError) as exc:
        run(_shared_tile(num_warps, per_wg=True), LaunchConfig(grid=(2, 1, 1)), mem)
    assert str(exc.value) == (
        "race on buffer 'O' element 0: workgroups 0 and 1 of one launch touch it, "
        "not only reading it or storing the same bits (@shared wg=0 pid=(0, 0, 0) warp=0 tt.store)"
    )
    out = run(_shared_tile(num_warps, per_wg=False), LaunchConfig(grid=(2, 1, 1)), mem)
    assert np.array_equal(out.tensor("O"), np.ones((4, 4)))


def test_workgroup_loading_what_another_stored_races():
    # workgroup 0 stores the top of O; then workgroup 1 loads it
    fb = FunctionBuilder("handoff", [("O", PtrType(F32))], num_warps=1)
    (o,) = fb.fn.args
    c0, c1, c4 = (fb.constant(v) for v in (0, 1, 4))
    ptr = fb.make_tensor_ptr(o, [c4, c4], [c4, c1], [c0, c0], (4, 4), (1, 0))
    pid = fb.program_id(0)
    fb.begin_if(fb.cmpi("eq", pid, c0))
    fb.store(ptr, fb.splat(fb.constant(1.0), (4, 4)))
    fb.end_if()
    fb.begin_if(fb.cmpi("eq", pid, c1))
    fb.load(ptr)
    fb.end_if()
    fb.ret()
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((4, 4)), F32)
    with pytest.raises(SimError) as exc:
        run(fb.build(), LaunchConfig(grid=(2, 1, 1)), mem)
    assert str(exc.value) == (
        "race on buffer 'O' element 0: workgroups 0 and 1 of one launch touch it, "
        "not only reading it or storing the same bits (@handoff wg=1 pid=(1, 0, 0) warp=0 tt.load)"
    )


@pytest.mark.parametrize("name", ["gemm_256", "fa2_d64", "fa2_d128", "paged_wg", "paged_warp"])
def test_fixtures_do_not_race_and_any_schedule_gives_their_bits(name):
    res = compile_kernel(parse_module(kernel_text(name)).get(name))
    prob = make_problem(suite()[name])
    reverse = tuple(reversed(range(int(np.prod(prob.launch.grid)))))
    for level in ("workgroup", "warp", "intrinsic", "visa"):
        out = run(res.at_level(level), prob.launch, prob.mem)
        perm = run(res.at_level(level), LaunchConfig(grid=prob.launch.grid, wg_order=reverse), prob.mem)
        assert out.equal_bits(perm), level


def _slm_echo(past_end: bool = False, warps: int = 2) -> KernelFn:
    """The last of `warps` warps of each workgroup stores its program id plus
    1 to an SLM row (one row further down if `past_end`); after a barrier,
    warp w of workgroup g loads the row and stores it to row g * warps + w of O."""
    fb = FunctionBuilder("echo", [("O", PtrType(I32))], num_warps=warps, level="warp")
    (o,) = fb.fn.args
    c0, c1, c2, c4, c8 = (fb.constant(v) for v in (0, 1, warps, 4, 8))
    pid, wid = fb.program_id(0), fb.warp_id()
    slm = fb.alloc((1, 4), I32)
    fb.begin_if(fb.cmpi("eq", wid, fb.constant(warps - 1)))
    row = fb.splat(fb.binary("arith.addi", pid, c1), (1, 4))
    fb.store(fb.advance(slm, [c1, c0]) if past_end else slm, row)
    fb.end_if()
    fb.barrier()
    dst = fb.binary("arith.addi", fb.binary("arith.muli", pid, c2), wid)
    fb.store(fb.make_tensor_ptr(o, [c8, c4], [c4, c1], [dst, c0], (1, 4), (1, 0)), fb.load(slm))
    fb.ret()
    return fb.build()


@pytest.mark.parametrize("warps", [2, 1])
def test_each_workgroup_has_its_own_slm(warps):
    # with one warp, no two rows of a workgroup share the SLM row, so no race
    # marks are kept on it; its load still reads each workgroup's own row
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((8, 4)), I32)
    out = run(_slm_echo(warps=warps), LaunchConfig(grid=(3, 1, 1)), mem)
    want = np.zeros((8, 4), dtype=np.int32)
    want[: 3 * warps] = np.repeat(np.arange(1, 4), warps)[:, None]
    assert np.array_equal(out.tensor("O"), want)
    with pytest.raises(SimError) as exc:
        run(_slm_echo(past_end=True, warps=warps), LaunchConfig(grid=(3, 1, 1)), mem)
    assert str(exc.value) == (
        f"out-of-bounds block access: dim 0 window [1, 2) outside [0, 1) (@echo wg=0 pid=(0, 0, 0) warp={warps - 1} tt.store)"
    )


def test_schedule_order_orders_the_trace_and_not_the_bits():
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((8, 4)), I32)
    base = run(_slm_echo(), LaunchConfig(grid=(3, 1, 1)), mem)
    trace = RunTrace()
    out = run(_slm_echo(), LaunchConfig(grid=(3, 1, 1), wg_order=(2, 0, 1)), mem, trace=trace)
    assert out.equal_bits(base)
    # serially, each workgroup in turn: warp 1 stores to SLM; after the
    # barrier, warp 0 loads SLM and stores to O, then warp 1 does
    per_wg = [(1, "%slm0"), (0, "O"), (1, "O")]
    assert [(s.wg, s.warp, s.base) for s in trace.stores] == [(g, w, b) for g in (2, 0, 1) for w, b in per_wg]
    assert [(s.wg, s.warp) for s in trace.stores if s.base == "O"] == [(2, 0), (2, 1), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert [s.offsets for s in trace.stores if s.base == "O"] == [(4, 0), (5, 0), (0, 0), (1, 0), (2, 0), (3, 0)]
    assert [(s.wg, s.warp) for s in trace.loads] == [(2, 0), (2, 1), (0, 0), (0, 1), (1, 0), (1, 1)]


def _barrier_in_workgroup_zero() -> KernelFn:
    """In workgroup 0 only: warp 0 stores 7 to an SLM row, and after a barrier
    warp w stores the row to row w of O."""
    fb = FunctionBuilder("first", [("O", PtrType(F32))], num_warps=2, level="warp")
    (o,) = fb.fn.args
    c0, c1, c4 = (fb.constant(v) for v in (0, 1, 4))
    wid = fb.warp_id()
    slm = fb.alloc((1, 4), F32)
    fb.begin_if(fb.cmpi("eq", fb.program_id(0), c0))
    fb.begin_if(fb.cmpi("eq", wid, c0))
    fb.store(slm, fb.splat(fb.constant(7.0), (1, 4)))
    fb.end_if()
    fb.barrier()
    fb.store(fb.make_tensor_ptr(o, [c4, c4], [c4, c1], [wid, c0], (1, 4), (1, 0)), fb.load(slm))
    fb.end_if()
    fb.ret()
    return fb.build()


def test_barrier_in_some_workgroups_only():
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((4, 4)), F32)
    out = run(_barrier_in_workgroup_zero(), LaunchConfig(grid=(2, 1, 1)), mem)
    assert np.array_equal(out.tensor("O"), np.repeat([[7.0], [7.0], [0.0], [0.0]], 4, axis=1))


def test_barrier_divergence_within_one_of_several_workgroups():
    fb = FunctionBuilder("diverge", [("O", PtrType(F32))], num_warps=2, level="warp")
    c0, c1 = fb.constant(0), fb.constant(1)
    fb.begin_if(fb.cmpi("eq", fb.program_id(0), c1))
    fb.begin_if(fb.cmpi("eq", fb.warp_id(), c0))
    fb.barrier()
    fb.end_if()
    fb.end_if()
    fb.ret()
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros(4), F32)
    with pytest.raises(SimError) as exc:
        run(fb.build(), LaunchConfig(grid=(3, 1, 1)), mem)
    assert str(exc.value) == (
        "barrier divergence: warps [1] do not reach tt.barrier with the others "
        "(@diverge wg=1 pid=(1, 0, 0) warp=0 tt.barrier)"
    )


def _barrier_in_workgroup_zero_only(then_all: bool) -> KernelFn:
    """Warp 0 of each of 2 workgroups stores pid + 1 to an SLM row; only
    workgroup 0 reaches a barrier (and then, if `then_all`, every workgroup a
    second one); then warp 1 loads the row and stores it to row pid of O."""
    fb = FunctionBuilder("part", [("O", PtrType(I32))], num_warps=2, level="warp")
    (o,) = fb.fn.args
    c0, c1, c2, c4 = (fb.constant(v) for v in (0, 1, 2, 4))
    pid, wid = fb.program_id(0), fb.warp_id()
    slm = fb.alloc((1, 4), I32)
    fb.begin_if(fb.cmpi("eq", wid, c0))
    fb.store(slm, fb.splat(fb.binary("arith.addi", pid, c1), (1, 4)))
    fb.end_if()
    fb.begin_if(fb.cmpi("eq", pid, c0))
    fb.barrier()
    fb.end_if()
    if then_all:
        fb.barrier()
    fb.begin_if(fb.cmpi("eq", wid, c1))
    fb.store(fb.make_tensor_ptr(o, [c2, c4], [c4, c1], [pid, c0], (1, 4), (1, 0)), fb.load(slm))
    fb.end_if()
    fb.ret()
    return fb.build()


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("then_all", [False, True])
def test_a_barrier_keeps_the_race_marks_of_workgroups_not_at_it(then_all, forced, monkeypatch):
    # workgroup 1's warps meet no barrier between the SLM store and load
    # until one that every workgroup reaches
    if forced:
        prove_nothing(monkeypatch)
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((2, 4)), I32)
    launch = LaunchConfig(grid=(2, 1, 1))
    if then_all:
        out = run(_barrier_in_workgroup_zero_only(then_all), launch, mem)
        assert np.array_equal(out.tensor("O"), np.repeat([[1], [2]], 4, axis=1))
        return
    with pytest.raises(SimError) as exc:
        run(_barrier_in_workgroup_zero_only(then_all), launch, mem)
    assert str(exc.value) == (
        "race on buffer '%slm0' element 0: warps 0 and 1 touch it between two synchronization points, "
        "not only reading it or storing the same bits (@part wg=1 pid=(1, 0, 0) warp=1 tt.load)"
    )


def test_warps_leaving_a_loop_with_pointers_into_different_buffers_are_named():
    # warp 0 runs no trip and keeps its pointer into O; warp 1's trip yields one into P
    fb = FunctionBuilder("sel", [("O", PtrType(F32)), ("P", PtrType(F32))], num_warps=2, level="warp")
    o, p = fb.fn.args
    c0, c1, c4 = (fb.constant(v) for v in (0, 1, 4))
    po, pp = (fb.make_tensor_ptr(buf, [c1, c4], [c4, c1], [c0, c0], (1, 4), (1, 0)) for buf in (o, p))
    fb.begin_for(c0, fb.warp_id(), c1, [po])
    (ptr,) = fb.end_for([pp])
    fb.store(ptr, fb.splat(fb.constant(1.0), (1, 4)))
    fb.ret()
    mem = DeviceMemory()
    for name in "OP":
        mem.set_tensor(name, np.zeros((1, 4)), F32)
    with pytest.raises(SimError) as exc:
        run(fb.build(), LaunchConfig(), mem)
    assert str(exc.value) == ("@sel wg=0 pid=(0, 0, 0) warp=1 scf.for: warps leave the loop holding pointers into "
                              "different buffers 'O' and 'P'")


@pytest.mark.parametrize("dst", [None, [0]])
def test_cross_warp_reduce_per_workgroup(dst):
    # warp w of workgroup g loads row 2g + w of X, the warps of each
    # workgroup add their rows, and each warp stores its result to its row of O
    fb = FunctionBuilder("xsum", [("X", PtrType(F32)), ("O", PtrType(F32))], num_warps=2, level="warp")
    x, o = fb.fn.args
    c1, c2, c4 = (fb.constant(v) for v in (1, 2, 4))
    row = fb.binary("arith.addi", fb.binary("arith.muli", fb.program_id(0), c2), fb.warp_id())
    tile = fb.load(fb.make_tensor_ptr(x, [c4, c4], [c4, c1], [row, fb.constant(0)], (1, 4), (1, 0)))
    total = fb.cross_warp_reduce(tile, "sum", dst)
    fb.store(fb.make_tensor_ptr(o, [c4, c4], [c4, c1], [row, fb.constant(0)], (1, 4), (1, 0)), total)
    fb.ret()
    x_val = philox(8).random((4, 4)).astype(np.float32)
    mem = DeviceMemory()
    mem.set_tensor("X", x_val, F32)
    mem.set_tensor("O", np.zeros((4, 4)), F32)
    trace = RunTrace()
    out = run(fb.build(), LaunchConfig(grid=(2, 1, 1), wg_order=(1, 0)), mem, trace=trace)
    want = x_val.copy()
    for g in range(2):
        want[2 * g : 2 * g + (1 if dst else 2)] = x_val[2 * g] + x_val[2 * g + 1]
    assert np.array_equal(out.tensor("O"), want)
    assert [(c.wg, c.dst) for c in trace.cross] == [(1, (0,) if dst else None), (0, (0,) if dst else None)]
    assert all(np.array_equal(c.delivered[0], want[2 * c.wg][None]) for c in trace.cross)


# -- the same faults with every check forced on -----------------------------------


def _cases(test) -> list[dict]:
    """The keyword arguments of each case of a parametrized test."""
    cases = [{}]
    for mark in getattr(test, "pytestmark", []):
        if mark.name == "parametrize":
            names, values = mark.args
            names = [n.strip() for n in names.split(",")] if isinstance(names, str) else list(names)
            cases = [{**c, **dict(zip(names, v if len(names) > 1 else (v,)))} for c in cases for v in values]
    return cases


_FAULT_TESTS = [
    test_memory_access_errors, test_windows_past_the_buffer_are_out_of_bounds, test_missing_barrier_is_a_race,
    test_replicated_stores_of_equal_bits_pass, test_overlapping_stores_of_other_bits_race,
    test_overlapping_stores_with_other_strides_race, test_store_after_loads_by_two_warps_races,
    test_store_after_loads_by_three_warps_races, test_a_warp_storing_one_element_twice_does_not_race,
    test_loop_trip_count_may_differ_by_warp, test_fault_names_the_lowest_faulting_warp,
    test_workgroups_storing_one_tile_race_unless_the_bits_agree, test_workgroup_loading_what_another_stored_races,
    test_each_workgroup_has_its_own_slm, test_barrier_divergence_detected, test_slm_overflow_detected,
    test_an_active_row_dividing_an_integer_by_zero_fails,
]
_FAULT_CASES = [pytest.param(t, kw, id=f"{t.__name__[5:]}-{i}") for t in _FAULT_TESTS for i, kw in enumerate(_cases(t))]


@pytest.mark.parametrize(("test", "kwargs"), _FAULT_CASES)
def test_faults_read_the_same_with_every_check_forced(test, kwargs, monkeypatch):
    # the launches above skip the checks their analysis proves can never
    # fire; with none proven, each must fail (or pass) exactly as before
    prove_nothing(monkeypatch)
    test(**kwargs)


@pytest.mark.parametrize(("test", "kwargs"), _FAULT_CASES)
def test_faults_read_the_same_with_every_check_forced_after_an_unforced_run(test, kwargs, monkeypatch):
    # each launch first runs with its proofs, which prepares it; the forced
    # run must still prepare its own launch with every check kept
    prove = fp.prove

    def unforced_first(prog, launch, mem, trace=None):
        with monkeypatch.context() as mp, contextlib.suppress(SimError):
            mp.setattr(fp, "prove", prove)
            mp.setattr(sim, "_PREPARED", weakref.WeakKeyDictionary())
            sim.run(prog, launch, mem)
        try:
            ready = prepare(prog, launch, mem)
        except SimError:
            pass
        else:
            assert not ready.inbounds and set(ready.facts.races.values()) <= {"forced"}
        return sim.run(prog, launch, mem, trace)

    prove_nothing(monkeypatch)
    monkeypatch.setitem(globals(), "run", unforced_first)
    test(**kwargs)


@pytest.mark.parametrize(("test", "kwargs"), _FAULT_CASES)
def test_faults_read_the_same_with_no_piece_groups(test, kwargs, monkeypatch):
    # each case pins its SimError text; run with every step as written, it must not change
    ungrouped(monkeypatch)
    test(**kwargs)


# -- prepared launches ----------------------------------------------------------


@pytest.mark.parametrize("level", ["workgroup", "warp", "intrinsic", "visa"])
@pytest.mark.parametrize("name", ["gemm_256", "paged_warp"])
def test_a_launch_run_twice_gives_two_fresh_runs(name, level):
    fx = suite()[name]
    first, second = make_problem(fx, 11), make_problem(fx, 12)
    launch = prepare(compile_kernel(load_fixture(name)).at_level(level), first.launch, first.mem)
    got = [outcome(launch, None, first.mem), outcome(launch, None, second.mem)]
    fresh = [outcome(compile_kernel(load_fixture(name)).at_level(level), p.launch, p.mem) for p in (first, second)]
    assert got == fresh
    assert got[0][0] != got[1][0]  # the seeds give other bits


def test_a_run_copies_only_the_buffers_a_store_can_reach():
    prob = make_problem(suite()["gemm_256"])
    launch = prepare(compile_kernel(load_fixture("gemm_256")).at_level("intrinsic"), prob.launch, prob.mem)
    assert set(launch.scales) == {"C"}
    first, second = launch.run(prob.mem), launch.run(prob.mem)
    for b in ("A", "B"):  # only loaded: the input's own data, which the result cannot write
        assert np.shares_memory(first.raw(b), prob.mem.raw(b)) and prob.mem.raw(b).flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first.raw(b)[0] = 1.0
    want = second.raw("C").copy()
    first.raw("C")[:] = -1.0  # each run stores into a copy of its own
    assert second.raw("C").tobytes() == want.tobytes() and not np.shares_memory(first.raw("C"), prob.mem.raw("C"))
    assert not (prob.mem.raw("C") == -1.0).any()


def test_a_launch_is_proven_once_per_grid_order_and_buffer_sizes(monkeypatch):
    calls, prove = [], fp.prove
    monkeypatch.setattr(fp, "prove", lambda *args: calls.append(args[0]) or prove(*args))
    fn, big = _pid_kernel(), DeviceMemory()
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((64, 8)), I32)
    big.set_tensor("O", np.zeros((128, 8)), I32)
    configs = [(LaunchConfig(grid=grid), mem) for grid in ((2, 1, 1), (4, 1, 1), (1, 2, 1))]
    configs += [(LaunchConfig(grid=(2, 1, 1), wg_order=(1, 0)), mem), (LaunchConfig(grid=(2, 1, 1)), big)]
    for n, (launch, m) in enumerate(configs, 1):
        want = run(_pid_kernel(), launch, m)
        assert run(fn, launch, m).equal_bits(want) and run(fn, launch, m).equal_bits(want)
        assert len(calls) == 2 * n  # one for the fresh program, one for fn
    assert prepare(fn, LaunchConfig(grid=(2, 1, 1), target=PVC), mem) is prepare(fn, LaunchConfig(grid=(2, 1, 1)), mem)
    with pytest.raises(SimError) as exc:
        prepare(fn, LaunchConfig(grid=(2, 1, 1)), mem).run(big)
    assert str(exc.value) == "@bands: buffer O holds 1024 elements, the launch was prepared for 512"


def test_a_dot_patched_after_a_run_is_reached(monkeypatch):
    prob = make_problem(suite()["gemm_256"])
    prog = compile_kernel(load_fixture("gemm_256")).at_level("intrinsic")
    want = run(prog, prob.launch, prob.mem)
    calls, dot = [], sim._SEMANTICS["tt.dot"]
    monkeypatch.setitem(sim._SEMANTICS, "tt.dot", lambda s, ctx, a: calls.append(s) or dot(s, ctx, a))
    assert run(prog, prob.launch, prob.mem).equal_bits(want)
    assert calls


def test_the_slm_budget_is_checked_on_every_launch():
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((8, 4)), I32)
    fn = _slm_echo()
    run(fn, LaunchConfig(grid=(3, 1, 1)), mem)
    with pytest.raises(SimError) as exc:
        run(fn, LaunchConfig(grid=(3, 1, 1), target=replace(PVC, slm_bytes=8)), mem)
    assert str(exc.value) == "SLM overflow: 16 bytes exceeds budget 8 (@echo wg=0)"


def test_an_slm_kernel_prepared_for_other_grids_matches_fresh_runs():
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((8, 4)), I32)
    fn = _slm_echo()
    for grid in ((1, 1, 1), (2, 1, 1), (1, 1, 1)):
        got, fresh = prepare(fn, LaunchConfig(grid=grid), mem), prepare(_slm_echo(), LaunchConfig(grid=grid), mem)
        assert got.facts.races == fresh.facts.races and got.scales == fresh.scales
        assert outcome(got, None, mem) == outcome(fresh, None, mem)


@contextlib.contextmanager
def _no_cyclic_collection():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("level", ["workgroup", "warp", "intrinsic", "visa"])
def test_a_program_that_has_run_can_be_freed(level):
    with _no_cyclic_collection():
        prog, mem = _copy_at(level), _copy_mem()
        run(prog, LaunchConfig(), mem)
        held = weakref.ref(prog), weakref.ref(prepare(prog, LaunchConfig(), mem))
        del prog
        assert [r() for r in held] == [None, None]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_compiled_fixture_leaves_no_cyclic_garbage(name):
    # the IR holds no back-pointers, so reference counting alone frees every
    # stage of a compile, its printed and parsed copies and their launches
    with _no_cyclic_collection():
        res, prob = compile_kernel(load_fixture(name)), make_problem(suite()[name])
        stages = [res.source, res.layouts, res.distribute, res.match]
        copies = [parse_module(print_module(KernelModule((fn,)))).functions[0] for fn in stages]
        progs = [res.at_level(level) for level in ("workgroup", "warp", "intrinsic", "visa")]
        for prog in progs:
            run(prog, prob.launch, prob.mem)
        held = [weakref.ref(p) for p in stages + copies + [res.vprog]]
        del res, prob, stages, copies, progs, prog
        assert [r() for r in held] == [None] * len(held)
        assert gc.collect() == 0
