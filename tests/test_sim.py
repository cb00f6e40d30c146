"""Virtual GPU: memory, tensor files, launches, tracing, failure modes."""

from __future__ import annotations

import numpy as np
import pytest

from tilec.ir import ElemType, FunctionBuilder, PtrType
from tilec.kernels import kernel_text, make_problem, suite
from tilec.oracle import philox, rand_f16
from tilec.passes import compile_kernel
from tilec.sim import (
    DeviceMemory,
    LaunchConfig,
    RunTrace,
    SimError,
    dump_tensor,
    load_tensor,
    run,
)
from tilec.textio import parse_module
from tilec.visa import VInstr, VOpcode, VProgram

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
    fb = FunctionBuilder("bands", [("O", PtrType(F32))], num_warps=1)
    (o_arg,) = fb.fn.args
    c0 = fb.constant(0)
    c1 = fb.constant(1)
    c8 = fb.constant(8)
    c16 = fb.constant(16)
    c64 = fb.constant(64)
    pid = fb.program_id(0)
    row = fb.binary("arith.muli", pid, c16)
    ptr = fb.make_tensor_ptr(o_arg, [c64, c8], [c8, c1], [row, c0], (16, 8), (1, 0))
    val = fb.convert(fb.splat(pid, (16, 8)), F32)
    fb.store(ptr, val)
    fb.ret()
    return fb.build()


def test_grid_covers_all_workgroups():
    fn = _pid_kernel()
    mem = DeviceMemory()
    mem.set_tensor("O", np.full((64, 8), -1.0, dtype=np.float32), F32)
    out = run(fn, LaunchConfig(grid=(4, 1, 1)), mem)
    o = out.tensor("O")
    for g in range(4):
        assert np.all(o[16 * g : 16 * (g + 1)] == float(g))
    # input memory is never mutated in place
    assert np.all(mem.tensor("O") == -1.0)


def test_run_validates_bindings():
    fn = _pid_kernel()
    with pytest.raises(SimError):
        run(fn, LaunchConfig(), DeviceMemory())  # no buffer named O
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((64, 8)), F16)  # wrong element type
    with pytest.raises(SimError):
        run(fn, LaunchConfig(), mem)


def test_run_validates_num_warps_and_order():
    fn = _pid_kernel()
    mem = DeviceMemory()
    mem.set_tensor("O", np.zeros((64, 8), dtype=np.float32), F32)
    with pytest.raises(SimError):
        run(fn, LaunchConfig(num_warps=2), mem)
    with pytest.raises(SimError):
        run(fn, LaunchConfig(grid=(2, 1, 1), wg_order=(0, 0)), mem)


def test_barrier_divergence_detected():
    fb = FunctionBuilder("diverge", [("O", PtrType(F32))], num_warps=2, warp_level=True)
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
    fb = FunctionBuilder("hog", [("O", PtrType(F32))], num_warps=1, warp_level=True)
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
    mem.set_tensor("O", np.zeros((64, 8), dtype=np.float32), F32)
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
