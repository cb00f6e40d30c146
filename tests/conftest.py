"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import weakref
from dataclasses import replace

import pytest

from tilec import footprints as fp
from tilec import sim
from tilec.ir import KernelFn, KernelModule, Operation, walk_fn_ops
from tilec.kernels import load_fixture, make_problem, suite
from tilec.passes import CompileResult, compile_kernel
from tilec.sim import DeviceMemory, LaunchConfig, RunTrace, SimError, prepare, run
from tilec.textio import print_module
from tilec.visa import PVC, VOpcode, VProgram

# perfbench's target profiles other than PVC itself, which is its pvc_simt:
# the shipped simd profile, and that profile with another load block, dot
# unit or lane count
TARGETS = {
    "pvc_simd": replace(PVC, style="simd"),
    "load16": replace(PVC, style="simd", max_load=(16, 16)),
    "dot8": replace(PVC, style="simd", max_dot=(8, 8, 16)),
    "lanes32": replace(PVC, style="simd", threads_per_warp=32, max_load=(32, 64)),
}


@pytest.fixture(scope="session")
def gemm_compiled() -> CompileResult:
    return compile_kernel(load_fixture("gemm_256"))


@pytest.fixture(scope="session")
def fa2_compiled() -> CompileResult:
    return compile_kernel(load_fixture("fa2_d64"))


@pytest.fixture(scope="session")
def fixtures():
    return suite()


def fn_text(fn: KernelFn) -> str:
    return print_module(KernelModule((fn,)))


def load_base(fn: KernelFn, load: Operation) -> str:
    """Name of the function argument whose buffer a tt.load reads."""
    arg_init: dict[int, object] = {}
    for op in walk_fn_ops(fn):
        if op.kind == "scf.for":
            for init, arg in zip(op.operands[3:], op.regions[0].args[1:]):
                arg_init[id(arg)] = init
    producer: dict[int, Operation] = {}
    for op in walk_fn_ops(fn):
        for r in op.results:
            producer[id(r)] = op
    v = load.operands[0]
    for _ in range(64):
        if id(v) in arg_init:
            v = arg_init[id(v)]
        elif id(v) in producer:
            op = producer[id(v)]
            if op.kind in ("tt.advance", "tt.make_tensor_ptr", "tt.extract"):
                v = op.operands[0]
            elif op.kind == "scf.for":
                slot = list(op.results).index(v)
                v = op.operands[3 + slot]
            else:
                raise AssertionError(f"cannot trace pointer through {op.kind}")
        else:
            return v.name
    raise AssertionError("pointer chain too deep")


def ops_of(fn: KernelFn, kind: str) -> list[Operation]:
    return [op for op in walk_fn_ops(fn) if op.kind == kind]


def run_fixture(name: str, level: str, seed: int | None = None,
                trace: RunTrace | None = None,
                wg_order: tuple[int, ...] | None = None) -> tuple[DeviceMemory, object]:
    fx = suite()[name]
    prob = make_problem(fx, seed)
    res = compile_kernel(load_fixture(name), to_level=level)
    launch = prob.launch
    if wg_order is not None:
        from dataclasses import replace

        launch = replace(launch, wg_order=wg_order)
    got = run(res.at_level(level), launch, prob.mem, trace=trace)
    return got, prob


def exec_widths(prog: VProgram) -> list[tuple[VOpcode, str, int, bool]]:
    """(opcode, op, width_bytes, lane_distributed) for execution instrs."""
    from tilec.visa import EXECUTION_OPCODES

    return [(i.opcode, i.op, i.width_bytes, i.lane_distributed)
            for i in prog.walk() if i.opcode in EXECUTION_OPCODES]


def prove_nothing(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make every launch prove nothing before it runs, so that each access
    keeps its bounds checks and each buffer a store can reach its race marks.
    Launches prepared before are set aside while the patch holds."""
    prove = fp.prove

    def nothing(*args):
        facts = prove(*args)
        return fp.Footprints(dict.fromkeys(facts.races, "forced"), [(s, b, o, "forced") for s, b, o, _ in facts.accesses])

    monkeypatch.setattr(fp, "prove", nothing)
    monkeypatch.setattr(sim, "_PREPARED", weakref.WeakKeyDictionary())


def footprints(monkeypatch: pytest.MonkeyPatch, prog, launch, mem) -> tuple[fp.Footprints, object]:
    """Run a launch; return what the simulator proved before it ran, and
    the memory after it, or the SimError it failed with."""
    got, prove = [], fp.prove
    with monkeypatch.context() as mp:
        mp.setattr(fp, "prove", lambda *args: got.append(prove(*args)) or got[-1])
        mp.setattr(sim, "_PREPARED", weakref.WeakKeyDictionary())
        try:
            out = run(prog, launch, mem)
        except SimError as exc:
            out = exc
    return got[0], out


def ungrouped(mp: pytest.MonkeyPatch) -> None:
    """Make every launch prepared from now on run each step as written."""
    mp.setattr(sim, "_group", lambda steps, *rest: steps)
    mp.setattr(sim, "_PREPARED", weakref.WeakKeyDictionary())


def unfolded(mp: pytest.MonkeyPatch) -> None:
    """Make every launch prepared from now on run its launch-known steps on
    every run, as written, instead of once when it is prepared.  The fold
    still works out their values, which the proof reads."""
    fold = sim._fold

    def keep_values(flat, *rest):
        fold(flat, *rest)
        for s in flat:
            s.folded = False

    mp.setattr(sim, "_fold", keep_values)
    mp.setattr(sim, "_PREPARED", weakref.WeakKeyDictionary())


def outcome(prog, launch: LaunchConfig | None, mem: DeviceMemory) -> tuple:
    """A run's buffers, traced loads and stores, and cross-warp records,
    comparable with ==; a failing run raises its SimError.  `prog` is a
    program prepared here for `launch`, or (`launch` None) a `sim.Launch`."""
    trace = RunTrace()
    out = (prog if launch is None else prepare(prog, launch, mem)).run(mem, trace)
    cross = [(c.wg, c.kind, c.dst, [a.tobytes() for a in (*c.inputs, *c.delivered)]) for c in trace.cross]
    return {b: out.raw(b).tobytes() for b in out.names()}, trace.loads, trace.stores, cross
