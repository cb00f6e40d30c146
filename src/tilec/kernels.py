"""Built-in kernel suite.

Five fixtures cover the pipeline end to end: a dense matmul, fused
attention at two head sizes, and two paged-attention variants (one
workgroup-level, one warp-level with a cross-warp epilogue).  Each
fixture ships as a .ttir file plus a manifest entry naming its launch
grid, RNG seed, reference oracle, and tolerance; those files are the only
source of the suite, and a fixture changes by editing them.  The warp
count is the kernel's own `num_warps` attribute.  `make_problem` turns a
manifest entry into device buffers and expected outputs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib.resources import files

import numpy as np

from .ir import ElemType, KernelFn, verify_or_raise
from .oracle import (
    AttentionProblem,
    PagedKV,
    attention_ref,
    gemm_ref,
    paged_attention_ref,
    paged_blockwise_ref,
    philox,
    rand_f16,
)
from .sim import DeviceMemory, LaunchConfig
from .textio import parse_module

F16 = ElemType.f16
F32 = ElemType.f32
I32 = ElemType.i32


@dataclass(frozen=True, slots=True)
class Fixture:
    """Manifest entry for one suite kernel."""

    name: str
    grid: tuple[int, int, int]
    oracle: str
    tolerance: float
    seed: int
    params: dict[str, int] = field(default_factory=dict)
    note: str = ""


@dataclass(frozen=True, slots=True)
class Problem:
    """Concrete instance of a fixture: inputs, expected outputs, launch."""

    mem: DeviceMemory
    expected: dict[str, np.ndarray]
    tolerance: float
    launch: LaunchConfig


def _data_dir():
    return files("tilec").joinpath("kernels")


def suite() -> dict[str, Fixture]:
    """Fixture records from the shipped manifest, in manifest order."""
    doc = json.loads(_data_dir().joinpath("manifest.json").read_text())
    return {e["name"]: Fixture(**{**e, "grid": tuple(e["grid"])}) for e in doc["fixtures"]}


FIXTURE_NAMES = tuple(suite())


def kernel_text(name: str) -> str:
    """Shipped .ttir source for a suite kernel."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; have {', '.join(FIXTURE_NAMES)}")
    return _data_dir().joinpath(f"{name}.ttir").read_text()


def load_fixture(name: str) -> KernelFn:
    """Parse and verify the shipped .ttir for a suite kernel."""
    fn = parse_module(kernel_text(name)).get(name)
    verify_or_raise(fn)
    return fn


def make_problem(fx: Fixture, seed: int | None = None) -> Problem:
    """Draw the fixture's input buffers and reference outputs.

    All randomness comes from one Philox stream seeded by `seed` (the
    manifest seed when None); draws happen in the documented buffer
    order, so a given (fixture, seed) pair is reproducible anywhere.
    """
    rng = philox(fx.seed if seed is None else seed)
    p = fx.params
    mem = DeviceMemory()
    if fx.oracle == "gemm":
        a = rand_f16(rng, p["m"], p["k"])
        b = rand_f16(rng, p["k"], p["n"])
        c0 = np.zeros((p["m"], p["n"]), dtype=np.float32)
        mem.set_tensor("A", a, F16)
        mem.set_tensor("B", b, F16)
        mem.set_tensor("C", c0, F32)
        expected = {"C": gemm_ref(a, b, c0)}
    elif fx.oracle == "attention":
        n, d = p["n"], p["d"]
        q = rand_f16(rng, n, d)
        k = rand_f16(rng, n, d)
        v = rand_f16(rng, n, d)
        mem.set_tensor("Q", q, F16)
        mem.set_tensor("K", k, F16)
        mem.set_tensor("V", v, F16)
        mem.set_tensor("O", np.zeros((n, d), dtype=np.float32), F16)
        expected = {"O": attention_ref(AttentionProblem(q, k, v, p["kv_block"]))}
    elif fx.oracle in ("paged", "paged_blockwise"):
        d, bl = p["d"], p["block_len"]
        phys, logi = p["physical_blocks"], p["logical_blocks"]
        q = rand_f16(rng, 1, d)
        kb = rand_f16(rng, phys, bl, d)
        vb = rand_f16(rng, phys, bl, d)
        table = rng.integers(0, phys, size=logi)
        kv = PagedKV(tuple(int(t) for t in table), kb, vb)
        mem.set_tensor("Q", q, F16)
        mem.set_tensor("KB", kb.reshape(phys * bl, d), F16)
        mem.set_tensor("VB", vb.reshape(phys * bl, d), F16)
        mem.set_tensor("BT", table.astype(np.int32), I32)
        mem.set_tensor("O", np.zeros((1, d), dtype=np.float32), F32)
        ref = paged_attention_ref if fx.oracle == "paged" else paged_blockwise_ref
        expected = {"O": ref(q, kv)}
    else:
        raise ValueError(f"fixture {fx.name!r} names unknown oracle {fx.oracle!r}")
    return Problem(mem, expected, fx.tolerance, LaunchConfig(grid=fx.grid))
