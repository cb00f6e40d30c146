"""Built-in kernel suite: shipped files, manifest, problems."""

from __future__ import annotations

from importlib.resources import files

import numpy as np
import pytest

from tilec import kernels
from tilec.ir import ElemType, walk_fn_ops
from tilec.kernels import FIXTURE_NAMES, kernel_text, load_fixture, make_problem, suite
from tilec.oracle import rel_max_err
from tilec.passes import compile_kernel
from tilec.sim import run
from tilec.textio import parse_module


def test_fixture_names():
    assert set(FIXTURE_NAMES) == {"gemm_256", "fa2_d64", "fa2_d128", "paged_wg", "paged_warp"}


def test_shipped_files_match_manifest():
    shipped = {p.name.removesuffix(".ttir") for p in files("tilec").joinpath("kernels").iterdir()
               if p.name.endswith(".ttir")}
    assert shipped == set(suite())
    for name in shipped:
        assert [fn.name for fn in parse_module(kernel_text(name)).functions] == [name]


def test_unknown_fixture():
    with pytest.raises(KeyError):
        load_fixture("gemm_257")
    with pytest.raises(KeyError):
        kernel_text("gemm_257")


def test_manifest_records():
    fx = suite()
    assert list(fx) == list(FIXTURE_NAMES)
    g = fx["gemm_256"]
    assert (g.grid, g.oracle, g.tolerance) == ((1, 1, 1), "gemm", 1e-4)
    assert load_fixture("gemm_256").num_warps == 32
    f = fx["fa2_d64"]
    assert (f.grid, f.oracle, f.tolerance) == ((4, 1, 1), "attention", 1e-2)
    assert load_fixture("fa2_d64").num_warps == 8
    assert fx["fa2_d128"].params["d"] == 128
    assert fx["paged_wg"].oracle == "paged_blockwise"
    assert fx["paged_warp"].oracle == "paged"
    assert fx["paged_warp"].params["logical_blocks"] == 32


def test_make_problem_gemm():
    prob = make_problem(suite()["gemm_256"])
    assert prob.mem.shapes == {"A": (256, 256), "B": (256, 256), "C": (256, 256)}
    assert set(prob.expected) == {"C"}
    assert prob.tolerance == 1e-4
    assert prob.launch.grid == (1, 1, 1)
    # same seed, same bits; another seed, different data
    again = make_problem(suite()["gemm_256"])
    assert again.mem.equal_bits(prob.mem)
    other = make_problem(suite()["gemm_256"], seed=99)
    assert not other.mem.equal_bits(prob.mem)


def _numpy_rand_f16(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """``oracle.rand_f16`` as numpy spells it: each f64 draw cast to f16, then to f32."""
    return rng.uniform(0.0, 1.0, size=shape).astype(np.float16).astype(np.float32)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_make_problem_draws_the_bits_of_numpys_rounding(name, monkeypatch):
    fx = suite()[name]
    for seed in (None, 0, 1, 2, 3):
        got = make_problem(fx, seed)
        with monkeypatch.context() as mp:
            mp.setattr(kernels, "rand_f16", _numpy_rand_f16)
            want = make_problem(fx, seed)
        assert got.mem.equal_bits(want.mem), seed
        assert got.expected.keys() == want.expected.keys()
        for k, v in want.expected.items():
            assert got.expected[k].dtype == v.dtype and got.expected[k].tobytes() == v.tobytes(), (seed, k)


@pytest.mark.parametrize("elem", [ElemType.f32, ElemType.i32, ElemType.f16])
def test_a_bound_tensor_is_a_buffer_of_its_own(elem):
    data = np.arange(4096, dtype=np.float32 if elem != ElemType.i32 else np.int32).reshape(64, 64)
    mem = kernels.DeviceMemory()
    mem.set_tensor("X", data, elem)
    want = mem.raw("X").copy()
    data[:] = 7  # later writes to the caller's array do not reach the buffer
    assert mem.raw("X").tobytes() == want.tobytes() and not np.shares_memory(mem.raw("X"), data)
    mem.set_tensor("T", data.T, elem)  # nor to the array a transposed one was copied from
    assert not np.shares_memory(mem.raw("T"), data)


def test_make_problem_paged():
    prob = make_problem(suite()["paged_warp"])
    bt = prob.mem.tensor("BT")
    assert bt.shape == (32,) and bt.dtype == np.int32
    assert bt.min() >= 0 and bt.max() < 40
    assert prob.mem.shapes["KB"] == (40 * 64, 64)
    assert prob.expected["O"].shape == (1, 64)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("level", ["workgroup", "warp", "intrinsic", "visa"])
def test_every_fixture_checks_at_every_level(name, level):
    fx = suite()[name]
    prob = make_problem(fx)
    res = compile_kernel(load_fixture(name), to_level=level)
    got = run(res.at_level(level), prob.launch, prob.mem)
    for buf, want in prob.expected.items():
        err = rel_max_err(got.tensor(buf), want)
        assert err <= fx.tolerance, f"{name}@{level}/{buf}: {err:.3e}"


def test_paged_warp_covers_all_extensions():
    fn = load_fixture("paged_warp")
    kinds = [op.kind for op in walk_fn_ops(fn)]
    assert fn.level == "warp"
    assert "tt.warp_id" in kinds
    assert "tt.alloc" in kinds
    assert "tt.barrier" in kinds
    crosses = [op for op in walk_fn_ops(fn) if op.kind == "tt.cross_warp_reduce"]
    assert sorted(op.attrs["kind"] for op in crosses) == ["max", "sum", "sum"]
    assert sorted((op.attrs.get("dst_warps") is not None for op in crosses)) == [False, False, True]
