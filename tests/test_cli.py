"""Command-line driver: verbs, artifacts, exit codes."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from tilec.cli import _build_parser, _compile, main
from tilec.ir import ElemType, FunctionBuilder, KernelModule, PtrType
from tilec.kernels import load_fixture
from tilec.oracle import philox, rand_f16
from tilec.sim import dump_tensor, load_tensor
from tilec.textio import print_module
from tilec.visa import PVC

F16 = ElemType.f16
F32 = ElemType.f32


@pytest.fixture(autouse=True)
def _isolate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    yield


def _write_scale_kernel(path) -> None:
    fb = FunctionBuilder("scale", [("X", PtrType(F16)), ("Y", PtrType(F16))], num_warps=4)
    x_arg, y_arg = fb.fn.args
    c0 = fb.constant(0)
    c1 = fb.constant(1)
    c64 = fb.constant(64)
    xp = fb.make_tensor_ptr(x_arg, [c64, c64], [c64, c1], [c0, c0], (64, 64), (1, 0))
    x = fb.load(xp)
    y = fb.binary("arith.mulf", x, fb.splat(fb.constant(2.0, F16), (64, 64)))
    yp = fb.make_tensor_ptr(y_arg, [c64, c64], [c64, c1], [c0, c0], (64, 64), (1, 0))
    fb.store(yp, y)
    fb.ret()
    path.write_text(print_module(KernelModule((fb.build(),))))


def test_compile_writes_level_artifact(tmp_path, capsys):
    assert main(["compile", "gemm_256"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "gemm_256.vasm" in out
    assert (tmp_path / "gemm_256.vasm").read_text().startswith("vprogram @gemm_256")


def test_compile_dump_all(tmp_path, capsys):
    assert main(["compile", "gemm_256", "--dump-after", "all"]) == 0
    for suffix in ("layouts.ttir", "distribute.ttir", "match.ttir", "vasm"):
        assert (tmp_path / f"gemm_256.{suffix}").exists(), suffix
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_dump_after_a_pass_past_the_level_is_a_usage_error(tmp_path, capsys):
    assert main(["compile", "gemm_256", "--level", "intrinsic", "--dump-after", "visa"]) == 3
    assert capsys.readouterr().err == "usage error: --dump-after visa names a pass past --level intrinsic\n"
    assert not list(tmp_path.iterdir())
    # all dumps what the pipeline reached
    assert main(["compile", "gemm_256", "--level", "intrinsic", "--dump-after", "all"]) == 0
    dumped = sorted(p.name for p in tmp_path.iterdir())
    assert dumped == [f"gemm_256.{s}.ttir" for s in ("distribute", "layouts", "match")]


def test_compile_hint_changes_root(tmp_path):
    assert main(["compile", "gemm_256", "--level", "workgroup",
                 "--hint", "dot0=horizontal", "--dump-after", "layouts"]) == 0
    text = (tmp_path / "gemm_256.layouts.ttir").read_text()
    assert "warpsPerCTA = [32, 1]" in text


def test_compile_respects_dump_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TILEC_DUMP_DIR", str(tmp_path / "artifacts"))
    assert main(["compile", "fa2_d64", "--dump-after", "layouts"]) == 0
    assert (tmp_path / "artifacts" / "fa2_d64.layouts.ttir").exists()


def test_run_fixture_writes_buffers(tmp_path, capsys):
    assert main(["run", "paged_wg"]) == 0
    out = capsys.readouterr().out
    for buf in ("Q", "KB", "VB", "BT", "O"):
        assert (tmp_path / f"paged_wg.{buf}.tnsr").exists()
        assert f"paged_wg.{buf}.tnsr" in out
    o, elem = load_tensor(str(tmp_path / "paged_wg.O.tnsr"))
    assert o.shape == (1, 64) and elem == F32


def test_run_path_kernel_with_inputs(tmp_path):
    _write_scale_kernel(tmp_path / "scale.ttir")
    x = rand_f16(philox(5), 64, 64)
    dump_tensor(str(tmp_path / "x.tnsr"), x, F16)
    dump_tensor(str(tmp_path / "y.tnsr"), np.zeros((64, 64), dtype=np.float32), F16)
    assert main(["run", "scale.ttir", "--input", "X=x.tnsr",
                 "--input", "Y=y.tnsr", "--grid", "1,1"]) == 0
    y, _ = load_tensor(str(tmp_path / "scale.Y.tnsr"))
    want = (x.astype(np.float16) * np.float16(2.0)).astype(np.float32)
    assert np.array_equal(y, want)


def test_run_path_kernel_requires_all_inputs(tmp_path, capsys):
    _write_scale_kernel(tmp_path / "scale.ttir")
    dump_tensor(str(tmp_path / "x.tnsr"), np.zeros((64, 64)), F16)
    assert main(["run", "scale.ttir", "--input", "X=x.tnsr"]) == 3
    assert "Y" in capsys.readouterr().err


def test_check_fixture_passes(capsys):
    assert main(["check", "gemm_256", "--level", "intrinsic"]) == 0
    out = capsys.readouterr().out
    assert "gemm_256 C: max rel err" in out
    assert "PASS" in out and "FAIL" not in out


def test_check_needs_fixture(tmp_path, capsys):
    _write_scale_kernel(tmp_path / "scale.ttir")
    assert main(["check", "scale.ttir"]) == 3


def test_check_honors_seed(capsys):
    assert main(["check", "fa2_d64", "--seed", "31337", "--level", "workgroup"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_stats_output(capsys):
    assert main(["stats", "gemm_256"]) == 0
    out = capsys.readouterr().out
    assert "loads=3" in out
    assert "stores=16" in out
    assert "mmas=32" in out
    assert "bytes_loaded=49152" in out


def test_style_flag_switches_widths(tmp_path):
    assert main(["compile", "gemm_256", "--dump-after", "visa"]) == 0
    simt_text = (tmp_path / "gemm_256.vasm").read_text()
    assert "block2d_load.v64i16" in simt_text
    assert main(["compile", "gemm_256", "--dump-after", "visa", "--style", "simd"]) == 0
    assert "block2d_load.v512i32" in (tmp_path / "gemm_256.vasm").read_text()


def test_target_file_flag(tmp_path):
    (tmp_path / "tiny.target").write_text("max_load=16x16\nmax_dot=8x16x16\n")
    assert main(["compile", "gemm_256", "--target", "tiny.target",
                 "--dump-after", "match"]) == 0
    loads = [l for l in (tmp_path / "gemm_256.match.ttir").read_text().splitlines()
             if "tt.load" in l]
    assert loads
    assert all("tensor<16x16xf16>" in l for l in loads)  # split to the new max


def test_usage_errors_exit_3(capsys):
    assert main(["compile", "nosuch_kernel"]) == 3
    assert main(["compile", "gemm_256", "--hint", "dot=horizontal"]) == 3
    assert main(["compile", "gemm_256", "--hint", "dot0=diagonal"]) == 3
    assert main(["compile", "gemm_256", "--hint", "dot0=square", "--hint", "dot0=vertical"]) == 3
    assert main(["compile", "gemm_256", "--hint", "dot3=horizontal"]) == 3
    assert "the kernel's dot count is 1" in capsys.readouterr().err
    assert main(["compile", "gemm_256", "--hint", "dot\u00b2=square"]) == 3  # a digit, but not a decimal one
    assert main(["run", "gemm_256", "--grid", "zero,one"]) == 3
    assert main(["run", "gemm_256", "--grid", "0,1"]) == 3
    assert main(["run", "gemm_256", "--grid", "\u00b2,1"]) == 3
    assert main(["compile", "gemm_256", "--level", "bogus"]) == 3
    assert main(["compile", "gemm_256", "--dump-after", "frontend"]) == 3
    assert main(["run", "paged_wg", "--num-warps", "0"]) == 3
    assert main(["run", "paged_wg", "--num-warps", "-2"]) == 3
    assert main(["check", "paged_wg", "--seed", "-1"]) == 3
    inputs = []
    for arg in load_fixture("paged_wg").args:
        dump_tensor(f"{arg.name}.tnsr", np.zeros((1, 64), np.float32), F16)
        inputs += ["--input", f"{arg.name}={arg.name}.tnsr"]
    assert main(["check", "paged_wg", *inputs]) == 3  # the oracle knows only generated inputs
    Path("adir").mkdir()
    assert main(["run", "paged_wg", "--input", "Q=adir"]) == 3
    assert main(["compile", "gemm_256", "--target", "adir"]) == 3
    assert main(["compile", "adir"]) == 3
    capsys.readouterr()
    _write_scale_kernel(Path("one.ttir"))
    Path("two.ttir").write_text(Path("one.ttir").read_text() * 2)
    assert main(["compile", "gemm_256", "--target", "nosuch.target"]) == 3
    assert main(["compile", "two.ttir"]) == 3
    assert main(["run", "paged_wg", "--input", "Q"]) == 3
    assert main(["run", "one.ttir"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "usage error: target file not found: nosuch.target",
        "usage error: two.ttir must hold exactly one function, has 2",
        "usage error: --input expects NAME=PATH, got 'Q'",
        "usage error: path kernels need --input NAME=PATH for every buffer",
    ]


def test_num_warps_override_leaves_kernel_unchanged():
    fn = load_fixture("gemm_256")
    args = _build_parser().parse_args(["compile", "gemm_256", "--num-warps", "16"])
    res = _compile(fn, args, PVC, "workgroup")
    assert (fn.num_warps, res.layouts.num_warps) == (32, 16)


def test_parse_failure_exits_1(tmp_path, capsys):
    (tmp_path / "broken.ttir").write_text("tt.func public @f() attributes {num_warps = 1} {\n  %0 = ???\n}")
    assert main(["compile", "broken.ttir"]) == 1
    assert "error" in capsys.readouterr().err


def test_result_less_program_id_exits_1(tmp_path, capsys):
    (tmp_path / "noresult.ttir").write_text(
        "tt.func public @f() attributes {num_warps = 1} {\n"
        "  tt.get_program_id {axis = 0} : () -> ()\n"
        "  tt.return : () -> ()\n}\n"
    )
    assert main(["compile", "noresult.ttir"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_reduce_with_the_old_cross_warp_attr_exits_1(tmp_path, capsys):
    # a cross-warp reduce is its own op kind; a tt.reduce needs an axis
    (tmp_path / "old.ttir").write_text(
        'tt.func public @f() attributes {level = "warp", num_warps = 2} {\n'
        "  %0 = arith.constant {value = 0.0} : () -> f32\n"
        "  %1 = tt.splat %0 : (f32) -> tensor<4xf32>\n"
        '  %2 = tt.reduce %1 {cross_warp = true, kind = "max"} : (tensor<4xf32>) -> tensor<4xf32>\n'
        "  tt.return\n}\n"
    )
    assert main(["compile", "old.ttir"]) == 1
    assert capsys.readouterr().err == ("error: @f: tt.reduce: unknown attribute cross_warp; expected axis, kind; "
                                       "@f: tt.reduce: axis must name a dim of rank-1 operand\n")


def test_layout_conflict_exits_1(tmp_path, capsys):
    fb = FunctionBuilder("selfdot", [("X", PtrType(F16)), ("O", PtrType(F32))], num_warps=4)
    x_arg, o_arg = fb.fn.args
    c0 = fb.constant(0)
    c1 = fb.constant(1)
    c64 = fb.constant(64)
    xp = fb.make_tensor_ptr(x_arg, [c64, c64], [c64, c1], [c0, c0], (64, 64), (1, 0))
    x = fb.load(xp)
    d = fb.dot(x, x, fb.splat(fb.constant(0.0, F32), (64, 64)))
    op = fb.make_tensor_ptr(o_arg, [c64, c64], [c64, c1], [c0, c0], (64, 64), (1, 0))
    fb.store(op, d)
    fb.ret()
    (tmp_path / "selfdot.ttir").write_text(print_module(KernelModule((fb.build(),))))
    assert main(["compile", "selfdot.ttir"]) == 1
    assert "conflicting layouts" in capsys.readouterr().err
