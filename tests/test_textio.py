"""Printer/parser: canonical form, aliases, fixpoint, error reporting."""

from __future__ import annotations

import re

import pytest

from tilec.ir import ElemType, FunctionBuilder, KernelModule, PtrType, module_equal, verify, walk_fn_ops
from tilec.kernels import load_fixture
from tilec.textio import ParseError, parse_module, print_module
from tilec.visa import LOWERING

F16 = ElemType.f16
F32 = ElemType.f32


def _small_module() -> KernelModule:
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
    return KernelModule((fb.build(),))


def _every_builder_method() -> KernelModule:
    """Warp-level kernel calling every FunctionBuilder method: warp 0 stages
    a 16x16 tile of X in SLM, each warp multiplies it (halves swapped) into
    a strip of X, softmax-normalizes the rows across warps, and warp 0
    stores Y."""
    fb = FunctionBuilder("tour", [("X", PtrType(F16)), ("Y", PtrType(F16))], num_warps=2, level="warp")
    x_arg, y_arg = fb.fn.args
    c0, c1, c2, c16, c64 = (fb.constant(v) for v in (0, 1, 2, 16, 64))
    wid = fb.warp_id()
    row = fb.binary("arith.muli", fb.binary("arith.addi", fb.program_id(0), wid), c16)
    row = fb.binary("arith.remi", fb.binary("arith.divi", fb.binary("arith.subi", row, c0), c1), c64)
    slm = fb.alloc((16, 16), F16)
    is_w0 = fb.cmpi("eq", wid, c0)
    fb.begin_if(is_w0)
    fb.store(slm, fb.load(fb.make_tensor_ptr(x_arg, [c64, c16], [c16, c1], [c0, c0], (16, 16), (1, 0))))
    fb.end_if()
    fb.barrier()
    x = fb.load(slm)
    b = fb.glue([fb.extract(x, 1, (8, 16)), fb.extract(x, 0, (8, 16))], (16, 16))
    xp = fb.make_tensor_ptr(x_arg, [c64, c16], [c16, c1], [row, c0], (16, 16), (1, 0))
    zf = fb.constant(0.0)
    _, (acc, p) = fb.begin_for(c0, c2, c1, [fb.splat(zf, (16, 16)), xp])
    acc_n = fb.dot(fb.load(p), b, acc, tiling="horizontal")
    acc_f, _ = fb.end_for([acc_n, fb.advance(p, [c16, c0])])
    m = fb.cross_warp_reduce(fb.reduce(acc_f, "max", 1), "max")
    e = fb.exp(fb.binary("arith.subf", acc_f, fb.broadcast(fb.expand_dims(m, 1), (16, 16))))
    s = fb.cross_warp_reduce(fb.reduce(e, "sum", 1), "sum", dst_warps=[0])
    y = fb.binary("arith.divf", e, fb.broadcast(fb.expand_dims(s, 1), (16, 16)))
    y = fb.binary("arith.maximumf", fb.binary("arith.mulf", y, fb.splat(fb.constant(2.0, F32), (16, 16))),
                  fb.binary("arith.addf", fb.splat(zf, (16, 16)), fb.splat(fb.constant(0.5), (16, 16))))
    fb.begin_if(is_w0)
    fb.store(fb.make_tensor_ptr(y_arg, [c64, c16], [c16, c1], [c0, c0], (16, 16), (1, 0)), fb.convert(y, F16))
    fb.end_if()
    fb.ret()
    return KernelModule((fb.build(),))


def test_builder_output_roundtrips_and_covers_lowering():
    m = _every_builder_method()
    (fn,) = m.functions
    assert verify(fn) == []
    assert module_equal(parse_module(print_module(m)), m)
    ops = list(walk_fn_ops(fn))
    crosses = [op for op in ops if op.kind == "tt.cross_warp_reduce"]
    assert sorted("dst_warps" in op.attrs for op in crosses) == [False, True]
    assert any(op.attrs.get("tiling") for op in ops)
    assert set(LOWERING) - {op.kind for op in ops} == set()


def test_roundtrip_preserves_structure():
    m = _small_module()
    text = print_module(m)
    again = parse_module(text)
    assert module_equal(m, again)
    assert print_module(again) == text


def test_printer_renumbers_values():
    text = print_module(_small_module())
    renamed = re.sub(r"%2(?![0-9])", "%two", text)
    assert renamed != text
    assert print_module(parse_module(renamed)) == text


def test_comments_and_blank_lines_ignored():
    text = print_module(_small_module())
    noisy = "// header comment\n\n" + text.replace(
        "tt.return", "// trailing note\n  tt.return"
    )
    assert print_module(parse_module(noisy)) == text


def test_gemm_fixture_aliases_print_once():
    text = print_module(KernelModule((load_fixture("gemm_256"),)))
    # source carries no encodings; compile output does (covered elsewhere)
    assert "#triton_gpu" not in text
    assert text.startswith("tt.func public @gemm_256")


def test_fa2_exponent_literal_roundtrip():
    from tilec.kernels import kernel_text

    text = kernel_text("fa2_d64")
    assert "-1e+30" in text
    assert print_module(parse_module(text)) == text


def test_loop_prints_iter_args_and_result_types():
    text = print_module(KernelModule((load_fixture("gemm_256"),)))
    m = re.search(r"scf\.for .* iter_args\((.*)\) -> \((.*)\) \{", text)
    assert m, "loop header missing"
    assert m.group(1).count("=") == 3  # acc and two pointers
    assert m.group(2).count("tensor<256x256xf32") == 1


def test_parse_error_reports_location():
    with pytest.raises(ParseError) as exc:
        parse_module("tt.func public @f() attributes {num_warps = 1} {\n  %0 = ???\n}")
    assert "line 2" in str(exc.value)


_HEAD = "tt.func public @f(%X: !tt.ptr<f16>) attributes {num_warps = 1} {\n"
_C0 = "  %0 = arith.constant {value = 0.0} : () -> f32\n"
_I0 = "  %0 = arith.constant {value = 0} : () -> i32\n"
_BLOCKED = "#blocked = #triton_gpu.blocked<{sizePerWarp = [4, 4], warpsPerCTA = [1, 1], order = [1, 0]}>\n"


def _fn(body: str, head: str = _HEAD) -> str:
    return head + body + "  tt.return\n}\n"


def _splat_to(type_text: str) -> str:
    return _fn(_C0 + f"  %1 = tt.splat %0 : (f32) -> {type_text}\n")


# input -> exact ParseError text, or None where the input parses
PARSE_CASES = {
    "unexpected_char": (_fn("  %0 = ???\n"), "line 2, col 8: unexpected character '?'"),
    "unexpected_char_after_tab": (_fn("\t%0 = $\n"), "line 2, col 7: unexpected character '$'"),
    "unknown_elem_in_dim_run": (_splat_to("tensor<4x4xf99>"), "line 3, col 42: unknown element type f99"),
    "truncated_tensor": (_HEAD + _C0 + "  %1 = tt.splat %0 : (f32) -> tensor<4x4",
                         "line 3, col 41: expected x (got '<eof>')"),
    "truncated_dim_run": (_HEAD + _C0 + "  %1 = tt.splat %0 : (f32) -> tensor<4x4x",
                          "line 3, col 42: expected ident (got '<eof>')"),
    "dim_run_without_elem": (_splat_to("tensor<1x64x>"), "line 3, col 43: expected ident (got '>')"),
    "truncated_ptr": (_HEAD + "  %0 = arith.constant {value = 0} : () -> !tt.ptr",
                      "line 2, col 50: expected < (got '<eof>')"),
    "truncated_block_ptr": (_HEAD + "  %0 = arith.constant {value = 0} : () -> !tt.ptr<tensor<4xf32>",
                            "line 2, col 64: expected > (got '<eof>')"),
    "unknown_alias": (_splat_to("tensor<4x4xf32, #nope>"), "line 3, col 47: unknown encoding alias #nope"),
    "redefinition": (_fn(_C0 + "  %0 = arith.constant {value = 1.0} : () -> f32\n"),
                     "line 3, col 3: redefinition of %0"),
    "undefined_value": (_fn("  %1 = arith.addi %0, %0 : (i32, i32) -> i32\n"),
                        "line 2, col 19: use of undefined value %0"),
    "operand_type_mismatch": (
        _fn("  %0 = arith.constant {value = 0} : () -> i32\n  %1 = arith.addi %0, %0 : (i32, f32) -> i32\n"),
        "line 3, col 23: %0 has type i32, clause says f32"),
    "space_before_dim_x": (_splat_to("tensor<4 x4xf32>"), None),
    "space_after_dim_x": (_splat_to("tensor<4x 4xf32>"), "line 3, col 39: expected x (got 'x')"),
    "comment_in_type": (_splat_to("tensor<4x4xf32 // four by four\n  >"), None),
    "dot_op_without_parent": (_BLOCKED + "#dot0 = #triton_gpu.dot_op<{opIdx = 0}>\n" + _fn(""),
                              "line 2, col 9: #triton_gpu.dot_op needs parent"),
    "warps_not_a_list": (_BLOCKED.replace("[1, 1]", "2") + _fn(""), "line 1, col 69: warpsPerCTA must be a list of integers"),
    "num_warps_string": (_fn("", _HEAD.replace("= 1", '= "a"')), "line 1, col 61: num_warps must be an integer"),
    "num_warps_float": (_fn("", _HEAD.replace("= 1", "= 2.5")), "line 1, col 61: num_warps must be an integer"),
    "float_in_int_list": (_BLOCKED.replace("order = [1, 0]", "order = [1.5, 0]") + _fn(""),
                          "line 1, col 86: expected an integer, got 1.5"),
    "args_without_comma": (_fn("", _HEAD.replace("%X: !tt.ptr<f16>", "%X: !tt.ptr<f16> %Y: !tt.ptr<f16>")),
                           "line 1, col 36: expected , or ) (got '%Y')"),
    "attrs_without_comma": (_fn("", _HEAD.replace("= 1", '= 1 level = "warp"')),
                            "line 1, col 63: expected , or } (got 'level')"),
    "level_int": (_fn("", _HEAD.replace("= 1", "= 1, level = 7")), "line 1, col 72: level must be a string"),
    "misspelled_fn_attr": (_fn("", _HEAD.replace("num_warps = 1", "num_warp = 4")),
                           "line 1, col 49: unknown attribute num_warp; expected one of num_warps, level"),
    "old_per_warp_flag": (_fn("", _HEAD.replace("= 1", "= 1, warp_level = true")),
                          "line 1, col 64: unknown attribute warp_level; expected one of num_warps, level"),
    "types_without_comma": (_fn(_I0 + "  %1 = arith.addi %0, %0 : (i32 i32) -> i32\n"),
                            "line 3, col 33: expected , or ) (got 'i32')"),
    "trailing_comma_in_types": (_fn(_I0 + "  %1 = arith.addi %0, %0 : (i32, i32,) -> i32\n"),
                                "line 3, col 38: expected a type (got ')')"),
    "trailing_comma_in_operands": (_fn(_I0 + "  %1 = arith.addi %0, %0, : (i32, i32) -> i32\n"),
                                   "line 3, col 27: expected value (got ':')"),
    "operands_without_comma": (_fn(_I0 + "  %1 = arith.addi %0 %0 : (i32, i32) -> i32\n"),
                               "line 3, col 22: expected , between operands (got '%0')"),
    "repeated_attr_key": (_fn("", _HEAD.replace("= 1", "= 1, num_warps = 4")),
                          "line 1, col 64: repeated attribute num_warps"),
    "int_list_without_comma": (_BLOCKED.replace("order = [1, 0]", "order = [1 0]") + _fn(""),
                               "line 1, col 88: expected , or ] (got '0')"),
    "iter_args_without_comma": (
        _fn(_I0 + "  %1, %2 = scf.for %3 = %0 to %0 step %0 iter_args(%4 = %0 %5 = %0) -> (i32, i32) {\n"
            "    scf.yield %4, %5\n  }\n"),
        "line 3, col 60: expected , or ) (got '%5')"),
    "zero_dim": (_splat_to("tensor<0x4xf32>"), "line 3, col 31: non-positive dim in shape (0, 4)"),
    "rank_3": (_splat_to("tensor<2x2x2xf32>"), "line 3, col 31: rank 3 tensor not supported (max 2)"),
    "neither_alias_nor_func": ("tt.kernel @f\n" + _fn(""),
                               "line 1, col 1: expected encoding alias or tt.func (got 'tt.kernel')"),
    "unknown_encoding_head": ("#e = #triton_gpu.shared<{vec = 1}>\n" + _fn(""),
                              "line 1, col 6: unknown encoding #triton_gpu.shared"),
    "unknown_encoding_param": (_BLOCKED.replace("}>", ", threadsPerWarp = [2, 8]}>") + _fn(""),
                               "line 1, col 93: unknown attribute threadsPerWarp; "
                               "expected one of sizePerWarp, warpsPerCTA, order"),
    "unknown_dot_op_param": (_BLOCKED + "#dot0 = #triton_gpu.dot_op<{opIdx = 0, parent = #blocked, kWidth = 2}>\n"
                             + _fn(""), "line 2, col 59: unknown attribute kWidth; expected one of opIdx, parent"),
    "layout_error_in_alias": (_BLOCKED.replace("[4, 4]", "[4]") + _fn(""),
                              "line 1, col 12: blocked encoding field ranks disagree"),
    "missing_attr_value": (_fn("  %0 = arith.constant {value = } : () -> i32\n"),
                           "line 2, col 32: expected attribute value (got '}')"),
    "unknown_bang_type": (_splat_to("!foo<f32>"), "line 3, col 32: unknown type !foo"),
    "ptr_to_rank0_tensor": (_splat_to("!tt.ptr<tensor<f32>>"),
                            "line 3, col 31: pointer pointee must be an element type or ranked tensor"),
    "if_with_results": (_fn(_I0 + "  %1 = scf.if %0 {\n  }\n"), "line 3, col 8: scf.if has no results"),
    "operand_count_mismatch": (_fn(_I0 + "  %1 = arith.addi %0, %0 : (i32) -> i32\n"),
                               "line 3, col 8: arith.addi: 2 operands but 1 operand types"),
    "result_count_mismatch": (_fn(_I0 + "  %1, %2 = arith.addi %0, %0 : (i32, i32) -> i32\n"),
                              "line 3, col 12: arith.addi: 2 results named but 1 result types"),
    "iter_args_vs_result_types": (
        _fn(_I0 + "  %1 = scf.for %2 = %0 to %0 step %0 iter_args(%3 = %0) -> (i32, i32) {\n    scf.yield %3\n  }\n"),
        "line 3, col 16: iter_args and result types disagree"),
    "loop_results_vs_iter_args": (
        _fn(_I0 + "  %1, %2 = scf.for %3 = %0 to %0 step %0 iter_args(%4 = %0) -> (i32) {\n    scf.yield %4\n  }\n"),
        "line 3, col 20: loop result names and iter args disagree"),
    "float_overflow": (_fn("  %0 = arith.constant {value = 1e999} : () -> f32\n"),
                       "line 2, col 32: float literal 1e999 overflows f64"),
    "negative_float_overflow": (_fn("  %0 = arith.constant {value = -1e999} : () -> f32\n"),
                                "line 2, col 32: float literal -1e999 overflows f64"),
    # a type spelled where no type may stand reads as its separate tokens
    "type_as_op": (_fn("  %0 = tensor<4xf32>\n"), "line 2, col 8: tensor: 1 results named but 0 result types"),
    "type_as_attr_value": (_fn("  %0 = arith.constant {value = tensor<4xf32>} : () -> i32\n"),
                           "line 2, col 32: expected attribute value (got 'tensor')"),
    "type_as_attr_key": (_fn("  %0 = arith.constant {!tt.ptr<f16> = 1} : () -> i32\n"),
                         "line 2, col 24: expected ident (got '!')"),
    "type_as_fn_attr": (_fn("", _HEAD.replace("= 1", "= tensor<4xf32>")),
                        "line 1, col 61: expected attribute value (got 'tensor')"),
    "type_at_module_level": ("tensor<4xf32>\n" + _fn(""),
                             "line 1, col 1: expected encoding alias or tt.func (got 'tensor')"),
    "error_in_pointee": (_splat_to("!tt.ptr<tensor<4xf32>, f16>"), "line 3, col 52: expected > (got ',')"),
    "bad_char_in_type": (_splat_to("tensor<4x.f32>"), "line 3, col 40: unexpected character '.'"),
}


@pytest.mark.parametrize("case", sorted(PARSE_CASES))
def test_parse_error_table(case):
    text, expected = PARSE_CASES[case]
    if expected is None:
        assert module_equal(parse_module(text), parse_module(_splat_to("tensor<4x4xf32>")))
        return
    with pytest.raises(ParseError) as exc:
        parse_module(text)
    assert str(exc.value) == expected


@pytest.mark.parametrize("case", sorted(c for c, (_, expected) in PARSE_CASES.items() if expected))
def test_cli_reports_parse_error_in_one_line(case, tmp_path, capsys):
    from tilec.cli import main

    text, expected = PARSE_CASES[case]
    (tmp_path / "k.ttir").write_text(text)
    assert main(["stats", str(tmp_path / "k.ttir")]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_parse_error_on_operand_type_mismatch():
    bad = (
        "tt.func public @f(%X: !tt.ptr<f16>) attributes {num_warps = 1} {\n"
        "  %0 = arith.constant {value = 0} : () -> i32\n"
        "  %1 = arith.addi %0, %0 : (i32, f32) -> i32\n"
        "  tt.return\n"
        "}"
    )
    with pytest.raises(ParseError) as exc:
        parse_module(bad)
    assert "f32" in str(exc.value)


def test_parse_error_on_unknown_value():
    bad = (
        "tt.func public @f() attributes {num_warps = 1} {\n"
        "  %1 = arith.addi %0, %0 : (i32, i32) -> i32\n"
        "  tt.return\n"
        "}"
    )
    with pytest.raises(ParseError):
        parse_module(bad)


def test_parse_rejects_unknown_encoding_alias():
    bad = (
        "tt.func public @f() attributes {num_warps = 1} {\n"
        "  %0 = arith.constant {value = 0.0} : () -> f32\n"
        "  %1 = tt.splat %0 : (f32) -> tensor<4x4xf32, #nope>\n"
        "  tt.return\n"
        "}"
    )
    with pytest.raises(ParseError):
        parse_module(bad)


def test_parse_is_syntactic_and_verify_catches_type_errors():
    from tilec.passes import compile_kernel

    bad = (
        "tt.func public @f() attributes {num_warps = 1} {\n"
        "  %0 = arith.constant {value = 1.5} : () -> f32\n"
        "  %1 = tt.splat %0 : (f32) -> tensor<4xf16>\n"
        "  tt.return\n"
        "}"
    )
    fn = parse_module(bad).get("f")  # well-formed text parses
    assert verify(fn)  # the element mismatch is a verification diagnostic
    with pytest.raises(ValueError):
        compile_kernel(fn)  # and the pipeline refuses the input


def test_alias_redefined_between_functions():
    f = _fn(_C0 + "  %1 = tt.splat %0 : (f32) -> tensor<4x4xf32, #blocked>\n")
    text = (_BLOCKED + f + _BLOCKED.replace("warpsPerCTA = [1, 1]", "warpsPerCTA = [2, 1]")
            + f.replace("@f", "@g"))
    first, second = (fn.body.ops[1].result.type.encoding for fn in parse_module(text).functions)
    assert first.warps_per_cta == (1, 1)
    assert second.warps_per_cta == (2, 1)



def test_each_type_spelling_is_one_type_object():
    body = (_C0 + "  %1 = tt.splat %0 : (f32) -> tensor<4x4xf32, #blocked>\n"
            "  %2 = arith.addf %1, %1 : (tensor<4x4xf32, #blocked>, tensor<4x4xf32, #blocked>) -> tensor<4x4xf32, #blocked>\n"
            "  %3 = tt.splat %0 : (f32) -> tensor<4x4xf32>\n"
            "  %4 = tt.make_tensor_ptr %X : (!tt.ptr<f16>) -> !tt.ptr<tensor<4x4xf32>>\n"
            "  %5 = tt.make_tensor_ptr %X : (!tt.ptr<f16>) -> !tt.ptr<tensor<4x4xf32>>\n")
    (fn,) = parse_module(_BLOCKED + _fn(body)).functions
    ops = fn.body.ops
    blocked = ops[1].result.type
    assert all(t is blocked for t in (ops[2].result.type, *(v.type for v in ops[2].operands)))
    assert ops[4].result.type is ops[5].result.type
    assert ops[4].result.type.pointee is ops[3].result.type


def test_equal_but_distinct_types_print_the_same():
    f = _fn(_C0 + "  %1 = tt.splat %0 : (f32) -> tensor<4x4xf32, #blocked>\n")
    (one,), (two,) = (parse_module(_BLOCKED + f).functions, parse_module(_BLOCKED + f.replace("@f", "@g")).functions)
    a, b = one.body.ops[1].result.type, two.body.ops[1].result.type
    assert a == b and a is not b
    text = _BLOCKED + f + "\n" + f.replace("@f", "@g")
    assert print_module(KernelModule((one, two))) == print_module(parse_module(text))
