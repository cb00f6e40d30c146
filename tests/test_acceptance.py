"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
``criterion N ...: PASS|FAIL`` line (visible under ``pytest -s`` or in the
captured-output section of a failure report).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from conftest import exec_widths, fn_text, load_base, ops_of, run_fixture
from tilec.kernels import FIXTURE_NAMES, kernel_text, load_fixture
from tilec.layouts import BlockedEncoding, DotOperandEncoding, SliceEncoding
from tilec.oracle import rel_max_err
from tilec.sim import RunTrace
from tilec.visa import EXECUTION_OPCODES, PVC, VOpcode, lower
from tilec.textio import parse_module, print_module


def _verdict(num: int, label: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num} {label}: {status}")
    assert not failures, "; ".join(failures)


def _check(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


# -- 1. layout reproduction, GEMM -------------------------------------------


def test_criterion_1_gemm_layouts(gemm_compiled):
    failures: list[str] = []
    fn = gemm_compiled.layouts
    blocked = BlockedEncoding((32, 64), (8, 4), (1, 0))

    store = ops_of(fn, "tt.store")[0]
    _check(failures, store.operands[1].type.encoding == blocked,
           f"C encoding {store.operands[1].type.encoding}")

    dot = ops_of(fn, "tt.dot")[0]
    _check(failures, dot.operands[0].type.encoding == DotOperandEncoding(0, blocked),
           f"A encoding {dot.operands[0].type.encoding}")
    _check(failures, dot.operands[1].type.encoding == DotOperandEncoding(1, blocked),
           f"B encoding {dot.operands[1].type.encoding}")
    _check(failures, dot.results[0].type.encoding == blocked, "dot result encoding")

    text = fn_text(fn)
    for frag in (
        "#blocked = #triton_gpu.blocked<{sizePerWarp = [32, 64], "
        "warpsPerCTA = [8, 4], order = [1, 0]}>",
        "#dot0 = #triton_gpu.dot_op<{opIdx = 0, parent = #blocked}>",
        "#dot1 = #triton_gpu.dot_op<{opIdx = 1, parent = #blocked}>",
    ):
        _check(failures, frag in text, f"dump lacks {frag!r}")
    _verdict(1, "gemm workgroup layouts", failures)


# -- 2. layout reproduction, FA-2 --------------------------------------------


def test_criterion_2_fa2_layouts(fa2_compiled):
    failures: list[str] = []
    fn = fa2_compiled.layouts
    blocked = BlockedEncoding((16, 64), (8, 1), (1, 0))
    dot0 = DotOperandEncoding(0, blocked)

    dots = ops_of(fn, "tt.dot")
    _check(failures, len(dots) == 2, f"{len(dots)} dot ops")
    qk, pv = dots

    _check(failures, pv.results[0].type.encoding == blocked, "O encoding")
    _check(failures, pv.operands[1].type.encoding == DotOperandEncoding(1, blocked),
           "V encoding")
    _check(failures, pv.operands[0].type.encoding == dot0, "P encoding")
    _check(failures, qk.results[0].type.encoding == dot0, "QK encoding")
    _check(failures, qk.operands[0].type.encoding == DotOperandEncoding(0, dot0),
           "Q encoding")
    _check(failures, qk.operands[1].type.encoding == DotOperandEncoding(1, dot0),
           "K encoding")
    for red in ops_of(fn, "tt.reduce"):
        _check(failures, red.results[0].type.encoding == SliceEncoding(1, dot0),
               f"reduce encoding {red.results[0].type.encoding}")

    text = fn_text(fn)
    for frag in (
        "#blocked = #triton_gpu.blocked<{sizePerWarp = [16, 64], "
        "warpsPerCTA = [8, 1], order = [1, 0]}>",
        "#dot0 = #triton_gpu.dot_op<{opIdx = 0, parent = #blocked}>",
        "#dot00 = #triton_gpu.dot_op<{opIdx = 0, parent = #dot0}>",
        "#dot10 = #triton_gpu.dot_op<{opIdx = 1, parent = #dot0}>",
        "#dot1 = #triton_gpu.dot_op<{opIdx = 1, parent = #blocked}>",
        "#slice = #triton_gpu.slice<{dim = 1, parent = #dot0}>",
    ):
        _check(failures, frag in text, f"dump lacks {frag!r}")
    _verdict(2, "fa2 six encodings", failures)


# -- 3. distribution facts ----------------------------------------------------


def test_criterion_3_distribution(gemm_compiled):
    failures: list[str] = []
    fn = gemm_compiled.distribute

    dot = ops_of(fn, "tt.dot")[0]
    shapes = (dot.results[0].type.shape, dot.operands[0].type.shape,
              dot.operands[1].type.shape)
    _check(failures, shapes == ((32, 64), (32, 32), (32, 64)),
           f"dot shape {shapes[0]}={shapes[1]}*{shapes[2]}")

    trace = RunTrace()
    run_fixture("gemm_256", "warp", trace=trace)
    offs: dict[str, dict[int, list[tuple[int, ...]]]] = {"A": {}, "B": {}}
    for rec in trace.loads:
        offs[rec.base].setdefault(rec.warp, []).append(rec.offsets)

    a0 = offs["A"][0]
    for w in (1, 2, 3):
        _check(failures, offs["A"][w] == a0, f"warp {w} A offsets differ from warp 0")
    _check(failures, offs["A"][4] != a0, "warp 4 unexpectedly shares warp 0's A tile")

    b0 = offs["B"][0]
    for w in range(4, 32, 4):
        _check(failures, offs["B"][w] == b0, f"warp {w} B offsets differ from warp 0")
    _check(failures, offs["B"][1] != b0, "warp 1 unexpectedly shares warp 0's B tile")
    _verdict(3, "gemm warp distribution", failures)


# -- 4. split counts -----------------------------------------------------------


def test_criterion_4_split_counts(gemm_compiled):
    failures: list[str] = []
    fn = gemm_compiled.match

    dots = ops_of(fn, "tt.dot")
    _check(failures, len(dots) == 32, f"{len(dots)} dot ops, want 32")
    for d in dots:
        shapes = (d.results[0].type.shape, d.operands[0].type.shape,
                  d.operands[1].type.shape)
        _check(failures, shapes == ((8, 16), (8, 16), (16, 16)),
               f"dot piece {shapes}")

    loads = ops_of(fn, "tt.load")
    by_base: dict[str, int] = {}
    for ld in loads:
        _check(failures, ld.results[0].type.shape == (32, 32),
               f"load shape {ld.results[0].type.shape}")
        base = load_base(fn, ld)
        by_base[base] = by_base.get(base, 0) + 1
    _check(failures, by_base.get("A") == 1, f"A loads {by_base.get('A')}, want 1")
    _check(failures, by_base.get("B") == 2, f"B loads {by_base.get('B')}, want 2")
    _verdict(4, "gemm intrinsic split counts", failures)


# -- 5. vector widths -----------------------------------------------------------


def test_criterion_5_vector_widths(gemm_compiled):
    failures: list[str] = []
    simt = lower(gemm_compiled.match, PVC)
    simd = lower(gemm_compiled.match, replace(PVC, style="simd"))

    ti = list(simt.walk())
    di = list(simd.walk())
    _check(failures, len(ti) == len(di), "instruction streams diverge")
    _check(failures, all(a.opcode == b.opcode for a, b in zip(ti, di)),
           "opcode sequences diverge")

    a_simt = [i for i in ti if i.opcode == VOpcode.block2d_load and i.vector_len == 64]
    _check(failures, len(a_simt) == 1, f"{len(a_simt)} SIMT loads of vectorLen 64")
    if a_simt:
        idx = ti.index(a_simt[0])
        _check(failures, di[idx].vector_len == 512,
               f"SIMD twin vectorLen {di[idx].vector_len}, want 512")

    pairs = list(zip(exec_widths(simt), exec_widths(simd)))
    _check(failures, bool(pairs), "no execution instructions found")
    _check(failures, any(lane for _, _, _, lane in exec_widths(simt)),
           "no lane-distributed instructions found")
    for (op_t, kind_t, w_t, lane), (op_d, kind_d, w_d, _) in pairs:
        if lane:
            _check(failures, w_d == w_t * PVC.threads_per_warp,
                   f"{op_t}/{kind_t}: SIMD {w_d} bytes != SIMT {w_t} x 16")
        else:
            _check(failures, w_d == w_t,
                   f"{op_t}/{kind_t}: warp-uniform widths diverge {w_t} vs {w_d}")
    _verdict(5, "simt/simd vector widths", failures)


# -- 6. numeric equivalence, GEMM ------------------------------------------------


def test_criterion_6_gemm_numeric():
    failures: list[str] = []
    for level in ("workgroup", "warp", "intrinsic"):
        got, prob = run_fixture("gemm_256", level)
        err = rel_max_err(got.tensor("C"), prob.expected["C"])
        _check(failures, err <= 1e-4, f"{level}: rel err {err:.3e} > 1e-4")
    _verdict(6, "gemm numerics at three levels", failures)


# -- 7. numeric equivalence, FA-2 -------------------------------------------------


def test_criterion_7_fa2_numeric():
    failures: list[str] = []
    for name in ("fa2_d64", "fa2_d128"):
        got, prob = run_fixture(name, "workgroup")
        err = rel_max_err(got.tensor("O"), prob.expected["O"])
        _check(failures, err <= 1e-2, f"{name}: rel err {err:.3e} > 1e-2")

        q = prob.mem.tensor("Q").astype(np.float64)
        k = prob.mem.tensor("K").astype(np.float64)
        v = prob.mem.tensor("V").astype(np.float64)
        s = q @ k.T
        p = np.exp(s - s.max(axis=1, keepdims=True))
        monolithic = (p / p.sum(axis=1, keepdims=True)) @ v
        self_err = rel_max_err(prob.expected["O"], monolithic)
        _check(failures, self_err <= 1e-3,
               f"{name}: oracle self-check {self_err:.3e} > 1e-3")
    _verdict(7, "fa2 numerics and oracle self-check", failures)


# -- 8. warp-level paged attention ------------------------------------------------


def test_criterion_8_paged_warp():
    failures: list[str] = []
    trace = RunTrace()
    got, prob = run_fixture("paged_warp", "workgroup", trace=trace)
    err = rel_max_err(got.tensor("O"), prob.expected["O"])
    _check(failures, err <= 1e-2, f"rel err {err:.3e} > 1e-2")

    _check(failures, len(trace.cross) == 3, f"{len(trace.cross)} cross records")
    kinds = [(r.kind, r.dst) for r in trace.cross]
    _check(failures, kinds == [("max", None), ("sum", None), ("sum", (0,))],
           f"cross record kinds {kinds}")

    for rec in trace.cross:
        combined = rec.inputs[0].copy()
        for x in rec.inputs[1:]:
            combined = np.maximum(combined, x) if rec.kind == "max" else combined + x
        if rec.dst is None:
            for w, d in enumerate(rec.delivered):
                _check(failures, np.array_equal(d, combined),
                       f"{rec.kind}: warp {w} did not receive the combined tile")
        else:
            for w, d in enumerate(rec.delivered):
                want = combined if w in rec.dst else rec.inputs[w]
                _check(failures, np.array_equal(d, want),
                       f"{rec.kind} dst={rec.dst}: warp {w} delivery wrong")
            outside = [w for w in range(len(rec.delivered)) if w not in rec.dst]
            _check(failures,
                   any(not np.array_equal(rec.delivered[w], combined) for w in outside),
                   "dst restriction had no observable effect")
    _verdict(8, "paged warp numerics and cross-warp delivery", failures)


# -- 9. determinism ----------------------------------------------------------------


def test_criterion_9_determinism():
    failures: list[str] = []
    plans = [("gemm_256", "warp"), ("fa2_d64", "workgroup"),
             ("fa2_d128", "workgroup"), ("paged_warp", "workgroup")]
    for name, level in plans:
        runs = [run_fixture(name, level)[0] for _ in range(3)]
        _check(failures, runs[0].equal_bits(runs[1]) and runs[0].equal_bits(runs[2]),
               f"{name}: repeated runs are not bit-identical")

    base, _ = run_fixture("fa2_d64", "workgroup")
    perm, _ = run_fixture("fa2_d64", "workgroup", wg_order=(3, 1, 0, 2))
    _check(failures, base.equal_bits(perm),
           "fa2_d64: workgroup order permutation changed the bits")
    _verdict(9, "bit-identical repeated and permuted runs", failures)


# -- 10. parse/print round-trip ------------------------------------------------------


def test_criterion_10_roundtrip():
    failures: list[str] = []
    from tilec.passes import compile_kernel

    for name in FIXTURE_NAMES:
        shipped = kernel_text(name)
        reprinted = print_module(parse_module(shipped))
        _check(failures, reprinted == shipped, f"{name}: shipped text not a fixpoint")

        res = compile_kernel(load_fixture(name), to_level="intrinsic")
        for stage in ("source", "layouts", "distribute", "match"):
            text = fn_text(getattr(res, stage) if stage != "source" else res.source)
            again = print_module(parse_module(text))
            _check(failures, again == text, f"{name}/{stage}: dump not a fixpoint")
    _verdict(10, "parse/print fixpoint on fixtures and dumps", failures)
