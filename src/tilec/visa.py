"""Virtual intrinsic ISA and the lowering from intrinsic-level IR.

The mapping is mechanical and 1-to-1: every IR operation becomes exactly one
virtual instruction (loop control included), so structural counts carry over.
What the lowering adds is vector-width selection: in SIMT style widths are
per lane (block elements divided by threadsPerWarp), in SIMD style per warp.
f16 data is packed two-per-32-bit-unit when the target is SIMD or when the
value feeds the B side of an MMA, mirroring the hardware's operand formats,
so displayed widths are in register units (v64i16, v32i32, ...) while the
underlying element count is retained for cross-style invariants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from .ir import (
    ELEMENTWISE_FLOAT,
    ELEMENTWISE_INT,
    ElemType,
    KernelFn,
    Operation,
    PtrType,
    Region,
    TensorType,
    Value,
    walk_fn_ops,
)


class LoweringError(ValueError):
    pass


# --------------------------------------------------------------------------
# target description


@dataclass(frozen=True)
class TargetConfig:
    name: str = "pvc"
    max_load: tuple[int, int] = (32, 32)
    max_dot: tuple[int, int, int] = (8, 16, 16)
    threads_per_warp: int = 16
    slm_bytes: int = 131072
    style: str = "simt"

    def __post_init__(self) -> None:
        if any(x < 1 for x in (*self.max_load, *self.max_dot, self.threads_per_warp, self.slm_bytes)):
            raise ValueError("target dimensions must be positive")
        if self.style not in ("simt", "simd"):
            raise ValueError(f"style must be 'simt' or 'simd', got {self.style!r}")


PVC = TargetConfig()

_TARGET_KEYS = {"max_load", "max_dot", "threads_per_warp", "slm_bytes", "style"}


def parse_target(text: str, name: str = "custom") -> TargetConfig:
    """Flat key=value profile, e.g. ``max_load=32x32``; '#' starts a comment."""
    fields: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"target line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _TARGET_KEYS:
            raise ValueError(f"target line {lineno}: unknown key {key!r}")
        if key in ("max_load", "max_dot"):
            parts = value.split("x")
            want = 2 if key == "max_load" else 3
            if len(parts) != want or not all(re.fullmatch(r"\d+", p) for p in parts):
                raise ValueError(f"target line {lineno}: {key} needs {want} 'x'-separated ints")
            fields[key] = tuple(int(p) for p in parts)
        elif key == "style":
            fields[key] = value
        else:
            if not re.fullmatch(r"\d+", value):
                raise ValueError(f"target line {lineno}: {key} must be an integer")
            fields[key] = int(value)
    return TargetConfig(name=name, **fields)


# --------------------------------------------------------------------------
# virtual instructions


class VOpcode(str, Enum):
    block2d_load = "block2d_load"
    block2d_store = "block2d_store"
    mma = "mma"
    extract = "extract"
    glue = "glue"
    reduce_lane = "reduce_lane"
    cross_warp_reduce = "cross_warp_reduce"
    barrier = "barrier"
    slm_alloc = "slm_alloc"
    alu = "alu"
    mov = "mov"
    loop_ctl = "loop_ctl"


# opcodes whose width describes lane-distributed execution (subject to the
# SIMT/SIMD width duality); views, collectives, and control are exempt
EXECUTION_OPCODES = (VOpcode.block2d_load, VOpcode.block2d_store, VOpcode.mma, VOpcode.alu)


@dataclass
class VInstr:
    opcode: VOpcode
    op: str = ""  # sub-operation: alu/mov kind, reduce kind, loop form
    results: tuple[str, ...] = ()
    operands: tuple[str, ...] = ()
    attrs: dict[str, Any] = field(default_factory=dict)
    shape: tuple[int, ...] = ()  # primary block shape (result, or stored value)
    elem: ElemType | None = None
    vector_len: int = 0  # register units (per lane in SIMT, per warp in SIMD)
    unit: str = ""  # register unit tag: i16/i32/f16/f32
    unit_bytes: int = 0
    lane_distributed: bool = False
    mnemonic: str = ""  # vendor-flavored documentation string
    body: list[VInstr] | None = None

    @property
    def elems(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def width_bytes(self) -> int:
        return self.vector_len * self.unit_bytes


@dataclass
class VProgram:
    name: str
    args: tuple[tuple[str, ElemType], ...]
    num_warps: int
    style: str
    threads_per_warp: int
    body: list[VInstr]
    slm_bytes_used: int = 0

    def walk(self):
        def rec(instrs):
            for i in instrs:
                yield i
                if i.body is not None:
                    yield from rec(i.body)

        yield from rec(self.body)


# --------------------------------------------------------------------------
# width computation

_UNIT_BYTES = {"i16": 2, "i32": 4, "f16": 2, "f32": 4}


def _unit_name(elem: ElemType, pack: int, as_bits: bool) -> str:
    if pack == 2:
        return "i32"
    if as_bits:
        return {"f16": "i16", "f32": "i32", "i32": "i32", "i1": "i16"}[elem.value]
    return elem.value


def _width(numel: int, elem: ElemType, packed: bool, target: TargetConfig, as_bits: bool):
    """(vector_len, unit, unit_bytes, lane_distributed) for one block."""
    pack = 2 if elem == ElemType.f16 and (target.style == "simd" or packed) else 1
    if numel % pack:
        raise LoweringError(f"odd f16 element count {numel} cannot be packed")
    units = numel // pack
    unit = _unit_name(elem, pack, as_bits)
    ub = _UNIT_BYTES[unit]
    tpw = target.threads_per_warp
    lane_ok = units >= tpw and units % tpw == 0
    if target.style == "simt":
        if lane_ok:
            return units // tpw, unit, ub, True
        if units < tpw:
            return units, unit, ub, False  # warp-uniform small block
        raise LoweringError(f"vector length {units} not divisible by threadsPerWarp {tpw}")
    return units, unit, ub, lane_ok


def _view_width(numel: int, elem: ElemType, packed: bool, target: TargetConfig):
    """Register views (extract/glue/shape movs) carry unit-level width and are
    never lane-distributed for duality purposes."""
    pack = 2 if elem == ElemType.f16 and (target.style == "simd" or packed) else 1
    if numel % pack:
        pack = 1
    unit = _unit_name(elem, pack, False)
    return numel // pack, unit, _UNIT_BYTES[unit], False


# --------------------------------------------------------------------------
# lowering


def _feeds_dot_b(fn: KernelFn) -> set[int]:
    """ids of values that reach some dot's B operand through extract/glue."""
    packed: set[int] = set()
    producers: dict[int, Operation] = {}
    for op in walk_fn_ops(fn):
        for r in op.results:
            producers[id(r)] = op
    work: list[Value] = [op.operands[1] for op in walk_fn_ops(fn) if op.kind == "tt.dot"]
    while work:
        v = work.pop()
        if id(v) in packed:
            continue
        packed.add(id(v))
        p = producers.get(id(v))
        if p is not None and p.kind in ("tt.extract", "tt.glue"):
            work.extend(p.operands)
    return packed


class _Lowerer:
    def __init__(self, fn: KernelFn, target: TargetConfig):
        self.fn = fn
        self.target = target
        self.packed = _feeds_dot_b(fn)
        self.regs: dict[int, str] = {}
        self.counter = 0
        self.slm_used = 0

    def reg(self, v: Value) -> str:
        return self.regs[id(v)]

    def new_reg(self, v: Value) -> str:
        name = f"%{self.counter}"
        self.counter += 1
        self.regs[id(v)] = name
        return name

    def run(self) -> VProgram:
        if self.fn.level != "intrinsic":
            raise LoweringError(f"@{self.fn.name}: lowering requires intrinsic level, got {self.fn.level!r}")
        args: list[tuple[str, ElemType]] = []
        for a in self.fn.args:
            if not isinstance(a.type, PtrType) or a.type.is_block:
                raise LoweringError(f"@{self.fn.name}: only buffer pointer arguments lower, %{a.name} is {a.type}")
            self.regs[id(a)] = f"%{a.name}"
            args.append((a.name, a.type.pointee))
        body = self.lower_region(self.fn.body)
        if self.slm_used > self.target.slm_bytes:
            raise LoweringError(
                f"@{self.fn.name}: SLM use {self.slm_used} bytes exceeds target budget {self.target.slm_bytes}"
            )
        return VProgram(
            name=self.fn.name,
            args=tuple(args),
            num_warps=self.fn.num_warps,
            style=self.target.style,
            threads_per_warp=self.target.threads_per_warp,
            body=body,
            slm_bytes_used=self.slm_used,
        )

    def lower_region(self, region: Region) -> list[VInstr]:
        return [self.lower_op(op) for op in region.ops]

    # helpers -------------------------------------------------------------
    def _exec_widths(self, t: TensorType, packed: bool, as_bits: bool):
        return _width(t.numel, t.elem, packed, self.target, as_bits)

    def _check_load_shape(self, t: TensorType, what: str) -> None:
        ml = self.target.max_load
        lim = ml if t.rank == 2 else (ml[1],)
        if any(d > m for d, m in zip(t.shape, lim)):
            raise LoweringError(f"@{self.fn.name}: {what} block {t.shape} exceeds max load {ml}")

    def lower_op(self, op: Operation) -> VInstr:
        k = op.kind
        t = self.target
        res = tuple(self.new_reg(r) for r in op.results) if k != "scf.for" else ()
        # scf.for names its results after the body so iter regs print in order
        opnd = tuple(self.reg(v) for v in op.operands) if k != "scf.for" else ()

        if k == "tt.load":
            tt = op.results[0].type
            self._check_load_shape(tt, "load")
            vl, unit, ub, lane = self._exec_widths(tt, id(op.results[0]) in self.packed, True)
            mn = "2DBlockRead" if t.style == "simt" else "load2d.stateless"
            return VInstr(VOpcode.block2d_load, "", res, opnd, {}, tt.shape, tt.elem, vl, unit, ub, lane, mn)
        if k == "tt.store":
            tt = op.operands[1].type
            self._check_load_shape(tt, "store")
            vl, unit, ub, lane = self._exec_widths(tt, False, True)
            mn = "2DBlockWrite" if t.style == "simt" else "store2d.stateless"
            return VInstr(VOpcode.block2d_store, "", res, opnd, {}, tt.shape, tt.elem, vl, unit, ub, lane, mn)
        if k == "tt.dot":
            ta, tb, tc = (v.type for v in op.operands)
            m, kk = ta.shape
            n = tb.shape[1]
            mm, mn_, mk = t.max_dot
            if m > mm or n != mn_ or kk != mk:
                raise LoweringError(
                    f"@{self.fn.name}: mma {m}x{n}x{kk} violates max dot "
                    f"{mm}x{mn_}x{mk} (m may be smaller, n and k must match)"
                )
            vl, unit, ub, lane = self._exec_widths(tc, False, False)
            va, ua, _, _ = self._exec_widths(ta, id(op.operands[0]) in self.packed, True)
            vb, ubn, _, _ = self._exec_widths(tb, id(op.operands[1]) in self.packed, True)
            stem = "dpas" if t.style == "simt" else "dpas2"
            mn = f"{stem}.v{vl}{unit}.v{va}{ua}.v{vb}{ubn}"
            return VInstr(VOpcode.mma, "", res, opnd, {}, tc.shape, tc.elem, vl, unit, ub, lane, mn)
        if k == "tt.extract":
            rt = op.results[0].type
            if isinstance(rt, PtrType):
                tt = rt.pointee
                return VInstr(
                    VOpcode.extract, "ptr", res, opnd, {"index": op.attrs["index"]},
                    tt.shape, tt.elem, 1, "i32", 4, False, "subview",
                )
            vl, unit, ub, lane = _view_width(rt.numel, rt.elem, id(op.results[0]) in self.packed, t)
            return VInstr(
                VOpcode.extract, "", res, opnd, {"index": op.attrs["index"]},
                rt.shape, rt.elem, vl, unit, ub, lane, "subregister",
            )
        if k == "tt.glue":
            rt = op.results[0].type
            vl, unit, ub, lane = _view_width(rt.numel, rt.elem, id(op.results[0]) in self.packed, t)
            return VInstr(VOpcode.glue, "", res, opnd, {}, rt.shape, rt.elem, vl, unit, ub, lane, "subregister")
        if k == "tt.reduce":
            st = op.operands[0].type
            if op.attrs.get("cross_warp", False):
                vl, unit, ub, _ = _view_width(st.numel, st.elem, False, t)
                attrs: dict[str, Any] = {}
                if op.attrs.get("dst_warps") is not None:
                    attrs["dst_warps"] = list(op.attrs["dst_warps"])
                return VInstr(
                    VOpcode.cross_warp_reduce, op.attrs["kind"], res, opnd, attrs,
                    st.shape, st.elem, vl, unit, ub, False, "slm_reduce",
                )
            vl, unit, ub, lane = self._exec_widths(st, False, False)
            return VInstr(
                VOpcode.reduce_lane, op.attrs["kind"], res, opnd, {"axis": op.attrs["axis"]},
                op.results[0].type.shape, st.elem, vl, unit, ub, lane, "lane_shuffle_reduce",
            )
        if k == "tt.barrier":
            return VInstr(VOpcode.barrier, "", res, opnd, {}, (), None, 0, "", 0, False, "slm_fence")
        if k == "tt.alloc":
            tt = op.results[0].type.pointee
            nbytes = tt.numel * tt.elem.nbytes
            self.slm_used += nbytes
            return VInstr(
                VOpcode.slm_alloc, "", res, opnd, {"bytes": nbytes},
                tt.shape, tt.elem, 1, "i32", 4, False, "slm_alloc",
            )
        if k == "tt.make_tensor_ptr":
            tt = op.results[0].type.pointee
            return VInstr(
                VOpcode.alu, "mkptr", res, opnd, {"order": list(op.attrs["order"])},
                tt.shape, tt.elem, 1, "i32", 4, False, "addr",
            )
        if k == "tt.advance":
            tt = op.results[0].type.pointee
            return VInstr(VOpcode.alu, "advance", res, opnd, {}, tt.shape, tt.elem, 1, "i32", 4, False, "addr")
        if k == "tt.get_program_id":
            return VInstr(
                VOpcode.mov, "pid", res, opnd, {"axis": op.attrs["axis"]},
                (), ElemType.i32, 1, "i32", 4, False, "r0_header",
            )
        if k == "tt.warp_id":
            return VInstr(VOpcode.mov, "wid", res, opnd, {}, (), ElemType.i32, 1, "i32", 4, False, "sr0_subgroup")
        if k == "arith.constant":
            rt = op.results[0].type
            return VInstr(
                VOpcode.mov, "const", res, opnd, {"value": op.attrs["value"]},
                (), rt.elem, 1, _unit_name(rt.elem, 1, False), rt.elem.nbytes, False, "imm",
            )
        if k == "tt.splat":
            rt = op.results[0].type
            vl, unit, ub, lane = self._exec_widths(rt, False, False)
            return VInstr(VOpcode.mov, "splat", res, opnd, {}, rt.shape, rt.elem, vl, unit, ub, lane, "broadcast_fill")
        if k in ("tt.expand_dims", "tt.broadcast"):
            rt = op.results[0].type
            sub = "expand" if k == "tt.expand_dims" else "bcast"
            vl, unit, ub, lane = _view_width(rt.numel, rt.elem, False, t)
            attrs = {"axis": op.attrs["axis"]} if k == "tt.expand_dims" else {}
            return VInstr(VOpcode.mov, sub, res, opnd, attrs, rt.shape, rt.elem, vl, unit, ub, lane, "region_view")
        if k == "tt.convert":
            rt = op.results[0].type
            vl, unit, ub, lane = self._exec_widths(rt, False, False)
            return VInstr(VOpcode.alu, "cvt", res, opnd, {}, rt.shape, rt.elem, vl, unit, ub, lane, "mov_rnd")
        if k in ELEMENTWISE_FLOAT or k in ELEMENTWISE_INT:
            rt = op.results[0].type
            vl, unit, ub, lane = self._exec_widths(rt, False, False)
            return VInstr(VOpcode.alu, k.split(".", 1)[1], res, opnd, {}, rt.shape, rt.elem, vl, unit, ub, lane, "vec_alu")
        if k == "arith.cmpi":
            return VInstr(
                VOpcode.alu, "cmpi", res, opnd, {"pred": op.attrs["pred"]},
                (), ElemType.i1, 1, "i16", 2, False, "cmp",
            )
        if k == "scf.for":
            body_region = op.regions[0]
            opnd = tuple(self.reg(v) for v in op.operands)
            iv = self.new_reg(body_region.args[0])
            iters = tuple(self.new_reg(a) for a in body_region.args[1:])
            body = self.lower_region(body_region)
            res = tuple(self.new_reg(r) for r in op.results)
            return VInstr(
                VOpcode.loop_ctl, "for", res, opnd, {"iv": iv, "iters": list(iters)},
                (), None, 0, "", 0, False, "loop", body,
            )
        if k == "scf.yield":
            return VInstr(VOpcode.loop_ctl, "yield", res, opnd, {}, (), None, 0, "", 0, False, "loop")
        if k == "scf.if":
            body = self.lower_region(op.regions[0])
            return VInstr(VOpcode.loop_ctl, "if", res, opnd, {}, (), None, 0, "", 0, False, "branch", body)
        if k == "tt.return":
            return VInstr(VOpcode.loop_ctl, "ret", res, opnd, {}, (), None, 0, "", 0, False, "eot")
        raise LoweringError(f"@{self.fn.name}: no lowering for op {k!r}")


def lower(fn: KernelFn, target: TargetConfig) -> VProgram:
    return _Lowerer(fn, target).run()


# --------------------------------------------------------------------------
# disassembly


def _fmt_instr(i: VInstr, indent: str, out: list[str]) -> None:
    if i.opcode == VOpcode.loop_ctl:
        if i.op == "for":
            head = f"for {i.attrs['iv']} = {i.operands[0]} to {i.operands[1]} step {i.operands[2]}"
            inits = i.operands[3:]
            if inits:
                pairs = ", ".join(f"{a} = {v}" for a, v in zip(i.attrs["iters"], inits))
                head += f" iter({pairs})"
            if i.results:
                head = f"{', '.join(i.results)} = {head}"
            out.append(indent + head + " {")
            for b in i.body or []:
                _fmt_instr(b, indent + "  ", out)
            out.append(indent + "}")
            return
        if i.op == "if":
            out.append(indent + f"if {i.operands[0]} {{")
            for b in i.body or []:
                _fmt_instr(b, indent + "  ", out)
            out.append(indent + "}")
            return
        if i.op == "yield":
            out.append(indent + ("yield " + ", ".join(i.operands) if i.operands else "yield"))
            return
        out.append(indent + "ret")
        return
    name = i.opcode.value + (f".{i.op}" if i.op else "")
    if i.vector_len:
        name += f".v{i.vector_len}{i.unit}"
    parts = [name]
    if i.operands:
        parts.append(" " + ", ".join(i.operands))
    extras = {k: v for k, v in i.attrs.items()}
    if extras:
        items = ", ".join(f"{k} = {extras[k]}" for k in sorted(extras))
        parts.append(" {" + items + "}")
    text = "".join(parts)
    if i.results:
        text = f"{', '.join(i.results)} = {text}"
    if i.mnemonic:
        text += f"  ; {i.mnemonic}"
    out.append(indent + text)


def disassemble(prog: VProgram) -> str:
    out = [
        f"vprogram @{prog.name} style={prog.style} tpw={prog.threads_per_warp} "
        f"num_warps={prog.num_warps} slm={prog.slm_bytes_used} {{"
    ]
    for i in prog.body:
        _fmt_instr(i, "  ", out)
    out.append("}")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class Stats:
    loads: int = 0
    stores: int = 0
    mmas: int = 0
    barriers: int = 0
    bytes_loaded: int = 0
    slm_bytes_used: int = 0

    def as_lines(self) -> list[str]:
        return [
            f"loads={self.loads}",
            f"stores={self.stores}",
            f"mmas={self.mmas}",
            f"barriers={self.barriers}",
            f"bytes_loaded={self.bytes_loaded}",
            f"slm_bytes_used={self.slm_bytes_used}",
        ]


def count_stats(prog: VProgram) -> Stats:
    """Static instruction counts plus loop-trip-weighted dynamic byte counts.

    Loop bounds must be compile-time constants (true for the whole suite);
    anything else raises, since a symbolic trip count has no static byte
    total.
    """
    consts: dict[str, int] = {}
    counts = {"loads": 0, "stores": 0, "mmas": 0, "barriers": 0}
    bytes_loaded = 0

    def trip(instr: VInstr) -> int:
        vals = []
        for r in instr.operands[:3]:
            if r not in consts:
                raise LoweringError("stats require constant loop bounds")
            vals.append(consts[r])
        lb, ub, step = vals
        if step <= 0:
            raise LoweringError(f"non-positive loop step {step}")
        return max(0, -(-(ub - lb) // step))

    def scan(instrs: list[VInstr], mult: int) -> None:
        nonlocal bytes_loaded
        for i in instrs:
            if i.opcode == VOpcode.mov and i.op == "const" and isinstance(i.attrs.get("value"), int):
                consts[i.results[0]] = i.attrs["value"]
            if i.opcode == VOpcode.block2d_load:
                counts["loads"] += 1
                bytes_loaded += mult * i.elems * (i.elem.nbytes if i.elem else 0)
            elif i.opcode == VOpcode.block2d_store:
                counts["stores"] += 1
            elif i.opcode == VOpcode.mma:
                counts["mmas"] += 1
            elif i.opcode == VOpcode.barrier:
                counts["barriers"] += 1
            if i.body is not None:
                scan(i.body, mult * (trip(i) if i.op == "for" else 1))

    scan(prog.body, 1)
    return Stats(
        loads=counts["loads"],
        stores=counts["stores"],
        mmas=counts["mmas"],
        barriers=counts["barriers"],
        bytes_loaded=bytes_loaded,
        slm_bytes_used=prog.slm_bytes_used,
    )
