"""Virtual intrinsic ISA, the lowering from intrinsic-level IR, and the
raising back to it.

The mapping is mechanical and 1-to-1: every IR operation becomes exactly one
virtual instruction (loop control included), so structural counts carry over.
One table, ``LOWERING``, names for each IR kind the opcode, sub-op, width
rule and mnemonic; ``lower`` reads it forwards and ``raise_program``
backwards, so a program raises to the IR it spells.  The simulator runs
that IR, and ``ir.fn_equal`` of it and the lowered function checks a
lowering (translation validation).  What the lowering adds is each
instruction's register width (v64i16, v32i32, ...), which ``_width``
computes by the row's width rule; ``Lowering`` names the rules.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any, NamedTuple

from .ir import (
    ELEMENTWISE_FLOAT,
    ELEMENTWISE_INT,
    I32,
    ElemType,
    KernelFn,
    Operation,
    PtrType,
    Region,
    TensorType,
    Value,
    tile_type,
    trip_count,
    walk_fn_ops,
)
from .textio import _type_desc


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
        if key in fields:
            raise ValueError(f"target line {lineno}: repeated key {key}")
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
    def width_bytes(self) -> int:
        return self.vector_len * self.unit_bytes


@dataclass(eq=False)
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
_BITS_UNIT = {"f16": "i16", "f32": "i32", "i32": "i32", "i1": "i16"}  # i1 has no typed unit of its own


def _width(fn: str, rule: str, numel: int, elem: ElemType, packed: bool, target: TargetConfig):
    """(vector_len, unit, unit_bytes, lane_distributed) of one block of
    `numel` elements of function `fn`, by a ``Lowering`` width rule other
    than ``none``:

    - ``addr``: one i32 address register.
    - f16 packs two to an i32 unit, as the hardware's operand formats do,
      when the target is SIMD or the value is in the MMA B format
      (`packed`), under every rule but ``scalar``.  An odd f16 count cannot
      pack: that raises, except under ``view``, which stays unpacked.
    - An unpacked unit is the raw bits (i16, i32) under ``bits`` and the
      typed element otherwise; i1 takes i16.
    - ``view`` and ``scalar``: all the units, never lane-distributed.
    - ``bits`` and ``typed``: in SIMT style per lane (the units divided by
      threadsPerWarp, or all of them for a warp-uniform block of fewer
      units than lanes), in SIMD style per warp; lane-distributed where
      threadsPerWarp divides the units.
    """
    if rule == "addr":
        return 1, "i32", 4, False
    pack = 2 if elem == ElemType.f16 and rule != "scalar" and (target.style == "simd" or packed) else 1
    if numel % pack:
        if rule != "view":
            raise LoweringError(f"@{fn}: odd f16 element count {numel} cannot be packed")
        pack = 1
    units = numel // pack
    unit = "i32" if pack == 2 else _BITS_UNIT[elem.value] if rule == "bits" or elem == ElemType.i1 else elem.value
    ub = _UNIT_BYTES[unit]
    if rule in ("view", "scalar"):
        return units, unit, ub, False
    tpw = target.threads_per_warp
    lane_ok = units >= tpw and units % tpw == 0
    if target.style == "simt":
        if lane_ok:
            return units // tpw, unit, ub, True
        if units < tpw:
            return units, unit, ub, False  # warp-uniform small block
        raise LoweringError(f"@{fn}: vector length {units} not divisible by threadsPerWarp {tpw}")
    return units, unit, ub, lane_ok


# --------------------------------------------------------------------------
# lowering

_IR_ONLY_ATTRS = ("kind", "tiling")


class Lowering(NamedTuple):
    """One row of the IR-op to vISA table.

    ``width`` names the rule for the register width, which ``_width``
    computes: ``bits`` and ``typed`` are lane-distributed execution over raw
    bits or typed units, ``view`` a register view, ``addr`` one address
    register, ``scalar`` one scalar register, ``none`` no register at all.
    A dot's A and B operands take ``bits`` widths.  ``mnemonic`` is one
    string or a (simt, simd) pair.
    """

    opcode: VOpcode
    op: str
    width: str
    mnemonic: str | tuple[str, str]


# Every key is an IR op kind.  `lower` reads this table forwards and
# `raise_program` backwards, so no two rows may share an (opcode, op) pair.
# An empty op keys the opcode alone, which leaves the instruction free to
# fill it (a reduce's kind, a pointer extract's "ptr").
LOWERING: dict[str, Lowering] = {
    "tt.load": Lowering(VOpcode.block2d_load, "", "bits", ("2DBlockRead", "load2d.stateless")),
    "tt.store": Lowering(VOpcode.block2d_store, "", "bits", ("2DBlockWrite", "store2d.stateless")),
    "tt.dot": Lowering(VOpcode.mma, "", "typed", ("dpas", "dpas2")),  # stem of the composed mnemonic
    "tt.extract": Lowering(VOpcode.extract, "", "view", "subregister"),
    "tt.glue": Lowering(VOpcode.glue, "", "view", "subregister"),
    "tt.reduce": Lowering(VOpcode.reduce_lane, "", "typed", "lane_shuffle_reduce"),
    "tt.cross_warp_reduce": Lowering(VOpcode.cross_warp_reduce, "", "view", "slm_reduce"),
    "tt.barrier": Lowering(VOpcode.barrier, "", "none", "slm_fence"),
    "tt.alloc": Lowering(VOpcode.slm_alloc, "", "addr", "slm_alloc"),
    "tt.make_tensor_ptr": Lowering(VOpcode.alu, "mkptr", "addr", "addr"),
    "tt.advance": Lowering(VOpcode.alu, "advance", "addr", "addr"),
    "tt.get_program_id": Lowering(VOpcode.mov, "pid", "scalar", "r0_header"),
    "tt.warp_id": Lowering(VOpcode.mov, "wid", "scalar", "sr0_subgroup"),
    "arith.constant": Lowering(VOpcode.mov, "const", "scalar", "imm"),
    "tt.splat": Lowering(VOpcode.mov, "splat", "typed", "broadcast_fill"),
    "tt.expand_dims": Lowering(VOpcode.mov, "expand", "view", "region_view"),
    "tt.broadcast": Lowering(VOpcode.mov, "bcast", "view", "region_view"),
    "tt.convert": Lowering(VOpcode.alu, "cvt", "typed", "mov_rnd"),
    **{k: Lowering(VOpcode.alu, k.split(".", 1)[1], "typed", "vec_alu") for k in ELEMENTWISE_FLOAT | ELEMENTWISE_INT},
    "arith.cmpi": Lowering(VOpcode.alu, "cmpi", "scalar", "cmp"),
    "scf.for": Lowering(VOpcode.loop_ctl, "for", "none", "loop"),
    "scf.yield": Lowering(VOpcode.loop_ctl, "yield", "none", "loop"),
    "scf.if": Lowering(VOpcode.loop_ctl, "if", "none", "branch"),
    "tt.return": Lowering(VOpcode.loop_ctl, "ret", "none", "eot"),
}


def _feeds_dot_b(fn: KernelFn) -> set[int]:
    """ids of the values held in the MMA B-operand (packed f16) format: the
    loads and register views that reach some dot's B operand through
    extract/glue.  Other producers (a splat, a convert) define plain
    registers, and a dot reading one of them reads it unpacked."""
    producer = {id(r): op for op in walk_fn_ops(fn) for r in op.results}
    packed: set[int] = set()
    work: list[Value] = [op.operands[1] for op in walk_fn_ops(fn) if op.kind == "tt.dot"]
    while work:
        v = work.pop()
        p = producer.get(id(v))
        if id(v) in packed or p is None or p.kind not in ("tt.load", "tt.extract", "tt.glue"):
            continue
        packed.add(id(v))
        if p.kind != "tt.load":
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
                raise LoweringError(f"@{self.fn.name}: only buffer pointer arguments lower, %{a.name} is {_type_desc(a.type)}")
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

    def _widths(self, op: Operation, rule: str):
        """(shape, elem, vector_len, unit, unit_bytes, lane_distributed) by a row's width rule."""
        if rule == "none":
            return (), None, 0, "", 0, False
        t = tile_type((op.results[0] if op.results else op.operands[1]).type)  # a store: the stored value
        src = op.operands[0].type if op.kind == "tt.reduce" else t  # a reduce is as wide as its source
        packed = bool(op.results) and id(op.results[0]) in self.packed
        return (t.shape, t.elem, *_width(self.fn.name, rule, src.numel, src.elem, packed, self.target))

    def lower_op(self, op: Operation) -> VInstr:
        k = op.kind
        row = LOWERING.get(k)
        if row is None:
            raise LoweringError(f"@{self.fn.name}: no lowering for op {k!r}")
        opcode, sub, rule, mn = row
        opnd = tuple(self.reg(v) for v in op.operands)
        attrs = {a: v for a, v in op.attrs.items() if a not in _IR_ONLY_ATTRS}
        body = None
        if op.regions:  # body registers before results, so a loop's iter regs print in order
            region = op.regions[0]
            if region.args:
                attrs["iv"] = self.new_reg(region.args[0])
                attrs["iters"] = [self.new_reg(a) for a in region.args[1:]]
            body = self.lower_region(region)
        res = tuple(self.new_reg(r) for r in op.results)
        if isinstance(mn, tuple):
            mn = mn[self.target.style == "simd"]

        if k in ("tt.load", "tt.store"):
            t, ml = (op.results[0] if op.results else op.operands[1]).type, self.target.max_load
            if any(d > m for d, m in zip(t.shape, ml if t.rank == 2 else ml[1:])):
                raise LoweringError(f"@{self.fn.name}: {k[3:]} block {t.shape} exceeds max load {ml}")
        elif k in ("tt.reduce", "tt.cross_warp_reduce"):
            sub = op.attrs["kind"]
        elif k == "tt.extract" and isinstance(op.results[0].type, PtrType):
            sub, rule, mn = "ptr", "addr", "subview"
        elif k == "tt.alloc":
            tt = op.results[0].type.pointee
            attrs["bytes"] = tt.numel * tt.elem.nbytes
            self.slm_used += attrs["bytes"]
        elif k == "tt.dot":
            ta, tb = op.operands[0].type, op.operands[1].type
            (m, kk), n = ta.shape, tb.shape[1]
            mm, mn_, mk = self.target.max_dot
            if m > mm or n != mn_ or kk != mk:
                raise LoweringError(
                    f"@{self.fn.name}: mma {m}x{n}x{kk} violates max dot "
                    f"{mm}x{mn_}x{mk} (m may be smaller, n and k must match)"
                )
        widths = self._widths(op, rule)
        if k == "tt.dot":  # result, a and b widths; a and b as raw bits
            wa = _width(self.fn.name, "bits", ta.numel, ta.elem, id(op.operands[0]) in self.packed, self.target)
            wb = _width(self.fn.name, "bits", tb.numel, tb.elem, id(op.operands[1]) in self.packed, self.target)
            mn = f"{mn}.v{widths[2]}{widths[3]}.v{wa[0]}{wa[1]}.v{wb[0]}{wb[1]}"
        return VInstr(opcode, sub, res, opnd, attrs, *widths, mn, body)


def lower(fn: KernelFn, target: TargetConfig) -> VProgram:
    return _Lowerer(fn, target).run()


# --------------------------------------------------------------------------
# raising

# LOWERING read backwards: the IR kind of each (opcode, sub-op), or of the
# opcode alone where the row leaves the sub-op to the instruction
_RAISING: dict[Any, str] = {(r.opcode, r.op) if r.op else r.opcode: k for k, r in LOWERING.items()}
# attrs the lowering adds: a loop's registers, which raise to its body's
# arguments, and an SLM allocation's size, which its type holds
_VISA_ONLY_ATTRS = ("iv", "iters", "bytes")


def raise_program(prog: VProgram) -> tuple[KernelFn, dict[Operation, str]]:
    """The intrinsic-level function that `prog` spells, and per op the name
    of its instruction (``block2d_load``, ``alu.divi``).

    Each instruction raises to the IR kind whose ``LOWERING`` row it has,
    its results typed by its shape and element type (a loop's by its inits)
    and its registers bound to the values they name.  Nothing is verified,
    so an edited program raises to what it says; ``ir.verify`` checks the
    result.  An instruction that no row spells, that reads a register no
    earlier instruction defines, or whose shape no tensor type has, raises
    ``LoweringError``."""
    fn = KernelFn(prog.name, [(b, PtrType(elem)) for b, elem in prog.args], prog.num_warps, "intrinsic")
    names: dict[Operation, str] = {}
    _raise_region(prog, prog.body, fn.body, {f"%{a.name}": a for a in fn.args}, names)
    return fn, names


def _raise_region(prog: VProgram, instrs: list[VInstr], region: Region, regs: dict[str, Value],
                  names: dict[Operation, str]) -> None:
    """Append to `region` the ops that `instrs` spell; `regs` maps every
    register defined so far to its value and gains the instructions' own."""
    for ins in instrs:
        name = ins.opcode.value + (f".{ins.op}" if ins.op else "")
        kind = _RAISING.get((ins.opcode, ins.op)) or _RAISING.get(ins.opcode)
        if kind is None:
            raise LoweringError(f"@{prog.name}: vISA instruction {name!r} spells no IR op")
        try:
            operands = [regs[r] for r in ins.operands]
        except KeyError as e:
            raise LoweringError(f"@{prog.name}: {name} reads register {e.args[0]} before it is defined") from None
        attrs = {a: v for a, v in ins.attrs.items() if a not in _VISA_ONLY_ATTRS}
        if kind in ("tt.reduce", "tt.cross_warp_reduce"):  # vISA spells the reduce kind as the sub-op
            attrs["kind"] = ins.op
        if kind == "scf.for":  # the carries and the loop's results are typed like the inits
            types = [v.type for v in operands[3:]]
            body = Region([Value(I32), *map(Value, types)])
            regs.update(zip((ins.attrs["iv"], *ins.attrs["iters"]), body.args))
        else:
            try:
                tile = TensorType(ins.shape, ins.elem)
            except ValueError as e:  # a shape no tensor type has
                raise LoweringError(f"@{prog.name}: {name}: {e}") from None
            types = [PtrType(tile) if LOWERING[kind].width == "addr" or ins.op == "ptr" else tile] * len(ins.results)
            body = Region()
        if ins.body is not None:
            _raise_region(prog, ins.body, body, regs, names)
        op = Operation(kind, operands, attrs, types, () if ins.body is None else (body,))
        regs.update(zip(ins.results, op.results))
        names[op] = name
        region.ops.append(op)


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
        return [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]


# the Stats field that counts each counted opcode
_COUNTED = {VOpcode.block2d_load: "loads", VOpcode.block2d_store: "stores", VOpcode.mma: "mmas",
            VOpcode.barrier: "barriers"}


def count_stats(prog: VProgram) -> Stats:
    """Static instruction counts plus loop-trip-weighted dynamic byte counts.

    Loop bounds must be compile-time constants (true for the whole suite);
    anything else raises, since a symbolic trip count has no static byte
    total.
    """
    consts: dict[str, int] = {}
    counts = dict.fromkeys(_COUNTED.values(), 0)
    bytes_loaded = 0

    def trip(instr: VInstr) -> int:
        vals = []
        for r in instr.operands[:3]:
            if r not in consts:
                raise LoweringError(f"@{prog.name}: stats require constant loop bounds")
            vals.append(consts[r])
        lb, ub, step = vals
        if step <= 0:
            raise LoweringError(f"@{prog.name}: non-positive loop step {step}")
        return trip_count(lb, ub, step)

    def scan(instrs: list[VInstr], mult: int) -> None:
        nonlocal bytes_loaded
        for i in instrs:
            if i.opcode == VOpcode.mov and i.op == "const" and isinstance(i.attrs.get("value"), int):
                consts[i.results[0]] = i.attrs["value"]
            if i.opcode in _COUNTED:
                counts[_COUNTED[i.opcode]] += 1
            if i.opcode == VOpcode.block2d_load:
                bytes_loaded += mult * math.prod(i.shape) * (i.elem.nbytes if i.elem else 0)
            if i.body is not None:
                scan(i.body, mult * (trip(i) if i.op == "for" else 1))

    scan(prog.body, 1)
    return Stats(**counts, bytes_loaded=bytes_loaded, slm_bytes_used=prog.slm_bytes_used)
