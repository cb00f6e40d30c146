"""SSA tile IR.

Values are tensors of rank 0..2 (rank 0 doubles as the scalar type) or block
pointers; operations live in a single implicit block per region and regions
nest only through ``scf.for`` / ``scf.if``.  Modules are treated as immutable
once verified: passes rebuild rather than mutate.

The IR is a tree: a function owns its body, a region its ops, an op its
results and regions.  A value does not point to the op, loop or function
that defines it; a pass that needs a producer map builds one from a walk.
So a dropped function is freed at once by reference counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterator, Sequence, Union


class ElemType(str, Enum):
    f16 = "f16"
    f32 = "f32"
    i32 = "i32"
    i1 = "i1"

    @property
    def nbytes(self) -> int:
        return {"f16": 2, "f32": 4, "i32": 4, "i1": 1}[self.value]

    @property
    def is_float(self) -> bool:
        return self in (ElemType.f16, ElemType.f32)


class TilingHint(str, Enum):
    horizontal = "horizontal"
    vertical = "vertical"
    square = "square"


# Layout encodings are defined in tilec.layouts; ir only needs them to be
# hashable objects with a rank() method.  Imported lazily to avoid a cycle.


@dataclass(frozen=True, slots=True)
class TensorType:
    """Ranked tensor type.  shape == () is the scalar case."""

    shape: tuple[int, ...]
    elem: ElemType
    encoding: Any = None

    def __post_init__(self) -> None:
        if len(self.shape) > 2:
            raise ValueError(f"rank {len(self.shape)} tensor not supported (max 2)")
        if any(d < 1 for d in self.shape):
            raise ValueError(f"non-positive dim in shape {self.shape}")

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def numel(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n


@dataclass(frozen=True, slots=True)
class PtrType:
    """Pointer type: to a bare element (a device buffer argument) or to a
    tensor block (the result of make_tensor_ptr / alloc)."""

    pointee: Union[TensorType, ElemType]

    @property
    def is_block(self) -> bool:
        return isinstance(self.pointee, TensorType)


Type = Union[TensorType, PtrType]


def tile_type(t: Type) -> Union[TensorType, ElemType]:
    """The tile a type describes: a pointer's pointee, else the type itself."""
    return t.pointee if isinstance(t, PtrType) else t


def retile(t: Type, shape: Sequence[int], encoding: Any) -> Type:
    """t with its tile's shape and encoding replaced; a pointer stays one."""
    nt = TensorType(tuple(shape), tile_type(t).elem, encoding)
    return PtrType(nt) if isinstance(t, PtrType) else nt


def block_origin(whole: Sequence[int], block: Sequence[int], index: int) -> tuple[int, ...] | None:
    """The origin of block `index` of `whole` cut into `block`-shaped blocks,
    numbered row-major as tt.extract and tt.glue number them; None past them."""
    origin, rest = [], index
    for w, b in zip(whole[::-1], block[::-1]):
        rest, c = divmod(rest, w // b)
        origin.append(c * b)
    return None if rest else tuple(origin[::-1])


def block_index(whole: Sequence[int], block: Sequence[int], at: Sequence[int]) -> int:
    """The number of the block of `whole` that holds element `at`: the inverse of ``block_origin``."""
    index = 0
    for w, b, a in zip(whole, block, at):
        index = index * (w // b) + a // b
    return index


def scalar(elem: ElemType) -> TensorType:
    return TensorType((), elem)


I32 = scalar(ElemType.i32)
I1 = scalar(ElemType.i1)
F32 = scalar(ElemType.f32)
F16 = scalar(ElemType.f16)


class Value:
    """SSA value.  Identity-based; the printer assigns canonical names."""

    __slots__ = ("type", "name")

    def __init__(self, type: Type, name: str | None = None):
        self.type = type
        self.name = name

    def __repr__(self) -> str:
        return f"Value({self.name or hex(id(self))}: {self.type})"


class Region:
    """A single-block region: ordered ops plus block arguments."""

    __slots__ = ("args", "ops")

    def __init__(self, args: list[Value] | None = None):
        self.args: list[Value] = args or []
        self.ops: list[Operation] = []


class Operation:
    __slots__ = ("kind", "operands", "attrs", "results", "regions")

    def __init__(
        self,
        kind: str,
        operands: Sequence[Value] = (),
        attrs: dict[str, Any] | None = None,
        result_types: Sequence[Type] = (),
        regions: Sequence[Region] = (),
    ):
        self.kind = kind
        self.operands: list[Value] = list(operands)
        self.attrs: dict[str, Any] = dict(attrs or {})
        self.results: list[Value] = [Value(t) for t in result_types]
        self.regions: list[Region] = list(regions)

    @property
    def result(self) -> Value:
        assert len(self.results) == 1, f"{self.kind} has {len(self.results)} results"
        return self.results[0]

    def __repr__(self) -> str:
        return f"Operation({self.kind})"


class KernelFn:
    """A kernel function: named args, one body region, launch metadata.

    level tracks the pipeline position: "workgroup" source, "warp" after
    distribution or for a kernel written per warp, "intrinsic" after
    target-size matching.  Every level but "workgroup" runs once per warp.
    """

    __slots__ = ("name", "body", "num_warps", "level", "__weakref__")

    def __init__(
        self,
        name: str,
        args: Sequence[tuple[str, Type]],
        num_warps: int = 1,
        level: str = "workgroup",
    ):
        self.name = name
        self.body = Region([Value(t, n) for n, t in args])
        self.num_warps = num_warps
        self.level = level

    @property
    def args(self) -> list[Value]:
        return self.body.args

    def arg(self, name: str) -> Value:
        for a in self.body.args:
            if a.name == name:
                return a
        raise KeyError(f"no argument named {name} in @{self.name}")


class KernelModule:
    __slots__ = ("functions",)

    def __init__(self, functions: Sequence[KernelFn] = ()):
        self.functions: list[KernelFn] = list(functions)

    def get(self, name: str) -> KernelFn:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function @{name}")


# --------------------------------------------------------------------------
# walking helpers


def walk_ops(region: Region) -> Iterator[Operation]:
    """All ops in the region, pre-order, nested regions included."""
    for op in region.ops:
        yield op
        for r in op.regions:
            yield from walk_ops(r)


def walk_fn_ops(fn: KernelFn) -> Iterator[Operation]:
    yield from walk_ops(fn.body)


def loop_carries(op: Operation) -> list[list[Value]]:
    """One group per value an scf.for carries: its init operand, body arg and
    loop result, then its yield operand when the body ends in scf.yield.  The
    members of a group are one value across iterations.  Other ops carry
    nothing."""
    if op.kind != "scf.for":
        return []
    body = op.regions[0]
    yields = body.ops[-1].operands if body.ops and body.ops[-1].kind == "scf.yield" else []
    groups = []
    for i, init in enumerate(op.operands[3:]):
        group = [init, body.args[1 + i], op.results[i]]
        if i < len(yields):
            group.append(yields[i])
        groups.append(group)
    return groups


def trip_count(lb: Any, ub: Any, step: Any) -> Any:
    """The trips of ``scf.for %i = lb to ub step step`` for a positive
    step: ceil((ub - lb) / step), and 0 where that is negative.  On Python
    ints, or elementwise on numpy integer arrays."""
    n = -((lb - ub) // step)
    return n * (n > 0)


# --------------------------------------------------------------------------
# verification

WARP_ONLY_OPS = {"tt.warp_id", "tt.alloc", "tt.barrier", "tt.cross_warp_reduce"}

ELEMENTWISE_FLOAT = {"arith.addf", "arith.subf", "arith.mulf", "arith.divf", "arith.maximumf", "math.exp"}
ELEMENTWISE_INT = {"arith.addi", "arith.subi", "arith.muli", "arith.divi", "arith.remi"}
CMP_PREDS = ("eq", "ne", "slt", "sle", "sgt", "sge")


@dataclass(frozen=True, slots=True)
class Diagnostic:
    message: str
    fn: str = ""
    op: Any = None

    def __str__(self) -> str:
        where = f"@{self.fn}: " if self.fn else ""
        return f"{where}{self.message}"


class VerifyError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


def _is_scalar(t: Type, elem: ElemType | None = None) -> bool:
    return isinstance(t, TensorType) and t.rank == 0 and (elem is None or t.elem == elem)


def _is_block_ptr(t: Type) -> bool:
    return isinstance(t, PtrType) and t.is_block


def same_block(a: Type, b: Type) -> bool:
    """Type equality up to layout encoding.  Encodings annotate how a tile is
    spread over warps; two values with equivalent layouts may legally carry
    distinct annotations, so type checks compare shape and element only."""
    if isinstance(a, TensorType) and isinstance(b, TensorType):
        return a.shape == b.shape and a.elem == b.elem
    if isinstance(a, PtrType) and isinstance(b, PtrType):
        if a.is_block != b.is_block:
            return False
        return same_block(a.pointee, b.pointee) if a.is_block else a.pointee == b.pointee
    return a == b


def verify(obj: Union[KernelModule, KernelFn]) -> list[Diagnostic]:
    """Structural and type verification.  Returns diagnostics in walk order;
    an empty list means the module is well formed."""
    fns = obj.functions if isinstance(obj, KernelModule) else [obj]
    diags: list[Diagnostic] = []
    for fn in fns:
        _verify_fn(fn, diags)
    return diags


def verify_or_raise(obj: Union[KernelModule, KernelFn]) -> None:
    diags = verify(obj)
    if diags:
        raise VerifyError(diags)


def _verify_fn(fn: KernelFn, diags: list[Diagnostic]) -> None:
    def err(msg: str, op: Operation | None = None) -> None:
        diags.append(Diagnostic(msg, fn.name, op))

    if fn.level not in ("workgroup", "warp", "intrinsic"):
        err(f"unknown level {fn.level!r}")
    if fn.num_warps < 1:
        err(f"num_warps must be positive, got {fn.num_warps}")
    seen = set()
    for a in fn.args:
        if a.name in seen:
            err(f"duplicate argument name %{a.name}")
        seen.add(a.name)
        _check_type(a.type, err)

    defined: set[int] = set(id(a) for a in fn.args)
    _verify_region(fn, fn.body, defined, diags, is_fn_body=True)


def _check_type(t: Type, err: Callable[..., None]) -> None:
    tt = tile_type(t)
    if isinstance(tt, TensorType) and tt.encoding is not None:
        enc_rank = tt.encoding.rank
        if enc_rank != tt.rank:
            from .textio import _type_desc  # textio imports ir

            err(f"encoding rank {enc_rank} != tensor rank {tt.rank} in {_type_desc(tt)}")


def _verify_region(
    fn: KernelFn,
    region: Region,
    defined: set[int],
    diags: list[Diagnostic],
    is_fn_body: bool = False,
) -> None:
    def err(msg: str, op: Operation | None = None) -> None:
        diags.append(Diagnostic(msg, fn.name, op))

    local = set(defined)
    local.update(id(a) for a in region.args)
    for i, op in enumerate(region.ops):
        for v in op.operands:
            if id(v) not in local:
                err(f"{op.kind}: operand does not dominate use", op)
        for r in op.results:
            _check_type(r.type, err)
        _verify_op(fn, op, err)
        if op.regions:
            for sub in op.regions:
                _verify_region(fn, sub, local, diags)
        if op.kind == "scf.yield" and i != len(region.ops) - 1:
            err("scf.yield must terminate its region", op)
        if op.kind == "tt.return" and i != len(region.ops) - 1:
            err("tt.return must terminate the function body", op)
        for r in op.results:
            local.add(id(r))
    if is_fn_body:
        if not region.ops or region.ops[-1].kind != "tt.return":
            err("function body must end in tt.return")


# the attributes each op kind may carry, all read by its check below
_OP_ATTRS: dict[str, frozenset[str]] = {
    **dict.fromkeys(ELEMENTWISE_FLOAT | ELEMENTWISE_INT, frozenset()),
    **dict.fromkeys(("tt.warp_id", "tt.advance", "tt.load", "tt.store", "tt.splat", "tt.convert", "tt.broadcast",
                     "tt.glue", "tt.alloc", "tt.barrier", "tt.return", "scf.for", "scf.yield", "scf.if"), frozenset()),
    "tt.get_program_id": frozenset({"axis"}),
    "tt.make_tensor_ptr": frozenset({"order"}),
    "tt.dot": frozenset({"tiling"}),
    "tt.reduce": frozenset({"kind", "axis"}),
    "tt.cross_warp_reduce": frozenset({"kind", "dst_warps"}),
    "arith.constant": frozenset({"value"}),
    "tt.expand_dims": frozenset({"axis"}),
    "tt.extract": frozenset({"index"}),
    "arith.cmpi": frozenset({"pred"}),
}


def _verify_op(fn: KernelFn, op: Operation, err: Callable[..., None]) -> None:
    k = op.kind
    n_in, n_out = len(op.operands), len(op.results)
    if k in _OP_ATTRS and not _OP_ATTRS[k].issuperset(op.attrs):
        unknown = min(set(op.attrs) - _OP_ATTRS[k])
        err(f"{k}: unknown attribute {unknown}; expected {', '.join(sorted(_OP_ATTRS[k])) or 'none'}", op)

    def tensor_result() -> TensorType | None:
        if n_out != 1 or not isinstance(op.results[0].type, TensorType):
            err(f"{k}: expected one tensor result", op)
            return None
        return op.results[0].type

    if k in WARP_ONLY_OPS and fn.level == "workgroup":
        err(f"{k} is only valid in warp-level functions or pass output", op)

    if k == "tt.get_program_id":
        axis = op.attrs.get("axis")
        if type(axis) is not int or axis not in (0, 1, 2):
            err(f"{k}: axis must be 0, 1, or 2", op)
        if n_in != 0 or n_out != 1 or not _is_scalar(op.results[0].type, ElemType.i32):
            err(f"{k}: signature is () -> i32", op)
    elif k == "tt.warp_id":
        if n_in != 0 or n_out != 1 or not _is_scalar(op.results[0].type, ElemType.i32):
            err(f"{k}: signature is () -> i32", op)
    elif k == "tt.make_tensor_ptr":
        if n_out != 1 or not _is_block_ptr(op.results[0].type):
            err(f"{k}: result must be a block pointer", op)
            return
        pt: TensorType = op.results[0].type.pointee
        r = pt.rank
        if r not in (1, 2):
            err(f"{k}: block rank must be 1 or 2, got {r}", op)
        if n_in != 1 + 3 * r:
            err(f"{k}: expected base + {3 * r} i32 operands for rank {r}, got {n_in}", op)
            return
        base = op.operands[0].type
        if not isinstance(base, PtrType) or base.is_block:
            err(f"{k}: base must be a buffer pointer", op)
        elif base.pointee != pt.elem:
            err(f"{k}: base element {base.pointee.value} != block element {pt.elem.value}", op)
        for v in op.operands[1:]:
            if not _is_scalar(v.type, ElemType.i32):
                err(f"{k}: shape/stride/offset operands must be i32 scalars", op)
        order = op.attrs.get("order")
        if not isinstance(order, list) or any(type(d) is not int for d in order) or sorted(order) != list(range(r)):
            err(f"{k}: order must be a permutation of 0..{r - 1}", op)
    elif k == "tt.advance":
        if n_in < 1 or not _is_block_ptr(op.operands[0].type):
            err(f"{k}: first operand must be a block pointer", op)
            return
        r = op.operands[0].type.pointee.rank
        if n_in != 1 + r:
            err(f"{k}: expected {r} delta operands", op)
        for v in op.operands[1:]:
            if not _is_scalar(v.type, ElemType.i32):
                err(f"{k}: deltas must be i32 scalars", op)
        if n_out != 1 or not same_block(op.results[0].type, op.operands[0].type):
            err(f"{k}: result type must equal pointer type (block shape is immutable)", op)
    elif k == "tt.load":
        if n_in != 1 or not _is_block_ptr(op.operands[0].type):
            err(f"{k}: operand must be a block pointer", op)
            return
        if n_out != 1 or not same_block(op.results[0].type, op.operands[0].type.pointee):
            err(f"{k}: result type must equal the pointee block type", op)
    elif k == "tt.store":
        if n_in != 2 or not _is_block_ptr(op.operands[0].type):
            err(f"{k}: operands are (block pointer, value)", op)
            return
        if not same_block(op.operands[1].type, op.operands[0].type.pointee):
            err(f"{k}: stored value type must equal the pointee block type", op)
        if n_out != 0:
            err(f"{k}: has no results", op)
    elif k == "tt.dot":
        if n_in != 3:
            err(f"{k}: expected (a, b, c) operands", op)
            return
        ta, tb, tc = (v.type for v in op.operands)
        ok = all(isinstance(t, TensorType) and t.rank == 2 for t in (ta, tb, tc))
        if not ok:
            err(f"{k}: operands must be rank-2 tensors", op)
            return
        m, ka = ta.shape
        kb, n = tb.shape
        if ka != kb:
            err(f"{k}: contraction dims disagree: a is {m}x{ka}, b is {kb}x{n}", op)
        if tc.shape != (m, n):
            err(f"{k}: accumulator shape {tc.shape} != ({m}, {n})", op)
        if ta.elem != tb.elem or ta.elem not in (ElemType.f16, ElemType.f32):
            err(f"{k}: a/b must share a float element type", op)
        if tc.elem != ElemType.f32:
            err(f"{k}: accumulates in f32, got accumulator {tc.elem.value}", op)
        if n_out != 1 or not same_block(op.results[0].type, tc):
            err(f"{k}: result type must equal the accumulator type", op)
        tiling = op.attrs.get("tiling")
        if tiling is not None and tiling not in tuple(TilingHint):
            err(f"{k}: unknown tiling hint {tiling!r}", op)
    elif k in ("tt.reduce", "tt.cross_warp_reduce"):
        if n_in != 1 or not isinstance(op.operands[0].type, TensorType):
            err(f"{k}: operand must be a tensor", op)
            return
        src: TensorType = op.operands[0].type
        if op.attrs.get("kind") not in ("max", "sum"):
            err(f"{k}: kind must be 'max' or 'sum'", op)
        if k == "tt.cross_warp_reduce":
            if n_out != 1 or not same_block(op.results[0].type, src):
                err(f"{k}: result type must equal the operand type", op)
            dst = op.attrs.get("dst_warps")
            if dst is not None and (not isinstance(dst, list) or not dst or any(
                type(w) is not int or w < 0 or w >= fn.num_warps for w in dst
            )):
                err(f"{k}: dst_warps must list warp ids below num_warps={fn.num_warps}", op)
            return
        axis = op.attrs.get("axis")
        if type(axis) is not int or not (0 <= axis < src.rank):
            err(f"{k}: axis must name a dim of rank-{src.rank} operand", op)
            return
        want = src.shape[:axis] + src.shape[axis + 1 :]
        res = tensor_result()
        if res is not None and (res.shape != want or res.elem != src.elem):
            err(f"{k}: result must be {want} of {src.elem.value}", op)
    elif k == "tt.splat":
        if n_in != 1 or not _is_scalar(op.operands[0].type):
            err(f"{k}: operand must be a scalar", op)
            return
        res = tensor_result()
        if res is not None and (res.rank == 0 or res.elem != op.operands[0].type.elem):
            err(f"{k}: result must be a tensor of the operand element type", op)
    elif k == "arith.constant":
        v = op.attrs.get("value")
        res = tensor_result()
        if res is None or res.rank != 0:
            err(f"{k}: result must be a scalar", op)
            return
        if res.elem.is_float and not isinstance(v, float):
            err(f"{k}: float constant needs a float value attr", op)
        elif res.elem.is_float and not math.isfinite(v):  # the text form spells finite floats only
            err(f"{k}: float constant must be finite, got {v}", op)
        # an i1 constant takes an int or a bool, an i32 constant an int only
        if not res.elem.is_float and not (isinstance(v, int) if res.elem == ElemType.i1 else type(v) is int):
            err(f"{k}: integer constant needs an int value attr", op)
    elif k == "tt.convert":
        if n_in != 1 or not isinstance(op.operands[0].type, TensorType):
            err(f"{k}: operand must be a tensor", op)
            return
        src = op.operands[0].type
        res = tensor_result()
        if res is None:
            return
        if res.shape != src.shape or not (res.elem.is_float and src.elem.is_float):
            err(f"{k}: float element cast only; shape must be preserved", op)
    elif k == "tt.expand_dims":
        if n_in != 1 or not isinstance(op.operands[0].type, TensorType):
            err(f"{k}: operand must be a tensor", op)
            return
        src = op.operands[0].type
        axis = op.attrs.get("axis")
        if type(axis) is not int or not (0 <= axis <= src.rank):
            err(f"{k}: axis out of range", op)
            return
        res = tensor_result()
        want = src.shape[:axis] + (1,) + src.shape[axis:]
        if res is not None and (res.shape != want or res.elem != src.elem):
            err(f"{k}: result must be {want} of {src.elem.value}", op)
    elif k == "tt.broadcast":
        if n_in != 1 or not isinstance(op.operands[0].type, TensorType):
            err(f"{k}: operand must be a tensor", op)
            return
        src = op.operands[0].type
        res = tensor_result()
        if res is None:
            return
        if res.rank != src.rank or res.elem != src.elem or any(
            s != d and s != 1 for s, d in zip(src.shape, res.shape)
        ):
            err(f"{k}: source dims must be 1 or match result {res.shape}", op)
    elif k == "tt.extract":
        if n_in != 1:
            err(f"{k}: expected one operand", op)
            return
        src_t, res_t = op.operands[0].type, op.results[0].type if n_out == 1 else None
        if res_t is None:
            err(f"{k}: expected one result", op)
            return
        if isinstance(src_t, PtrType) != isinstance(res_t, PtrType):
            err(f"{k}: pointer-ness of source and result must agree", op)
            return
        src, res = tile_type(src_t), tile_type(res_t)
        if not isinstance(src, TensorType) or not isinstance(res, TensorType):
            err(f"{k}: block-typed source required", op)
            return
        if src.elem != res.elem or src.rank != res.rank or src.rank == 0:
            err(f"{k}: source/result element and rank must match", op)
            return
        if any(s % r != 0 for s, r in zip(src.shape, res.shape)):
            err(f"{k}: result shape {res.shape} must divide source shape {src.shape}", op)
            return
        idx = op.attrs.get("index")
        if type(idx) is not int or block_origin(src.shape, res.shape, idx) is None:
            grid = tuple(s // r for s, r in zip(src.shape, res.shape))
            err(f"{k}: index must lie in [0, {math.prod(grid)}) for sub-block grid {grid}", op)
    elif k == "tt.glue":
        if n_in == 0 or n_out != 1:
            err(f"{k}: expected operands and one result", op)
            return
        t0 = op.operands[0].type
        if not isinstance(t0, TensorType) or t0.rank == 0:
            err(f"{k}: operands must be ranked tensors", op)
            return
        if any(not same_block(v.type, t0) for v in op.operands):
            err(f"{k}: all pieces must share one type", op)
            return
        res = op.results[0].type
        if not isinstance(res, TensorType) or res.elem != t0.elem or res.rank != t0.rank:
            err(f"{k}: result element/rank must match pieces", op)
            return
        if any(r % p != 0 for r, p in zip(res.shape, t0.shape)):
            err(f"{k}: piece shape {t0.shape} must divide result shape {res.shape}", op)
            return
        grid = tuple(r // p for r, p in zip(res.shape, t0.shape))
        if math.prod(grid) != n_in:
            err(f"{k}: grid {grid} needs {math.prod(grid)} pieces, got {n_in}", op)
    elif k == "tt.alloc":
        if n_in != 0 or n_out != 1 or not _is_block_ptr(op.results[0].type):
            err(f"{k}: signature is () -> block pointer", op)
    elif k == "tt.barrier":
        if n_in != 0 or n_out != 0:
            err(f"{k}: takes nothing, returns nothing", op)
    elif k == "tt.return":
        if n_in != 0 or n_out != 0:
            err(f"{k}: kernels return nothing", op)
    elif k in ELEMENTWISE_FLOAT:
        arity = 1 if k == "math.exp" else 2
        if n_in != arity or n_out != 1:
            err(f"{k}: expected {arity} operands and one result", op)
            return
        t0 = op.operands[0].type
        if not isinstance(t0, TensorType) or not t0.elem.is_float:
            err(f"{k}: operands must be float tensors", op)
            return
        if any(not same_block(v.type, t0) for v in op.operands) or not same_block(op.results[0].type, t0):
            err(f"{k}: all operands and the result must share one shape and element", op)
    elif k in ELEMENTWISE_INT:
        if n_in != 2 or n_out != 1:
            err(f"{k}: expected 2 operands and one result", op)
            return
        t0 = op.operands[0].type
        if not isinstance(t0, TensorType) or t0.elem != ElemType.i32:
            err(f"{k}: i32 operands required", op)
            return
        if not same_block(op.operands[1].type, t0) or not same_block(op.results[0].type, t0):
            err(f"{k}: all operands and the result must share one shape and element", op)
    elif k == "arith.cmpi":
        if op.attrs.get("pred") not in CMP_PREDS:
            err(f"{k}: pred must be one of {CMP_PREDS}", op)
        if (
            n_in != 2
            or not _is_scalar(op.operands[0].type, ElemType.i32)
            or not _is_scalar(op.operands[1].type, ElemType.i32)
            or n_out != 1
            or not _is_scalar(op.results[0].type, ElemType.i1)
        ):
            err(f"{k}: signature is (i32, i32) -> i1", op)
    elif k == "scf.for":
        if n_in < 3:
            err(f"{k}: expected lb, ub, step operands", op)
            return
        for v in op.operands[:3]:
            if not _is_scalar(v.type, ElemType.i32):
                err(f"{k}: bounds must be i32 scalars", op)
        inits = op.operands[3:]
        if len(op.regions) != 1:
            err(f"{k}: expected one body region", op)
            return
        body = op.regions[0]
        if len(body.args) != 1 + len(inits):
            err(f"{k}: body must take the induction var plus {len(inits)} iter args", op)
            return
        if not _is_scalar(body.args[0].type, ElemType.i32):
            err(f"{k}: induction variable must be i32", op)
        from .textio import _type_desc  # textio imports ir

        for i, (init, arg) in enumerate(zip(inits, body.args[1:])):
            if not same_block(init.type, arg.type):
                err(f"{k}: iter arg type {_type_desc(arg.type)} != init type {_type_desc(init.type)}", op)
            elif isinstance(init.type, PtrType) and not init.type.is_block:
                err(f"{k}: iter arg {i} carries buffer pointer {_type_desc(init.type)}; a loop carries tiles, "
                    "scalars and block pointers", op)
        if n_out != len(inits) or any(not same_block(r.type, i.type) for r, i in zip(op.results, inits)):
            err(f"{k}: results must mirror the iter args", op)
        if not body.ops or body.ops[-1].kind != "scf.yield":
            err(f"{k}: body must end in scf.yield", op)
        else:
            y = body.ops[-1]
            if len(y.operands) != len(inits) or any(
                not same_block(a.type, b.type) for a, b in zip(y.operands, inits)
            ):
                err("scf.yield operands must match the loop's iter args", y)
    elif k == "scf.yield":
        pass  # checked against the enclosing loop
    elif k == "scf.if":
        if n_in != 1 or not _is_scalar(op.operands[0].type, ElemType.i1):
            err(f"{k}: condition must be an i1 scalar", op)
        if n_out != 0:
            err(f"{k}: results not supported", op)
        if len(op.regions) != 1:
            err(f"{k}: expected one body region", op)
        elif op.regions[0].args:
            err(f"{k}: body takes no arguments", op)
    else:
        err(f"unknown op kind {k!r}", op)


# --------------------------------------------------------------------------
# structural equality

def fn_equal(f1: KernelFn, f2: KernelFn) -> bool:
    if (f1.name, f1.num_warps, f1.level) != (f2.name, f2.num_warps, f2.level):
        return False
    if len(f1.args) != len(f2.args):
        return False
    if any(a.name != b.name or a.type != b.type for a, b in zip(f1.args, f2.args)):
        return False
    vmap: dict[int, int] = {id(a): id(b) for a, b in zip(f1.args, f2.args)}
    return _region_equal(f1.body, f2.body, vmap)


def _region_equal(r1: Region, r2: Region, vmap: dict[int, int]) -> bool:
    if len(r1.ops) != len(r2.ops):
        return False
    for o1, o2 in zip(r1.ops, r2.ops):
        if o1.kind != o2.kind or o1.attrs != o2.attrs:
            return False
        if len(o1.operands) != len(o2.operands) or len(o1.results) != len(o2.results):
            return False
        for a, b in zip(o1.operands, o2.operands):
            if a.type != b.type or vmap.get(id(a)) != id(b):
                return False
        for a, b in zip(o1.results, o2.results):
            if a.type != b.type:
                return False
            vmap[id(a)] = id(b)
        if len(o1.regions) != len(o2.regions):
            return False
        for s1, s2 in zip(o1.regions, o2.regions):
            if len(s1.args) != len(s2.args):
                return False
            for a, b in zip(s1.args, s2.args):
                if a.type != b.type:
                    return False
                vmap[id(a)] = id(b)
            if not _region_equal(s1, s2, vmap):
                return False
    return True


def module_equal(m1: KernelModule, m2: KernelModule) -> bool:
    """Alpha-equivalence: same structure, types, and attrs; value names ignored
    (function names and argument names are semantic and must match)."""
    if len(m1.functions) != len(m2.functions):
        return False
    return all(fn_equal(a, b) for a, b in zip(m1.functions, m2.functions))


# --------------------------------------------------------------------------
# builder

class FunctionBuilder:
    """Imperative construction helper; keeps an insertion-region stack."""

    def __init__(self, name: str, args: Sequence[tuple[str, Type]], num_warps: int = 1, level: str = "workgroup"):
        self.fn = KernelFn(name, args, num_warps=num_warps, level=level)
        self._stack: list[Region] = [self.fn.body]
        self._loops: list[Operation] = []

    # generic -----------------------------------------------------------
    def op(self, kind: str, operands: Sequence[Value] = (), attrs: dict[str, Any] | None = None,
           result_types: Sequence[Type] = (), regions: Sequence[Region] = ()) -> Operation:
        o = Operation(kind, operands, attrs, result_types, regions)
        self._stack[-1].ops.append(o)
        return o

    def _one(self, *a, **kw) -> Value:
        return self.op(*a, **kw).result

    # leaf ops ------------------------------------------------------------
    def constant(self, value: int | float, elem: ElemType = None) -> Value:  # type: ignore[assignment]
        if elem is None:
            elem = ElemType.f32 if isinstance(value, float) else ElemType.i32
        if elem.is_float:
            value = float(value)
        return self._one("arith.constant", (), {"value": value}, [scalar(elem)])

    def program_id(self, axis: int) -> Value:
        return self._one("tt.get_program_id", (), {"axis": axis}, [I32])

    def warp_id(self) -> Value:
        return self._one("tt.warp_id", (), {}, [I32])

    def make_tensor_ptr(self, base: Value, global_shape: Sequence[Value], strides: Sequence[Value],
                        offsets: Sequence[Value], block_shape: Sequence[int], order: Sequence[int]) -> Value:
        pt = TensorType(tuple(block_shape), base.type.pointee)
        ops = [base, *global_shape, *strides, *offsets]
        return self._one("tt.make_tensor_ptr", ops, {"order": list(order)}, [PtrType(pt)])

    def advance(self, ptr: Value, deltas: Sequence[Value]) -> Value:
        return self._one("tt.advance", [ptr, *deltas], {}, [ptr.type])

    def load(self, ptr: Value) -> Value:
        return self._one("tt.load", [ptr], {}, [ptr.type.pointee])

    def store(self, ptr: Value, value: Value) -> None:
        self.op("tt.store", [ptr, value])

    def dot(self, a: Value, b: Value, c: Value, tiling: str | None = None) -> Value:
        attrs = {"tiling": tiling} if tiling else {}
        return self._one("tt.dot", [a, b, c], attrs, [c.type])

    def reduce(self, src: Value, kind: str, axis: int) -> Value:
        t: TensorType = src.type
        rt = TensorType(t.shape[:axis] + t.shape[axis + 1 :], t.elem)
        return self._one("tt.reduce", [src], {"kind": kind, "axis": axis}, [rt])

    def cross_warp_reduce(self, src: Value, kind: str, dst_warps: Sequence[int] | None = None) -> Value:
        attrs: dict[str, Any] = {"kind": kind}
        if dst_warps is not None:
            attrs["dst_warps"] = list(dst_warps)
        return self._one("tt.cross_warp_reduce", [src], attrs, [src.type])

    def splat(self, v: Value, shape: Sequence[int], encoding: Any = None) -> Value:
        return self._one("tt.splat", [v], {}, [TensorType(tuple(shape), v.type.elem, encoding)])

    def convert(self, v: Value, elem: ElemType) -> Value:
        t: TensorType = v.type
        return self._one("tt.convert", [v], {}, [TensorType(t.shape, elem, t.encoding)])

    def expand_dims(self, v: Value, axis: int) -> Value:
        t: TensorType = v.type
        rt = TensorType(t.shape[:axis] + (1,) + t.shape[axis:], t.elem)
        return self._one("tt.expand_dims", [v], {"axis": axis}, [rt])

    def broadcast(self, v: Value, shape: Sequence[int]) -> Value:
        t: TensorType = v.type
        return self._one("tt.broadcast", [v], {}, [TensorType(tuple(shape), t.elem, t.encoding)])

    def binary(self, kind: str, a: Value, b: Value) -> Value:
        return self._one(kind, [a, b], {}, [a.type])

    def exp(self, a: Value) -> Value:
        return self._one("math.exp", [a], {}, [a.type])

    def cmpi(self, pred: str, a: Value, b: Value) -> Value:
        return self._one("arith.cmpi", [a, b], {"pred": pred}, [I1])

    def extract(self, src: Value, index: int, block: Sequence[int]) -> Value:
        rt = retile(src.type, block, tile_type(src.type).encoding)
        return self._one("tt.extract", [src], {"index": index}, [rt])

    def glue(self, pieces: Sequence[Value], shape: Sequence[int]) -> Value:
        t: TensorType = pieces[0].type
        return self._one("tt.glue", list(pieces), {}, [TensorType(tuple(shape), t.elem, t.encoding)])

    def alloc(self, shape: Sequence[int], elem: ElemType) -> Value:
        return self._one("tt.alloc", (), {}, [PtrType(TensorType(tuple(shape), elem))])

    def barrier(self) -> None:
        self.op("tt.barrier")

    def ret(self) -> None:
        self.op("tt.return")

    # control flow --------------------------------------------------------
    def begin_for(self, lb: Value, ub: Value, step: Value, inits: Sequence[Value]) -> tuple[Value, list[Value]]:
        body = Region([Value(I32)] + [Value(v.type) for v in inits])
        self._loops.append(self.op("scf.for", [lb, ub, step, *inits], {}, [v.type for v in inits], [body]))
        self._stack.append(body)
        return body.args[0], body.args[1:]

    def end_for(self, yields: Sequence[Value]) -> list[Value]:
        self.op("scf.yield", list(yields))
        self._stack.pop()
        return self._loops.pop().results

    def begin_if(self, cond: Value) -> None:
        body = Region()
        self.op("scf.if", [cond], {}, [], [body])
        self._stack.append(body)

    def end_if(self) -> None:
        self._stack.pop()

    def build(self) -> KernelFn:
        assert len(self._stack) == 1, "unclosed region"
        return self.fn
