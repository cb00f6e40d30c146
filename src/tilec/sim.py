"""Deterministic virtual GPU.

Executes kernels at any pipeline level: workgroup-level IR runs as one
logical context per workgroup, warp- and intrinsic-level IR (and lowered
VPrograms) run one context per warp.

Each run first decodes the program into one step form.  An IR op decodes to
a step of its own kind; a vISA instruction decodes to the IR kind whose
semantics it has by reading the lowering table ``visa.LOWERING`` backwards,
on its opcode and sub-op, and keeps its own name for diagnostics.  One
executor then runs the steps: it handles loops, branches, return, barriers
and cross-warp reductions itself and calls, for every other kind, the
function of one semantics table, so an op and the instruction it lowers to
run the same code.  Decoding works out everything that needs no runtime
value: each step's semantics function, and the slices an extract reads or a glue writes,
from the operand's static shape (its IR type, or the shape of the
instruction that defined the vISA register).  Once per run, each distinct
(block shape, strides) pair gets a grid of flat offsets, so a load or store
adds its base offset to the grid and bounds-checks the grid's extremes.

Warps execute serially in ascending
warp-id order between synchronization points; barriers and cross-warp
reductions are the only places control transfers between warps, which makes
every run bit-reproducible and independent of workgroup scheduling order.

Tile data lives in numpy arrays: f16 tiles are stored as f32 values rounded
to f16 precision after every producing operation, f32 as f32, i32/i1 as
int32/bool.  Tiles are never written in place, so an extract is a view of
its operand; only device and SLM buffers, and a glue's fresh result, are
written.  Block pointers address flat buffers through explicit strides,
and every access is bounds-checked.
"""

from __future__ import annotations

import struct
from dataclasses import InitVar, dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from .ir import (
    BlockPointer,
    ElemType,
    KernelFn,
    Operation,
    PtrType,
    tile_type,
)
from .textio import _type_desc
from .visa import CROSS_WARP_REDUCE, LOWERING, TargetConfig, VInstr, VProgram


class SimError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# tiles and memory


def _coerce(elem: ElemType, data: Any) -> np.ndarray:
    arr = np.asarray(data)
    if elem == ElemType.f16:
        return arr.astype(np.float16).astype(np.float32)
    if elem == ElemType.f32:
        return arr.astype(np.float32)
    if elem == ElemType.i32:
        return arr.astype(np.int32)
    return arr.astype(np.bool_)


@dataclass
class TileValue:
    elem: ElemType
    data: np.ndarray

    @staticmethod
    def make(elem: ElemType, data: Any) -> "TileValue":
        return TileValue(elem, _coerce(elem, data))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> Any:
        v = self.data.item()
        return int(v) if self.elem == ElemType.i32 else v


class DeviceMemory:
    """Named flat buffers plus the tensor shapes they were bound with."""

    def __init__(self) -> None:
        self._bufs: dict[str, tuple[ElemType, np.ndarray]] = {}
        self.shapes: dict[str, tuple[int, ...]] = {}

    def names(self) -> list[str]:
        return list(self._bufs)

    def set_tensor(self, name: str, data: Any, elem: ElemType) -> None:
        arr = _coerce(elem, data)
        self.shapes[name] = arr.shape
        self._bufs[name] = (elem, arr.reshape(-1).copy())

    def tensor(self, name: str) -> np.ndarray:
        elem, flat = self._bufs[name]
        return flat.reshape(self.shapes[name]).copy()

    def elem_of(self, name: str) -> ElemType:
        return self._bufs[name][0]

    def raw(self, name: str) -> np.ndarray:
        return self._bufs[name][1]

    def __contains__(self, name: str) -> bool:
        return name in self._bufs

    def copy(self) -> "DeviceMemory":
        m = DeviceMemory()
        m.shapes = dict(self.shapes)
        m._bufs = {k: (e, a.copy()) for k, (e, a) in self._bufs.items()}
        return m

    def equal_bits(self, other: "DeviceMemory") -> bool:
        if set(self._bufs) != set(other._bufs):
            return False
        for k, (e, a) in self._bufs.items():
            eo, b = other._bufs[k]
            if e != eo or a.dtype != b.dtype or not np.array_equal(a, b):
                return False
        return True


# --------------------------------------------------------------------------
# binary tensor format

_MAGIC = b"TTNS"
_TAGS = {ElemType.f16: 0, ElemType.f32: 1, ElemType.i32: 2, ElemType.i1: 3}
_TAG_ELEM = {v: k for k, v in _TAGS.items()}
_DISK_DTYPE = {ElemType.f16: "<f2", ElemType.f32: "<f4", ElemType.i32: "<i4", ElemType.i1: "u1"}


def dump_tensor(path: str, data: Any, elem: ElemType) -> None:
    """Little-endian file: magic, version, elem tag, rank, dims, payload."""
    arr = _coerce(elem, data)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<BBBB", 1, _TAGS[elem], arr.ndim, 0))
        f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        f.write(np.ascontiguousarray(arr).astype(_DISK_DTYPE[elem]).tobytes())


def load_tensor(path: str) -> tuple[np.ndarray, ElemType]:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _MAGIC or len(blob) < 8:
        raise ValueError(f"{path}: not a tensor file")
    version, tag, rank, _ = struct.unpack("<BBBB", blob[4:8])
    if version != 1 or tag not in _TAG_ELEM:
        raise ValueError(f"{path}: unsupported version/elem tag {version}/{tag}")
    elem = _TAG_ELEM[tag]
    if len(blob) < 8 + 4 * rank:
        raise ValueError(f"{path}: header truncated: rank {rank} needs {4 * rank} bytes of dims")
    dims = struct.unpack(f"<{rank}I", blob[8 : 8 + 4 * rank])
    payload = np.frombuffer(blob[8 + 4 * rank :], dtype=_DISK_DTYPE[elem])
    n = int(np.prod(dims)) if rank else 1
    if payload.size != n:
        raise ValueError(f"{path}: payload holds {payload.size} elements, header says {n}")
    return _coerce(elem, payload.reshape(dims)), elem


# --------------------------------------------------------------------------
# launch plumbing


@dataclass(frozen=True)
class LaunchConfig:
    grid: tuple[int, int, int] = (1, 1, 1)
    num_warps: int | None = None  # sanity-checked against the program's value
    target: TargetConfig | None = None  # supplies the SLM budget when set
    wg_order: tuple[int, ...] | None = None  # workgroup scheduling permutation

    def __post_init__(self) -> None:
        if len(self.grid) != 3 or any(g < 1 for g in self.grid):
            raise ValueError(f"grid must be three positive dims, got {self.grid}")

    @property
    def slm_budget(self) -> int:
        return self.target.slm_bytes if self.target else 131072


@dataclass(frozen=True)
class TraceAccess:
    wg: int
    warp: int
    base: str
    offsets: tuple[int, ...]
    block: tuple[int, ...]


@dataclass(frozen=True)
class CrossRecord:
    wg: int
    kind: str
    dst: tuple[int, ...] | None
    inputs: tuple[np.ndarray, ...]
    delivered: tuple[np.ndarray, ...]


@dataclass
class RunTrace:
    loads: list[TraceAccess] = field(default_factory=list)
    stores: list[TraceAccess] = field(default_factory=list)
    cross: list[CrossRecord] = field(default_factory=list)


class _Workgroup:
    """Per-workgroup state: the SLM allocations shared by all warps."""

    def __init__(self, alloc_sites: list[tuple[int, tuple[int, ...], ElemType]], budget: int, where: str):
        self.slm: dict[str, tuple[ElemType, np.ndarray]] = {}
        self._names: dict[int, str] = {}
        used = 0
        for i, (key, shape, elem) in enumerate(alloc_sites):
            n = 1
            for d in shape:
                n *= d
            used += n * elem.nbytes
            if used > budget:
                raise SimError(f"SLM overflow: {used} bytes exceeds budget {budget} ({where})")
            name = f"%slm{i}"
            self._names[key] = name
            self.slm[name] = (elem, _coerce(elem, np.zeros(n)))

    def handle(self, key: int) -> str:
        return self._names[key]


@dataclass
class _Ctx:
    mem: DeviceMemory
    wg: _Workgroup
    pid: tuple[int, int, int]
    warp: int
    wg_index: int
    trace: RunTrace | None
    fn_name: str
    grids: dict[tuple, tuple[np.ndarray, int, int]]  # _relative_grid by (block_shape, strides), for one run()

    def where(self, what: str) -> str:
        return f"@{self.fn_name} wg={self.wg_index} pid={self.pid} warp={self.warp} {what}"


# --------------------------------------------------------------------------
# block pointer access


def _resolve_base(ctx: _Ctx, base: Any, what: str) -> tuple[ElemType, np.ndarray]:
    if isinstance(base, str):
        if base in ctx.wg.slm:
            return ctx.wg.slm[base]
        if base in ctx.mem:
            return ctx.mem.elem_of(base), ctx.mem.raw(base)
    raise SimError(f"unknown buffer {base!r} ({ctx.where(what)})")


def _relative_grid(block: tuple[int, ...], strides: tuple[int, ...]) -> tuple[np.ndarray, int, int]:
    """Flat offsets of a block's elements from its first one, and their min and max."""
    rel = np.zeros(block, dtype=np.int64)
    for d, (b, st) in enumerate(zip(block, strides)):
        shape = [1] * len(block)
        shape[d] = b
        rel = rel + (np.arange(b, dtype=np.int64) * st).reshape(shape)
    return (rel, int(rel.min()), int(rel.max())) if rel.size else (rel, 0, 0)


def _indices(ctx: _Ctx, bp: BlockPointer, buf_len: int, what: str) -> np.ndarray:
    """The flat buffer indices of the block, once its window and reach are checked."""
    for d, (o, b, g) in enumerate(zip(bp.offsets, bp.block_shape, bp.global_shape)):
        if o < 0 or o + b > g:
            raise SimError(
                f"out-of-bounds block access: dim {d} window [{o}, {o + b}) outside [0, {g}) ({ctx.where(what)})"
            )
    key = (bp.block_shape, bp.strides)
    if key not in ctx.grids:
        ctx.grids[key] = _relative_grid(*key)
    rel, lo, hi = ctx.grids[key]
    base = sum(o * st for o, st in zip(bp.offsets, bp.strides))
    if rel.size and (base + lo < 0 or base + hi >= buf_len):
        raise SimError(f"out-of-bounds block access: flat index beyond buffer of {buf_len} ({ctx.where(what)})")
    return rel + base


# buffers hold coerced values and tiles are never written in place, so a
# load copies out of its buffer (fancy indexing never returns a view) without
# coercing again, and a store writes the tile's values as they are
def _do_load(ctx: _Ctx, bp: BlockPointer, elem: ElemType, what: str) -> TileValue:
    base_elem, buf = _resolve_base(ctx, bp.base, what)
    if base_elem != elem:
        raise SimError(f"buffer {bp.base!r} holds {base_elem.value}, access expects {elem.value} ({ctx.where(what)})")
    idx = _indices(ctx, bp, buf.size, what)
    if ctx.trace is not None:
        ctx.trace.loads.append(TraceAccess(ctx.wg_index, ctx.warp, str(bp.base), bp.offsets, bp.block_shape))
    return TileValue(elem, buf[idx])


def _do_store(ctx: _Ctx, bp: BlockPointer, value: TileValue, what: str) -> None:
    base_elem, buf = _resolve_base(ctx, bp.base, what)
    if base_elem != value.elem:
        raise SimError(f"buffer {bp.base!r} holds {base_elem.value}, store provides {value.elem.value} ({ctx.where(what)})")
    if value.shape != bp.block_shape:
        raise SimError(f"store value shape {value.shape} != block shape {bp.block_shape} ({ctx.where(what)})")
    buf[_indices(ctx, bp, buf.size, what)] = value.data
    if ctx.trace is not None:
        ctx.trace.stores.append(TraceAccess(ctx.wg_index, ctx.warp, str(bp.base), bp.offsets, bp.block_shape))


# --------------------------------------------------------------------------
# shared op math

_BIN_F = {
    "arith.addf": np.add,
    "arith.subf": np.subtract,
    "arith.mulf": np.multiply,
    "arith.divf": np.divide,
    "arith.maximumf": np.maximum,
}
_BIN_I = {
    "arith.addi": np.add,
    "arith.subi": np.subtract,
    "arith.muli": np.multiply,
    "arith.divi": np.floor_divide,
    "arith.remi": np.remainder,
}
_CMP = {
    "eq": np.equal,
    "ne": np.not_equal,
    "slt": np.less,
    "sle": np.less_equal,
    "sgt": np.greater,
    "sge": np.greater_equal,
}


def _piece(whole: tuple[int, ...], piece: tuple[int, ...], index: int) -> tuple[slice, ...]:
    """The slices of `whole` that hold piece `index`, pieces numbered row-major."""
    coord = np.unravel_index(index, tuple(w // p for w, p in zip(whole, piece)))
    return tuple(slice(int(c) * p, (int(c) + 1) * p) for c, p in zip(coord, piece))


def _reduce(kind: str, data: np.ndarray, axis: int) -> np.ndarray:
    return np.max(data, axis=axis) if kind == "max" else np.sum(data, axis=axis)


# --------------------------------------------------------------------------
# step form: what both program forms decode to

_CROSS = CROSS_WARP_REDUCE  # the one step kind that is not an IR op kind


@dataclass(slots=True)
class _Step:
    kind: str  # IR op kind whose semantics the step has, or _CROSS
    name: str  # the op as the program spells it, for diagnostics
    operands: tuple  # env keys: value ids in IR, register names in vISA
    results: tuple
    attrs: dict[str, Any]
    shape: tuple[int, ...]  # the result's (pointee) block shape
    elem: ElemType | None
    is_ptr: bool
    key: int  # id of the source op or instruction: sync points, SLM sites
    body: list[_Step] | None
    src: InitVar[tuple[int, ...] | None]  # static shape of an extract's or glue's first operand
    # computed once at decode, from the fields above:
    sem: Callable[[_Step, _Ctx, list], Any] | None = field(init=False)  # None: the executor's own kinds
    # an extract's slices of its operand (for a pointer, their starts offset
    # the block); a glue's slices of its result, one per piece
    slices: tuple = field(init=False)

    def __post_init__(self, src: tuple[int, ...] | None) -> None:
        self.sem = _SEMANTICS.get(self.kind)
        self.slices = ()
        if self.kind == "tt.extract":
            self.slices = _piece(src, self.shape, self.attrs["index"])
        elif self.kind == "tt.glue":
            self.slices = tuple(_piece(self.shape, src, i) for i in range(len(self.operands)))


def _decode_op(op: Operation) -> _Step:
    kind = _CROSS if op.kind == "tt.reduce" and op.attrs.get("cross_warp", False) else op.kind
    attrs, body = op.attrs, None
    if op.regions:
        region = op.regions[0]
        body = [_decode_op(o) for o in region.ops]
        if region.args:  # scf.for: the induction variable, then the carries
            attrs = {"iv": id(region.args[0]), "iters": [id(a) for a in region.args[1:]]}
    rt = op.results[0].type if op.results else None
    tile = tile_type(rt) if rt is not None else None
    src = tile_type(op.operands[0].type).shape if kind in ("tt.extract", "tt.glue") else None
    return _Step(
        kind, op.kind, tuple(id(v) for v in op.operands), tuple(id(r) for r in op.results), attrs,
        tile.shape if tile else (), tile.elem if tile else None, isinstance(rt, PtrType), id(op), body, src,
    )


# the lowering table read backwards: the IR kind of each vISA instruction,
# keyed on (opcode, sub-op), or on the opcode alone where the row leaves
# the sub-op empty
_VISA_KINDS: dict[Any, str] = {(r.opcode, r.op) if r.op else r.opcode: k for k, r in LOWERING.items()}
_PTR_KINDS = {k for k, r in LOWERING.items() if r.width == "addr"}


def _decode_vinstr(ins: VInstr, shapes: dict[str, tuple[int, ...]]) -> _Step:
    """Decode one instruction; `shapes` maps every register defined so far to
    its (pointee) block shape and gains the instruction's results."""
    name = ins.opcode.value + (f".{ins.op}" if ins.op else "")
    kind = _VISA_KINDS.get((ins.opcode, ins.op)) or _VISA_KINDS.get(ins.opcode)
    if kind is None:
        raise SimError(f"no semantics for vISA instruction {name!r}")
    attrs = ins.attrs
    if kind in ("tt.reduce", _CROSS):  # vISA spells the reduce kind as the sub-op
        attrs = {**attrs, "kind": ins.op}
    src = shapes[ins.operands[0]] if kind in ("tt.extract", "tt.glue") else None
    if kind == "scf.for":  # a carry and the loop's result are shaped like the init
        carried = [shapes.get(r) for r in ins.operands[3:]]
        shapes.update(zip(attrs["iters"], carried))
        shapes.update(zip(ins.results, carried))
    elif ins.results:
        shapes[ins.results[0]] = ins.shape
    body = None if ins.body is None else [_decode_vinstr(i, shapes) for i in ins.body]
    is_ptr = kind in _PTR_KINDS or ins.op == "ptr"
    return _Step(kind, name, ins.operands, ins.results, attrs, ins.shape, ins.elem, is_ptr, id(ins), body, src)


def _walk(steps: list[_Step]) -> Iterator[_Step]:
    for s in steps:
        yield s
        yield from _walk(s.body or [])


# --------------------------------------------------------------------------
# the executor and its semantics table


def _make_ptr(s: _Step, ctx: _Ctx, a: list) -> BlockPointer:
    r = len(s.shape)
    nums = [x.item() for x in a[1:]]
    return BlockPointer(
        base=a[0],
        global_shape=tuple(nums[:r]),
        strides=tuple(nums[r : 2 * r]),
        offsets=tuple(nums[2 * r :]),
        block_shape=s.shape,
        order=tuple(s.attrs["order"]),
    )


def _alloc(s: _Step, ctx: _Ctx, a: list) -> BlockPointer:
    r = len(s.shape)
    strides = tuple(int(np.prod(s.shape[d + 1 :], dtype=np.int64)) for d in range(r))
    order = tuple(range(r - 1, -1, -1))
    return BlockPointer(ctx.wg.handle(s.key), s.shape, strides, (0,) * r, s.shape, order)


def _extract(s: _Step, ctx: _Ctx, a: list) -> TileValue | BlockPointer:
    src = a[0]
    if s.is_ptr:
        offs = tuple(o + sl.start for o, sl in zip(src.offsets, s.slices))
        return BlockPointer(src.base, src.global_shape, src.strides, offs, s.shape, src.order)
    return TileValue(src.elem, src.data[s.slices])  # a view: tiles are never written in place


def _glue(s: _Step, ctx: _Ctx, a: list) -> TileValue:
    out = np.empty(s.shape, dtype=a[0].data.dtype)
    for sl, piece in zip(s.slices, a):
        out[sl] = piece.data
    return TileValue(a[0].elem, out)


def _dot(s: _Step, ctx: _Ctx, a: list) -> TileValue:
    # f16 and f32 tiles both hold float32 data, so this is an f32 matmul
    return TileValue(ElemType.f32, a[0].data @ a[1].data + a[2].data)


# every step kind but control flow, barriers and cross-warp reduces; each
# entry maps (step, context, operand values) to the result value
_SEMANTICS: dict[str, Callable[[_Step, _Ctx, list], Any]] = {
    "arith.constant": lambda s, ctx, a: TileValue.make(s.elem, s.attrs["value"]),
    "tt.get_program_id": lambda s, ctx, a: TileValue.make(ElemType.i32, ctx.pid[s.attrs["axis"]]),
    "tt.warp_id": lambda s, ctx, a: TileValue.make(ElemType.i32, ctx.warp),
    "tt.make_tensor_ptr": _make_ptr,
    "tt.advance": lambda s, ctx, a: a[0].advanced([x.item() for x in a[1:]]),
    "tt.load": lambda s, ctx, a: _do_load(ctx, a[0], s.elem, s.name),
    "tt.store": lambda s, ctx, a: _do_store(ctx, a[0], a[1], s.name),
    "tt.dot": _dot,
    "tt.reduce": lambda s, ctx, a: TileValue.make(a[0].elem, _reduce(s.attrs["kind"], a[0].data, s.attrs["axis"])),
    "tt.splat": lambda s, ctx, a: TileValue.make(s.elem, np.full(s.shape, a[0].item())),
    "tt.convert": lambda s, ctx, a: TileValue.make(s.elem, a[0].data),
    "tt.expand_dims": lambda s, ctx, a: TileValue(a[0].elem, a[0].data.reshape(s.shape)),
    "tt.broadcast": lambda s, ctx, a: TileValue(a[0].elem, np.broadcast_to(a[0].data, s.shape).copy()),
    "tt.extract": _extract,
    "tt.glue": _glue,
    "tt.alloc": _alloc,
    "math.exp": lambda s, ctx, a: TileValue.make(s.elem, np.exp(a[0].data)),
    **{k: lambda s, ctx, a, f=f: TileValue.make(s.elem, f(a[0].data, a[1].data)) for k, f in _BIN_F.items()},
    **{k: lambda s, ctx, a, f=f: TileValue.make(ElemType.i32, f(a[0].data, a[1].data)) for k, f in _BIN_I.items()},
    "arith.cmpi": lambda s, ctx, a: TileValue.make(ElemType.i1, _CMP[s.attrs["pred"]](a[0].data, a[1].data)),
}

_YIELD = "__yield__"


def _exec(steps: list[_Step], ctx: _Ctx, env: dict) -> Iterator[tuple]:
    """Run steps in one context; yields at every synchronization point."""
    for s in steps:
        if s.sem is not None:
            v = s.sem(s, ctx, [env[k] for k in s.operands])
            if s.results:
                env[s.results[0]] = v
        elif s.kind == "scf.for":
            lb, ub, step = (env[k].item() for k in s.operands[:3])
            if step < 1:
                raise SimError(ctx.where(f"{s.name}: non-positive loop step {step}"))
            vals = [env[k] for k in s.operands[3:]]
            for i in range(lb, ub, step):
                env[s.attrs["iv"]] = TileValue.make(ElemType.i32, i)
                env.update(zip(s.attrs["iters"], vals))
                yield from _exec(s.body, ctx, env)
                vals = env.pop(_YIELD)
            env.update(zip(s.results, vals))
        elif s.kind == "scf.yield":
            env[_YIELD] = [env[k] for k in s.operands]
        elif s.kind == "scf.if":
            if bool(env[s.operands[0]].item()):
                yield from _exec(s.body, ctx, env)
        elif s.kind == "tt.return":
            return
        elif s.kind == "tt.barrier":
            yield ("barrier", s.key, None, None, None)
        elif s.kind == _CROSS:
            dst = s.attrs.get("dst_warps")
            src = env[s.operands[0]]
            env[s.results[0]] = yield ("cross", s.key, s.attrs["kind"], tuple(dst) if dst else None, src)
        else:
            raise SimError(ctx.where(f"no semantics for op {s.name!r}"))


# --------------------------------------------------------------------------
# warp scheduler


def _drive_warps(gens: list[Iterator[tuple]], ctx_list: list[_Ctx]) -> None:
    n = len(gens)
    pending: list[Any] = [None] * n
    finished = [False] * n
    while True:
        events: list[tuple | None] = [None] * n
        for w in range(n):
            if finished[w]:
                continue
            try:
                events[w] = gens[w].send(pending[w])
            except StopIteration:
                finished[w] = True
        if all(finished):
            return
        if any(finished):
            lag = [w for w in range(n) if finished[w]]
            raise SimError(
                f"barrier divergence: warps {lag} finished while others wait at a synchronization point"
            )
        keys = {(e[0], e[1]) for e in events if e is not None}
        if len(keys) != 1:
            raise SimError("barrier divergence: warps reached different synchronization points")
        kind = events[0][0]
        if kind == "barrier":
            pending = [None] * n
            continue
        _, _, red_kind, dst, _ = events[0]
        tiles: list[TileValue] = [e[4] for e in events]  # type: ignore[index]
        shape0, elem0 = tiles[0].shape, tiles[0].elem
        if any(t.shape != shape0 or t.elem != elem0 for t in tiles):
            raise SimError("cross-warp reduce: warps present mismatched tile shapes")
        acc = tiles[0].data.copy()
        for w in range(1, n):
            acc = np.maximum(acc, tiles[w].data) if red_kind == "max" else acc + tiles[w].data
        combined = TileValue.make(elem0, acc)
        delivered: list[TileValue] = []
        for w in range(n):
            if dst is None or w in dst:
                delivered.append(combined)
            else:
                delivered.append(tiles[w])
        if ctx_list[0].trace is not None:
            ctx_list[0].trace.cross.append(
                CrossRecord(
                    ctx_list[0].wg_index,
                    red_kind,
                    dst,
                    tuple(t.data.copy() for t in tiles),
                    tuple(t.data.copy() for t in delivered),
                )
            )
        pending = delivered  # type: ignore[assignment]


# --------------------------------------------------------------------------
# top-level run


def _pid_list(grid: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    gx, gy, gz = grid
    return [(x, y, z) for z in range(gz) for y in range(gy) for x in range(gx)]


def run(
    prog: KernelFn | VProgram,
    launch: LaunchConfig,
    mem: DeviceMemory,
    trace: RunTrace | None = None,
) -> DeviceMemory:
    """Execute every workgroup of the launch; returns the mutated memory copy."""
    out = mem.copy()
    name = prog.name
    if launch.num_warps is not None and launch.num_warps != prog.num_warps:
        raise SimError(f"launch num_warps={launch.num_warps} but @{name} was built for {prog.num_warps}")

    if isinstance(prog, VProgram):
        per_warp = True
        bindings = [(f"%{bname}", bname, belem) for bname, belem in prog.args]
        shapes: dict[str, tuple[int, ...]] = {}
        steps = [_decode_vinstr(i, shapes) for i in prog.body]
    else:
        per_warp = prog.warp_level or prog.level != "workgroup"
        bindings = []
        for a in prog.args:
            if not isinstance(a.type, PtrType) or a.type.is_block:
                raise SimError(f"@{name}: only buffer pointer arguments are bindable, %{a.name} is {_type_desc(a.type)}")
            bindings.append((id(a), a.name, a.type.pointee))
        steps = [_decode_op(op) for op in prog.body.ops]

    for _, bname, belem in bindings:
        if bname not in out:
            raise SimError(f"@{name}: no buffer bound for argument %{bname}")
        if out.elem_of(bname) != belem:
            raise SimError(f"@{name}: buffer {bname} holds {out.elem_of(bname).value}, argument wants {belem.value}")
    env = {key: bname for key, bname, _ in bindings}
    sites = [(s.key, s.shape, s.elem) for s in _walk(steps) if s.kind == "tt.alloc"]

    pids = _pid_list(launch.grid)
    order = launch.wg_order if launch.wg_order is not None else tuple(range(len(pids)))
    if sorted(order) != list(range(len(pids))):
        raise SimError(f"wg_order must be a permutation of 0..{len(pids) - 1}")

    grids: dict[tuple, tuple[np.ndarray, int, int]] = {}
    for wg_index in order:
        wg = _Workgroup(sites, launch.slm_budget, f"@{name} wg={wg_index}")
        ctxs = [_Ctx(out, wg, pids[wg_index], w, wg_index, trace, name, grids)
                for w in range(prog.num_warps if per_warp else 1)]
        _drive_warps([_exec(steps, ctx, dict(env)) for ctx in ctxs], ctxs)
    return out
