"""Deterministic virtual GPU.

Executes kernels at any pipeline level: workgroup-level IR runs as one
logical context per workgroup, warp- and intrinsic-level IR (and lowered
VPrograms) run one context per warp.  Warps execute serially in ascending
warp-id order between synchronization points; barriers and cross-warp
reductions are the only places control transfers between warps, which makes
every run bit-reproducible and independent of workgroup scheduling order.

Tile data lives in numpy arrays: f16 tiles are stored as f32 values rounded
to f16 precision after every producing operation, f32 as f32, i32/i1 as
int32/bool.  Block pointers address flat buffers through explicit strides,
and every access is bounds-checked.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from .ir import (
    ELEMENTWISE_FLOAT,
    ELEMENTWISE_INT,
    BlockPointer,
    ElemType,
    KernelFn,
    Operation,
    PtrType,
    Region,
    walk_fn_ops,
)
from .visa import TargetConfig, VInstr, VOpcode, VProgram


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

    def where(self, what: str) -> str:
        return f"@{self.fn_name} wg={self.wg_index} pid={self.pid} warp={self.warp} {what}"


# --------------------------------------------------------------------------
# block pointer access


def _resolve_base(ctx: _Ctx, base: Any, where: str) -> tuple[ElemType, np.ndarray]:
    if isinstance(base, str):
        if base in ctx.wg.slm:
            return ctx.wg.slm[base]
        if base in ctx.mem:
            return ctx.mem.elem_of(base), ctx.mem.raw(base)
    raise SimError(f"unknown buffer {base!r} ({where})")


def _flat_indices(bp: BlockPointer) -> np.ndarray:
    r = len(bp.block_shape)
    idx = np.zeros(bp.block_shape, dtype=np.int64)
    for d in range(r):
        ar = (bp.offsets[d] + np.arange(bp.block_shape[d], dtype=np.int64)) * bp.strides[d]
        shape = [1] * r
        shape[d] = bp.block_shape[d]
        idx = idx + ar.reshape(shape)
    return idx


def _check_bounds(bp: BlockPointer, buf_len: int, where: str) -> np.ndarray:
    for d in range(len(bp.block_shape)):
        if bp.offsets[d] < 0 or bp.offsets[d] + bp.block_shape[d] > bp.global_shape[d]:
            raise SimError(
                f"out-of-bounds block access: dim {d} window "
                f"[{bp.offsets[d]}, {bp.offsets[d] + bp.block_shape[d]}) outside "
                f"[0, {bp.global_shape[d]}) ({where})"
            )
    idx = _flat_indices(bp)
    if idx.size and (idx.min() < 0 or idx.max() >= buf_len):
        raise SimError(f"out-of-bounds block access: flat index beyond buffer of {buf_len} ({where})")
    return idx


def _do_load(ctx: _Ctx, bp: BlockPointer, elem: ElemType, what: str) -> TileValue:
    where = ctx.where(what)
    base_elem, buf = _resolve_base(ctx, bp.base, where)
    if base_elem != elem:
        raise SimError(f"buffer {bp.base!r} holds {base_elem}, access expects {elem} ({where})")
    idx = _check_bounds(bp, buf.size, where)
    if ctx.trace is not None:
        ctx.trace.loads.append(TraceAccess(ctx.wg_index, ctx.warp, str(bp.base), bp.offsets, bp.block_shape))
    return TileValue.make(elem, buf[idx])


def _do_store(ctx: _Ctx, bp: BlockPointer, value: TileValue, what: str) -> None:
    where = ctx.where(what)
    base_elem, buf = _resolve_base(ctx, bp.base, where)
    if base_elem != value.elem:
        raise SimError(f"buffer {bp.base!r} holds {base_elem}, store provides {value.elem} ({where})")
    if value.shape != bp.block_shape:
        raise SimError(f"store value shape {value.shape} != block shape {bp.block_shape} ({where})")
    idx = _check_bounds(bp, buf.size, where)
    buf[idx] = _coerce(base_elem, value.data)
    if ctx.trace is not None:
        ctx.trace.stores.append(TraceAccess(ctx.wg_index, ctx.warp, str(bp.base), bp.offsets, bp.block_shape))


# --------------------------------------------------------------------------
# shared op math

_BIN_F = {
    "addf": np.add,
    "subf": np.subtract,
    "mulf": np.multiply,
    "divf": np.divide,
    "maximumf": np.maximum,
}
_BIN_I = {
    "addi": np.add,
    "subi": np.subtract,
    "muli": np.multiply,
    "divi": np.floor_divide,
    "remi": np.remainder,
}
_CMP = {
    "eq": np.equal,
    "ne": np.not_equal,
    "slt": np.less,
    "sle": np.less_equal,
    "sgt": np.greater,
    "sge": np.greater_equal,
}


def _extract_tile(src: TileValue, out_shape: tuple[int, ...], index: int) -> TileValue:
    grid = tuple(s // o for s, o in zip(src.shape, out_shape))
    coord = np.unravel_index(index, grid)
    sl = tuple(slice(c * o, (c + 1) * o) for c, o in zip(coord, out_shape))
    return TileValue(src.elem, src.data[sl].copy())


def _extract_ptr(src: BlockPointer, out_block: tuple[int, ...], index: int) -> BlockPointer:
    grid = tuple(s // o for s, o in zip(src.block_shape, out_block))
    coord = np.unravel_index(index, grid)
    offs = tuple(src.offsets[d] + int(coord[d]) * out_block[d] for d in range(len(out_block)))
    return BlockPointer(src.base, src.global_shape, src.strides, offs, tuple(out_block), src.order)


def _glue_tiles(pieces: list[TileValue], out_shape: tuple[int, ...]) -> TileValue:
    piece = pieces[0]
    grid = tuple(o // p for o, p in zip(out_shape, piece.shape))
    out = np.empty(out_shape, dtype=piece.data.dtype)
    for i, pc in enumerate(pieces):
        coord = np.unravel_index(i, grid)
        sl = tuple(slice(c * p, (c + 1) * p) for c, p in zip(coord, piece.shape))
        out[sl] = pc.data
    return TileValue(piece.elem, out)


def _reduce(kind: str, data: np.ndarray, axis: int) -> np.ndarray:
    return np.max(data, axis=axis) if kind == "max" else np.sum(data, axis=axis)


# --------------------------------------------------------------------------
# IR interpreter

_YIELD = "__yield__"


def _exec_ir_region(region: Region, ctx: _Ctx, env: dict) -> Iterator[tuple]:
    for op in region.ops:
        k = op.kind

        if k == "scf.for":
            lb, ub, step = (env[id(v)].item() for v in op.operands[:3])
            vals = [env[id(v)] for v in op.operands[3:]]
            body = op.regions[0]
            for i in range(lb, ub, step):
                env[id(body.args[0])] = TileValue.make(ElemType.i32, i)
                for a, v in zip(body.args[1:], vals):
                    env[id(a)] = v
                yield from _exec_ir_region(body, ctx, env)
                vals = env.pop(_YIELD)
            for r, v in zip(op.results, vals):
                env[id(r)] = v
            continue
        if k == "scf.yield":
            env[_YIELD] = [env[id(v)] for v in op.operands]
            continue
        if k == "scf.if":
            if bool(env[id(op.operands[0])].item()):
                yield from _exec_ir_region(op.regions[0], ctx, env)
            continue
        if k == "tt.return":
            return
        if k == "tt.barrier":
            yield ("barrier", id(op), None, None, None)
            continue
        if k == "tt.reduce" and op.attrs.get("cross_warp", False):
            src = env[id(op.operands[0])]
            dst = op.attrs.get("dst_warps")
            got = yield ("cross", id(op), op.attrs["kind"], tuple(dst) if dst else None, src)
            env[id(op.result)] = got
            continue

        env_updates = _eval_ir_op(op, ctx, env)
        for vid, val in env_updates:
            env[vid] = val


def _eval_ir_op(op: Operation, ctx: _Ctx, env: dict) -> list[tuple[int, Any]]:
    k = op.kind

    def val(i: int) -> Any:
        return env[id(op.operands[i])]

    if k == "arith.constant":
        rt = op.results[0].type
        return [(id(op.result), TileValue.make(rt.elem, op.attrs["value"]))]
    if k == "tt.get_program_id":
        return [(id(op.result), TileValue.make(ElemType.i32, ctx.pid[op.attrs["axis"]]))]
    if k == "tt.warp_id":
        return [(id(op.result), TileValue.make(ElemType.i32, ctx.warp))]
    if k == "tt.make_tensor_ptr":
        pt = op.results[0].type.pointee
        r = pt.rank
        nums = [env[id(v)].item() for v in op.operands[1:]]
        bp = BlockPointer(
            base=val(0),
            global_shape=tuple(nums[:r]),
            strides=tuple(nums[r : 2 * r]),
            offsets=tuple(nums[2 * r :]),
            block_shape=pt.shape,
            order=tuple(op.attrs["order"]),
        )
        return [(id(op.result), bp)]
    if k == "tt.advance":
        deltas = [env[id(v)].item() for v in op.operands[1:]]
        return [(id(op.result), val(0).advanced(deltas))]
    if k == "tt.load":
        return [(id(op.result), _do_load(ctx, val(0), op.results[0].type.elem, "tt.load"))]
    if k == "tt.store":
        _do_store(ctx, val(0), val(1), "tt.store")
        return []
    if k == "tt.dot":
        a, b, c = (val(i).data.astype(np.float32) for i in range(3))
        return [(id(op.result), TileValue(ElemType.f32, a @ b + c))]
    if k == "tt.reduce":
        src = val(0)
        out = _reduce(op.attrs["kind"], src.data, op.attrs["axis"])
        return [(id(op.result), TileValue.make(src.elem, out))]
    if k == "tt.splat":
        rt = op.results[0].type
        return [(id(op.result), TileValue.make(rt.elem, np.full(rt.shape, val(0).item())))]
    if k == "tt.convert":
        rt = op.results[0].type
        return [(id(op.result), TileValue.make(rt.elem, val(0).data))]
    if k == "tt.expand_dims":
        rt = op.results[0].type
        return [(id(op.result), TileValue(val(0).elem, val(0).data.reshape(rt.shape)))]
    if k == "tt.broadcast":
        rt = op.results[0].type
        return [(id(op.result), TileValue(val(0).elem, np.broadcast_to(val(0).data, rt.shape).copy()))]
    if k == "tt.extract":
        rt = op.results[0].type
        if isinstance(rt, PtrType):
            return [(id(op.result), _extract_ptr(val(0), rt.pointee.shape, op.attrs["index"]))]
        return [(id(op.result), _extract_tile(val(0), rt.shape, op.attrs["index"]))]
    if k == "tt.glue":
        rt = op.results[0].type
        return [(id(op.result), _glue_tiles([env[id(v)] for v in op.operands], rt.shape))]
    if k == "tt.alloc":
        pt = op.results[0].type.pointee
        r = pt.rank
        strides = tuple(int(np.prod(pt.shape[d + 1 :], dtype=np.int64)) for d in range(r))
        order = tuple(range(r - 1, -1, -1))
        bp = BlockPointer(ctx.wg.handle(id(op)), pt.shape, strides, (0,) * r, pt.shape, order)
        return [(id(op.result), bp)]
    if k in ELEMENTWISE_FLOAT:
        rt = op.results[0].type
        if k == "math.exp":
            out = np.exp(val(0).data)
        else:
            out = _BIN_F[k.split(".", 1)[1]](val(0).data, val(1).data)
        return [(id(op.result), TileValue.make(rt.elem, out))]
    if k in ELEMENTWISE_INT:
        out = _BIN_I[k.split(".", 1)[1]](val(0).data, val(1).data)
        return [(id(op.result), TileValue.make(ElemType.i32, out))]
    if k == "arith.cmpi":
        out = _CMP[op.attrs["pred"]](val(0).data, val(1).data)
        return [(id(op.result), TileValue.make(ElemType.i1, out))]
    raise SimError(ctx.where(f"no interpreter for op {k!r}"))


# --------------------------------------------------------------------------
# VProgram interpreter


def _exec_vm_body(instrs: list[VInstr], ctx: _Ctx, env: dict) -> Iterator[tuple]:
    for ins in instrs:
        oc = ins.opcode

        if oc == VOpcode.loop_ctl:
            if ins.op == "for":
                lb, ub, step = (env[r].item() for r in ins.operands[:3])
                vals = [env[r] for r in ins.operands[3:]]
                for i in range(lb, ub, step):
                    env[ins.attrs["iv"]] = TileValue.make(ElemType.i32, i)
                    for a, v in zip(ins.attrs["iters"], vals):
                        env[a] = v
                    yield from _exec_vm_body(ins.body or [], ctx, env)
                    vals = env.pop(_YIELD)
                for r, v in zip(ins.results, vals):
                    env[r] = v
            elif ins.op == "yield":
                env[_YIELD] = [env[r] for r in ins.operands]
            elif ins.op == "if":
                if bool(env[ins.operands[0]].item()):
                    yield from _exec_vm_body(ins.body or [], ctx, env)
            else:  # ret
                return
            continue
        if oc == VOpcode.barrier:
            yield ("barrier", id(ins), None, None, None)
            continue
        if oc == VOpcode.cross_warp_reduce:
            dst = ins.attrs.get("dst_warps")
            got = yield ("cross", id(ins), ins.op, tuple(dst) if dst else None, env[ins.operands[0]])
            env[ins.results[0]] = got
            continue

        _eval_vm_instr(ins, ctx, env)


def _eval_vm_instr(ins: VInstr, ctx: _Ctx, env: dict) -> None:
    oc = ins.opcode

    def val(i: int) -> Any:
        return env[ins.operands[i]]

    def put(v: Any) -> None:
        env[ins.results[0]] = v

    if oc == VOpcode.mov:
        if ins.op == "const":
            put(TileValue.make(ins.elem, ins.attrs["value"]))
        elif ins.op == "pid":
            put(TileValue.make(ElemType.i32, ctx.pid[ins.attrs["axis"]]))
        elif ins.op == "wid":
            put(TileValue.make(ElemType.i32, ctx.warp))
        elif ins.op == "splat":
            put(TileValue.make(ins.elem, np.full(ins.shape, val(0).item())))
        elif ins.op == "expand":
            put(TileValue(val(0).elem, val(0).data.reshape(ins.shape)))
        else:  # bcast
            put(TileValue(val(0).elem, np.broadcast_to(val(0).data, ins.shape).copy()))
        return
    if oc == VOpcode.alu:
        if ins.op == "mkptr":
            r = len(ins.shape)
            nums = [env[x].item() for x in ins.operands[1:]]
            put(
                BlockPointer(
                    base=val(0),
                    global_shape=tuple(nums[:r]),
                    strides=tuple(nums[r : 2 * r]),
                    offsets=tuple(nums[2 * r :]),
                    block_shape=ins.shape,
                    order=tuple(ins.attrs["order"]),
                )
            )
        elif ins.op == "advance":
            put(val(0).advanced([env[x].item() for x in ins.operands[1:]]))
        elif ins.op == "cvt":
            put(TileValue.make(ins.elem, val(0).data))
        elif ins.op == "cmpi":
            put(TileValue.make(ElemType.i1, _CMP[ins.attrs["pred"]](val(0).data, val(1).data)))
        elif ins.op == "exp":
            put(TileValue.make(ins.elem, np.exp(val(0).data)))
        elif ins.op in _BIN_F:
            put(TileValue.make(ins.elem, _BIN_F[ins.op](val(0).data, val(1).data)))
        elif ins.op in _BIN_I:
            put(TileValue.make(ElemType.i32, _BIN_I[ins.op](val(0).data, val(1).data)))
        else:
            raise SimError(ctx.where(f"unknown alu op {ins.op!r}"))
        return
    if oc == VOpcode.block2d_load:
        put(_do_load(ctx, val(0), ins.elem, "block2d_load"))
        return
    if oc == VOpcode.block2d_store:
        _do_store(ctx, val(0), val(1), "block2d_store")
        return
    if oc == VOpcode.mma:
        a, b, c = (val(i).data.astype(np.float32) for i in range(3))
        put(TileValue(ElemType.f32, a @ b + c))
        return
    if oc == VOpcode.extract:
        if ins.op == "ptr":
            put(_extract_ptr(val(0), ins.shape, ins.attrs["index"]))
        else:
            put(_extract_tile(val(0), ins.shape, ins.attrs["index"]))
        return
    if oc == VOpcode.glue:
        put(_glue_tiles([env[r] for r in ins.operands], ins.shape))
        return
    if oc == VOpcode.reduce_lane:
        src = val(0)
        put(TileValue.make(src.elem, _reduce(ins.op, src.data, ins.attrs["axis"])))
        return
    if oc == VOpcode.slm_alloc:
        r = len(ins.shape)
        strides = tuple(int(np.prod(ins.shape[d + 1 :], dtype=np.int64)) for d in range(r))
        order = tuple(range(r - 1, -1, -1))
        put(BlockPointer(ctx.wg.handle(id(ins)), ins.shape, strides, (0,) * r, ins.shape, order))
        return
    raise SimError(ctx.where(f"no interpreter for opcode {oc.value!r}"))


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


def _alloc_sites_ir(fn: KernelFn) -> list[tuple[int, tuple[int, ...], ElemType]]:
    sites = []
    for op in walk_fn_ops(fn):
        if op.kind == "tt.alloc":
            pt = op.results[0].type.pointee
            sites.append((id(op), pt.shape, pt.elem))
    return sites


def _alloc_sites_vm(prog: VProgram) -> list[tuple[int, tuple[int, ...], ElemType]]:
    return [(id(i), i.shape, i.elem) for i in prog.walk() if i.opcode == VOpcode.slm_alloc]


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
    is_vm = isinstance(prog, VProgram)
    name = prog.name
    prog_warps = prog.num_warps
    if launch.num_warps is not None and launch.num_warps != prog_warps:
        raise SimError(f"launch num_warps={launch.num_warps} but @{name} was built for {prog_warps}")

    if is_vm:
        per_warp = True
        bindings = [(n, e) for n, e in prog.args]
        sites = _alloc_sites_vm(prog)
    else:
        per_warp = prog.warp_level or prog.level != "workgroup"
        bindings = []
        for a in prog.args:
            if not isinstance(a.type, PtrType) or a.type.is_block:
                raise SimError(f"@{name}: only buffer pointer arguments are bindable, %{a.name} is {a.type}")
            bindings.append((a.name, a.type.pointee))
        sites = _alloc_sites_ir(prog)

    for bname, belem in bindings:
        if bname not in out:
            raise SimError(f"@{name}: no buffer bound for argument %{bname}")
        if out.elem_of(bname) != belem:
            raise SimError(f"@{name}: buffer {bname} holds {out.elem_of(bname)}, argument wants {belem}")

    pids = _pid_list(launch.grid)
    order = launch.wg_order if launch.wg_order is not None else tuple(range(len(pids)))
    if sorted(order) != list(range(len(pids))):
        raise SimError(f"wg_order must be a permutation of 0..{len(pids) - 1}")

    n_ctx = prog_warps if per_warp else 1
    for wg_index in order:
        pid = pids[wg_index]
        wg = _Workgroup(sites, launch.slm_budget, f"@{name} wg={wg_index}")
        gens = []
        ctxs = []
        for w in range(n_ctx):
            ctx = _Ctx(out, wg, pid, w, wg_index, trace, name)
            if is_vm:
                env: dict = {f"%{bname}": bname for bname, _ in bindings}
                gens.append(_exec_vm_body(prog.body, ctx, env))
            else:
                env = {id(a): a.name for a in prog.args}
                gens.append(_exec_ir_region(prog.body, ctx, env))
            ctxs.append(ctx)
        _drive_warps(gens, ctxs)
    return out
