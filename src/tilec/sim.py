"""Deterministic virtual GPU: runs a kernel at any pipeline level.

A launch is prepared, then run.  `prepare` verifies the program
(``ir.verify``) and decodes it into one step form: each IR op decodes to a
step of its own kind.  A vISA program is first raised to the intrinsic-level
IR it spells (``visa.raise_program``), which is verified in its place, and
each of its steps keeps its instruction's name for diagnostics.  A program
that does not raise or verify fails with a `SimError` that carries the
diagnostics, so the executor runs nothing that ``ir.verify`` rejects.  A
step is a plain record that its maker fills in: decoding works out all that
needs no runtime value, each step's shape and element type and the slices
an extract reads or a glue writes, from the operand's static shape.  One
executor runs the steps: it handles loops and branches itself and, for every
other kind, calls the function that one semantics table holds for it when
the step runs, so an op and the instruction it lowers to run the same code.

`prepare` also lays out SLM, folds launch-known steps, proves footprints and
groups pieces (below), in that order, and the `Launch` it returns holds all
of that; `Launch.run` executes it on any memory that binds the same buffers,
and nothing it does writes the `Launch`.  The memory a run returns copies
each buffer a store can reach and holds a read-only view of each other one.
`run` is `prepare` then `Launch.run`.  `prepare` keeps each `Launch` in a map
keyed weakly on its program, so a dropped program is freed at once with its
launches.  It returns the same `Launch` again for the same program object,
grid, ``wg_order`` and bound buffers (name, element type, size), so a
program is verified, decoded, folded, proven and grouped once per launch
shape.  The bindings, the schedule and the SLM budget are checked on every
call.  So a program must not be edited in place once it has run: a later run
would execute the steps decoded before the edit.

A launch runs in lockstep, as one batch with a row per warp of each
workgroup, workgroups in ``wg_order`` and warps in id order (a
workgroup-level program has one warp).  Every value has a leading row axis:
a scalar is a per-row vector, a block pointer holds per-row offsets, a load
or a store moves all rows' blocks in one copy and ``tt.dot`` is one batched
matmul.  Each workgroup has its own SLM.  A row-dependent ``scf.if``, or a
loop whose trip count differs by row, runs under an active mask; masked-off
rows neither load nor store, and only an active row fails an integer
division or remainder by zero.  A barrier or cross-warp reduction must be
reached by all warps of each workgroup with an active warp; a reduction adds
a workgroup's warps in id order.

Two warps of a workgroup must not touch one element of a device or SLM
buffer between two synchronization points, nor two workgroups one element
of a device buffer in the launch, when either writes it, unless both store
equal bits; a run that does fails with a race error.  A run that completes
thus gives the bits of the serial run (workgroups one by one in
``wg_order``, warps one by one between synchronization points), and
``RunTrace`` records accesses in that order; ``wg_order`` also decides
which workgroup an error names when several fault in one step.

When a launch is prepared, the steps whose results are known at launch are
folded first.  A step folds when its kind touches no buffer, does not
synchronize and gives every row its value whatever the mask (constants,
program and warp ids, integer and float elementwise ops, compares, converts,
splats, broadcasts, expand_dims, extracts, glues, dots, reductions, SLM
allocations, and block pointers made or advanced) and every value it reads
is an argument or the result of a folded step, in a loop or branch body too.
It runs once, by its own semantics, on every row of the launch with all rows
active; the `Launch` keeps its results read-only, and every run binds them
at its start and skips the step.  A fold never raises: a step whose
evaluation raises or would warn (an integer division or remainder by zero on
some row, a float overflow) is not folded, and does so where it runs, as it
would unfolded, under that run's mask.  The fold sees the decoded steps only:
a step that grouping makes later (a splat or glue to a whole tile) runs on
every run.

Then ``footprints.prove`` follows every load and store pointer through the
integer and pointer steps to its buffer, and takes each value that the fold
knows from it.  It works out which accesses stay in bounds on every loop
trip, which buffers a store can reach, and which of those no two rows share
(one injective geometry, disjoint index boxes).  A proven access skips its
bounds checks; a proven buffer keeps no race marks, like every buffer of a
one-row launch.  The rest are checked as they run: the bounds of every other
access, and the reads and writes of every other buffer a store can reach.
The proof raises nothing, so a failing run keeps its first error and
message.

Last, after the proof, the steps that work on the pieces
``match_target_size`` cut from one tile become one step each, which runs its
kind's semantics once on the whole tile and binds each piece's result as a
view of its own, for the steps that read it (any other step is a group of
one, and one executor runs both).  A group is found from static facts only,
in one scan per block.  It is a run of steps that do one thing to equally
typed operands, with only movable steps that read no member between them;
any other step closes the run, and so does one that could start a run of its
own.  Its members are

- elementwise ops or converts on operands shaped like their result;
- dots whose A and B pieces form the rows and columns of a grid, in
  row-major order: the group reads whole A, B and accumulator tiles, and
  ``_dot`` cuts them by its piece shape into views of that grid, one matmul
  per piece, as the pieces would run, whose products land in the whole
  result.  ``match_target_size`` emits the unit dots of one k chunk of all
  pieces back to back, so each k chunk of a dot is one run;
- loads, or stores, through the pointer extracts that cover one block once,
  on a buffer that keeps no race marks: one access of the block, which a
  traced run logs per piece, in the pieces' order.  Any bounds check the
  pieces need is made once on the whole block, which leaves its bounds
  exactly where some piece does; a failure names the piece, as the first
  piece to fail would on its own.

A loop's carries that are the pieces of one block that one ``tt.advance``
moves, or the results of a dot group that only the yield reads, are carried
whole.

A group reads each operand in one of three ways: one value as it is (also
where every member reads that value and it is shaped like the whole), a box
of one value where its pieces sit in place in it (through extract indices,
read through ``ir.block_origin``, or as another group's results), or a
splat of one scalar to the whole where its pieces all splat that scalar.
A run with an operand read none of these ways, or whose pieces form no
whole, runs as written: its members in order, at its last member's place.
Bits, trace order and errors cannot move: a grouped kind works out each
element from the same operand elements by the same operation as its pieces
do; a group runs at its last member's place and every other step at its
own, so its other members run later only past movable steps (which touch no
buffer, do not synchronize and cannot raise) that read none of them; an
access group skips no check its pieces would make, and fails as they would.
So nothing else that can raise groups (an integer division or remainder),
nor an access that keeps marks, nor pieces that do not cover one block once
(a repeated extract index), nor dots off a grid: those run as written.  A
movable step whose result no step reads any more is left out.

f16 tiles are f32 arrays rounded to binary16, ties to even, after every
producing step: from 65520 up they round to inf, below 2**-14 to multiples
of 2**-24, and NaN follows numpy's conversion (docs/grammar.md).  Tiles are
never written in place, so an extract, broadcast or splat is a view, and a
load whose rows all read one block of a buffer no store reaches gathers it
once and broadcasts it.  Only ``tt.dot`` cares about strides: matmul takes
its path, and so its order of sums, by the strides of each row's matrices,
so `_dot` makes an A or B operand with a zero stride on a tile axis (a
splat) dense; one with a zero stride on the row axis only (a load gathered
once) keeps it, as a dense one would run.  A block is one item of a strided
window view of its buffer, made once per run for each (buffer, block shape,
strides): an access copies whole blocks, bounds-checked (unless proven) in
closed form from the strides.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import math
import operator
import struct
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import footprints
from .ir import (CMP_PREDS, ELEMENTWISE_FLOAT, ELEMENTWISE_INT, ElemType, KernelFn, Operation, PtrType, VerifyError,
                 block_origin, tile_type, trip_count, verify_or_raise)
from .textio import _type_desc
from .visa import PVC, LoweringError, TargetConfig, VProgram, raise_program


class SimError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# tiles and memory

_DTYPE = {ElemType.f32: np.float32, ElemType.i32: np.int32, ElemType.i1: np.bool_}


# f32 magnitude bits of 2**-14, the least normal f16, and of 65520, the least
# magnitude that rounds to an f16 inf
_F16_NORMAL_MIN = 0x38800000
_F16_OVERFLOW = 0x477FF000
# below this many elements the numpy round trip beats the bit path
_F16_BITS_MIN = 2048


def _coerce(elem: ElemType, data: Any) -> np.ndarray:
    arr = np.asarray(data)
    if elem == ElemType.f16:
        return _round_f16(arr)
    return arr.astype(_DTYPE[elem], copy=False)


def _round_f16(arr: np.ndarray) -> np.ndarray:
    """``arr`` rounded to binary16, ties to even, as float32: the bits of
    ``arr.astype(float16).astype(float32)``.

    A float32 input rounds on its bits: add half an f16 unit less one, plus
    the kept lowest bit, and clear the 13 bits f16 drops.  That is exact for
    zeros and for magnitudes in [2**-14, 65520).  The rest are taken by
    index: an f16 subnormal is a multiple of 2**-24, so it rounds as
    ``rint(x * 2**24) * 2**-24`` in float32, every step exact (numpy's cast
    costs some 100 ns for each such element); overflow, inf and NaN take the
    numpy round trip.

    A float64 input is cast to float32 first, then rounds on those bits.
    The cast rounds to nearest, and every f16 midpoint is an f32 value, so it
    keeps each input on its side of every midpoint, unless it lands on one:
    an element whose low 13 bits are then 0x1000, an f16 tie the cast may
    have made, and every element outside [2**-14, 65520), are taken from the
    float64 input by the numpy round trip.  Any other input dtype, and any
    input shorter than ``_F16_BITS_MIN``, is rounded once, from its own
    value, by numpy."""
    if arr.dtype not in (np.float32, np.float64) or arr.size < _F16_BITS_MIN:
        return arr.astype(np.float16).astype(np.float32)
    src = arr
    if arr.dtype == np.float64:
        with np.errstate(over="ignore"):  # beyond f32: inf, taken from src
            arr = arr.astype(np.float32)
    bits = arr.view(np.uint32)
    # twice the magnitude bits less twice 2**-14's: one compare finds all
    # magnitudes outside [2**-14, 65520), and one more spares the zeros
    r = np.left_shift(bits, 1, out=np.empty(arr.shape, np.uint32))
    r -= 2 * _F16_NORMAL_MIN
    rest = r >= 2 * (_F16_OVERFLOW - _F16_NORMAL_MIN)
    rest &= r != 2**32 - 2 * _F16_NORMAL_MIN
    if src is not arr:
        np.bitwise_and(bits, 0x1FFF, out=r)
        rest |= r == 0x1000
    rest = np.flatnonzero(rest)
    np.right_shift(bits, 13, out=r)
    r &= 1
    r += 0x0FFF
    r += bits
    r &= 0xFFFFE000
    out = r.view(np.float32)
    if rest.size and src is not arr:
        out.reshape(-1)[rest] = src.reshape(-1)[rest].astype(np.float16).astype(np.float32)
    elif rest.size:
        x = arr.reshape(-1)[rest]
        tiny = np.abs(x) < 2.0**-14
        big = ~tiny
        x[tiny] = np.rint(x[tiny] * 2.0**24) * 2.0**-24
        x[big] = x[big].astype(np.float16).astype(np.float32)
        out.reshape(-1)[rest] = x
    return out


@dataclass(frozen=True, slots=True)
class BlockPointer:
    """One block pointer per batch row into one buffer.  ``dims[r]`` holds
    row r's global shape, strides and offsets, in elements, as three rows."""

    base: Any  # a device buffer or SLM allocation name
    dims: np.ndarray
    block_shape: tuple[int, ...]


class DeviceMemory:
    """Named flat buffers plus the tensor shapes they were bound with."""

    def __init__(self) -> None:
        self._bufs: dict[str, tuple[ElemType, np.ndarray]] = {}
        self.shapes: dict[str, tuple[int, ...]] = {}

    def names(self) -> list[str]:
        return list(self._bufs)

    def set_tensor(self, name: str, data: Any, elem: ElemType) -> None:
        """Bind `data`, coerced to `elem`, to `name`, as a buffer of its own."""
        arr = _coerce(elem, data)
        flat = arr.reshape(-1)
        self.shapes[name] = arr.shape
        self._bufs[name] = (elem, flat.copy() if np.may_share_memory(flat, data) else flat)

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
    n = math.prod(dims)
    if payload.size != n:
        raise ValueError(f"{path}: payload holds {payload.size} elements, header says {n}")
    # the payload is a read-only view of the file bytes; the caller gets its own array
    return _coerce(elem, payload.reshape(dims).copy()), elem


# --------------------------------------------------------------------------
# launch plumbing


@dataclass(frozen=True)
class LaunchConfig:
    grid: tuple[int, int, int] = (1, 1, 1)
    target: TargetConfig | None = None  # supplies the SLM budget; None: PVC
    wg_order: tuple[int, ...] | None = None  # workgroup scheduling permutation

    def __post_init__(self) -> None:
        if len(self.grid) != 3 or any(g < 1 for g in self.grid):
            raise ValueError(f"grid must be three positive dims, got {self.grid}")

    @property
    def slm_budget(self) -> int:
        return (self.target or PVC).slm_bytes


class TraceAccess(NamedTuple):  # a tuple, cheap to build in bulk
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


class _Ctx:
    """One run of a prepared launch: its buffers and race marks, and the rows
    active at this step.  Row r is warp r % nw of the workgroup at schedule
    position r // nw.  A buffer is its element type, flat data, one
    workgroup's size, and each row's base offset (None for a device buffer;
    each workgroup has its own SLM, zeroed for each run).  What holds for
    every run of the launch is copied from it, and is never written."""

    def __init__(self, launch: Launch, mem: DeviceMemory, log: tuple[list, list, list] | None) -> None:
        self.n, self.nw, self.order, self.pids = launch.n, launch.nw, launch.order, launch.pids
        self.fn_name, self.wg, self.warp, self.pid, self.ptrs = launch.name, launch.wg, launch.warp, launch.pid, launch.ptrs
        self.scales, self.inbounds = launch.scales, launch.inbounds
        self.log = log  # if tracing: loads, stores, cross-warp reduces, in step order
        self.bufs = {b: (e, a, a.size, None) for b, (e, a) in mem._bufs.items()}
        for b, (elem, size, off) in launch.slm.items():
            self.bufs[b] = (elem, _coerce(elem, np.zeros(len(self.order) * size)), size, off)
        # read and write marks on each buffer `scales` keeps with a scale: by base, per scale,
        # lo then hi, for reads then writes
        self.marks = {b: np.tile(np.int32([self.n, -1])[:, None, None], (len(sc), 1, 2, self.bufs[b][1].size))
                      for b, sc in self.scales.items() if sc}
        self.windows: dict[tuple, tuple] = {}  # _geometry's, by (base, block shape, all rows' strides)
        self.touched: list[tuple] = []  # the row marks set since those rows' last synchronization point
        self.epoch = np.zeros(len(self.order), dtype=np.int64)  # synchronization points passed, per workgroup
        self.mask(np.ones(self.n, dtype=np.bool_))

    def mask(self, act: np.ndarray) -> None:
        self.act, self.ids = act, np.flatnonzero(act)
        self.full = len(self.ids) == self.n

    def where(self, what: str, row: Any = None) -> str:
        g, w = divmod(int(self.ids[0] if row is None else row), self.nw)
        return f"@{self.fn_name} wg={self.order[g]} pid={self.pids[self.order[g]]} warp={w} {what}"


# --------------------------------------------------------------------------
# block pointer access


def _geometry(ctx: _Ctx, base: str, block: tuple[int, ...], strides: np.ndarray) -> tuple:
    """Per row of `strides`, the first offsets keeping a block in one
    workgroup's part of `base`; per distinct strides, its rows (None: all),
    neg (<= 0), a block element's lowest offset from the first, and windows
    of the buffer and race marks, whose item j starts at element j - neg.
    A window checks nothing: index it with checked items, and with an array."""
    _, buf, size, _ = ctx.bufs[base]
    ext = (np.array(block) - 1) * strides
    neg, pos = np.minimum(ext, 0).sum(axis=1), np.maximum(ext, 0).sum(axis=1)
    groups = []
    for st in dict.fromkeys(map(tuple, strides.tolist())):  # in first-row order
        sel = (strides == st).all(axis=1)
        dn, up = int(neg[sel][0]), int(pos[sel][0])
        shape, step = (max(0, buf.size - up + dn), *block), np.array((1, *st))
        win = lambda a: as_strided(a[..., -dn:], (*a.shape[:-1], *shape), (*a.strides[:-1], *(a.itemsize * step)))  # noqa
        groups.append((None if sel.all() else sel, dn, win(buf), win(ctx.marks[base]) if base in ctx.marks else None))
    return -neg, size - 1 - pos, groups


def _window(ctx: _Ctx, bp: BlockPointer) -> tuple:
    """`_geometry` of `bp`'s buffer, block shape and strides, made once per run."""
    if (key := (bp.base, bp.block_shape, bp.dims[:, 1].tobytes())) not in ctx.windows:
        ctx.windows[key] = _geometry(ctx, bp.base, bp.block_shape, bp.dims[:, 1])
    return ctx.windows[key]


def _bounds(ctx: _Ctx, name: str, bp: BlockPointer, lo: np.ndarray, hi: np.ndarray, first: np.ndarray) -> None:
    """Fail if an active row's block leaves its global shape in some dim, or
    if its first element's offset `first` is outside [`lo`, `hi`], where the
    block leaves the row's workgroup's part of the buffer (see _geometry)."""
    glob, offs = bp.dims[:, 0], bp.dims[:, 2]
    bad = (offs < 0) | (offs + bp.block_shape > glob)
    if bad.any() and (bad := bad & ctx.act[:, None]).any():
        w, d = np.argwhere(bad)[0]
        o, b, g = offs[w, d], bp.block_shape[d], glob[w, d]
        raise SimError(f"out-of-bounds block access: dim {d} window [{o}, {o + b}) outside [0, {g}) "
                       f"({ctx.where(name, w)})")
    bad = (first < lo) | (first > hi)
    if bad.any() and (bad := bad & ctx.act).any():
        raise SimError(f"out-of-bounds block access: flat index beyond buffer of {ctx.bufs[bp.base][2]} "
                       f"({ctx.where(name, np.argmax(bad))})")


def _access(ctx: _Ctx, s: _Step, bp: BlockPointer, value: np.ndarray | None = None) -> list[tuple]:
    """For a load, or a store of `value`, once it is checked (and logged if
    traced): per distinct strides, the active rows with them, their items and
    the windows (see _geometry)."""
    off, strides, offs = ctx.bufs[bp.base][3], bp.dims[:, 1], bp.dims[:, 2]
    lo, hi, groups = _window(ctx, bp)
    first = (offs * strides).sum(axis=1)
    if id(s) not in ctx.inbounds:  # else no row of the launch leaves its bounds here (see footprints)
        try:
            _bounds(ctx, s.name, bp, lo, hi, first)
        except SimError:  # a group's pieces cover its block once, so some piece leaves where the block
            for o, block in s.slices:  # does: fail as the first of them would, run on its own
                p = _moved(bp, o, block)
                _bounds(ctx, s.name, p, *_window(ctx, p)[:2], (p.dims[:, 2] * strides).sum(axis=1))
            raise
    if ctx.log is not None:  # a group logs each member's access, in member order
        rows, epochs = offs[ctx.ids], ctx.epoch[ctx.wg[ctx.ids]]
        for o, block in s.slices or ((0, bp.block_shape),):
            ctx.log[value is not None].append((ctx.ids, epochs, rows + o, bp.base, block))
    first = first if off is None else first + off
    return [(rows := ctx.ids if sel is None else ctx.ids[sel[ctx.ids]], first[rows] + neg, view, marks)
            for sel, neg, view, marks in groups]


def _lowest(view: np.ndarray, items: np.ndarray, where: np.ndarray) -> tuple[int, tuple]:
    """The lowest flat buffer index e of window items `items` where `where`, and where they hold e."""
    rel = np.tensordot(np.array(view.strides[1:]) // view.itemsize, np.indices(view.shape[1:]), axes=1)
    flat = (items - rel.min()).reshape(-1, *[1] * rel.ndim) + rel
    return (e := flat[where].min()), np.nonzero(flat == e)


def _touch(ctx: _Ctx, base: str, what: str, rows: np.ndarray, items: np.ndarray, view: np.ndarray,
           marks: np.ndarray, vals: np.ndarray | None) -> None:
    """Check the access of `rows` (items `items` of window `view`) against
    earlier ones and mark it; a store (`vals` given) also writes.  Per
    element, the marks at scale nw are the lowest and highest workgroup
    (schedule position) that read it (row 0 of `lo` and `hi`) and wrote it
    (row 1) in the launch; at scale 1, the same per row since its last
    synchronization point.  A store compares both marks, a load the write marks."""
    bits, k = (lambda a: a.view(f"u{a.itemsize}")), int(vals is not None)
    for scale, (lo, hi) in zip(ctx.scales[base], marks):
        ws = (rows // scale).astype(np.int32).reshape(-1, *[1] * (view.ndim - 1))  # int32, like the marks
        wr, rd = (lo[1][items], hi[1][items]), (lo[0][items], hi[0][items]) if vals is not None else None
        # per element, whether another row or workgroup wrote or read it: a load clashes
        # with another's write; a store with another's read, or its write of other bits
        written = (wr[0] < ws) | (wr[1] > ws)
        if vals is not None and written.any():
            written &= bits(vals) != bits(view[items])
        read = (rd[0] < ws) | (rd[1] > ws) if rd else np.zeros_like(written)
        if (clash := read | written).any():
            e, hit = _lowest(view, items, clash)
            at = next(h for h in zip(*hit) if clash[h])
            (first, last), w = rd if read[at] else wr, ws[at[0]].item()
            _race(ctx, base, what, e, rows[at[0]], scale * (first[at] if first[at] < w else last[at]))
        np.minimum.at(lo[k], items, ws)  # exact where items repeat or their blocks overlap
        np.maximum.at(hi[k], items, ws)
        if scale < ctx.nw:
            ctx.touched.append((lo[k], hi[k], items, rows))
    if vals is None:
        return
    view[items] = vals
    # where rows of this step store other bits to one element, some bits do not
    # land; a race when two rows wrote it (the last scale's marks are per row)
    if (mixed := bits(vals) != bits(view[items])).any() and (mixed := mixed & (lo[1][items] != hi[1][items])).any():
        e, hit = _lowest(view, items, mixed)
        rid, v = rows[hit[0]], bits(vals)[hit]
        pairs = itertools.combinations(range(len(rid)), 2)  # name the first two rows that store other bits
        _race(ctx, base, what, e, *next((rid[x], rid[y]) for x, y in pairs if rid[x] != rid[y] and v[x] != v[y]))


def _race(ctx: _Ctx, base: str, what: str, e: int, r: int, other: int) -> None:
    """Report that row `r` and row `other` race on element `e` of `base`."""
    (g, w), (h, v) = divmod(int(r), ctx.nw), divmod(int(other), ctx.nw)
    who = (f"warps {min(w, v)} and {max(w, v)} touch it between two synchronization points" if g == h else
           "workgroups {} and {} of one launch touch it".format(*sorted((ctx.order[g], ctx.order[h]))))
    raise SimError(f"race on buffer {base!r} element {e % ctx.bufs[base][2]}: {who}, "
                   f"not only reading it or storing the same bits ({ctx.where(what, r)})")


# buffers hold coerced values and tiles are never written in place, so a load copies blocks out of
# their window (an array index never returns a view) without coercing again, C-ordered whatever the
# strides since a tile's layout can change tt.dot's bits; a store writes the tile's values as they are
def _load(s: _Step, ctx: _Ctx, a: list) -> np.ndarray:
    bp, parts = a[0], _access(ctx, s, a[0])
    if ctx.n > 1 and ctx.full and bp.base not in ctx.scales and (bp.dims == bp.dims[:1]).all():
        # every row reads one block that no store changes: gather it once
        return np.broadcast_to(np.ascontiguousarray(parts[0][2][parts[0][1][:1]]), (ctx.n, *bp.block_shape))
    for part in parts if ctx.scales.get(bp.base) else ():
        _touch(ctx, bp.base, s.name, *part, None)
    if len(parts[0][0]) == ctx.n:
        return np.ascontiguousarray(parts[0][2][parts[0][1]])
    data = np.zeros((ctx.n, *bp.block_shape), dtype=ctx.bufs[bp.base][1].dtype)
    for rows, items, view, _ in parts:
        data[rows] = view[items]
    return data


def _store(s: _Step, ctx: _Ctx, a: list) -> None:
    bp, value = a
    for rows, items, view, marks in _access(ctx, s, bp, value):
        vals = value if len(rows) == ctx.n else value[rows]
        if ctx.scales.get(bp.base):
            _touch(ctx, bp.base, s.name, rows, items, view, marks, vals)
        else:
            view[items] = vals


# --------------------------------------------------------------------------
# shared op math

_BINARY = {
    "arith.addf": np.add,
    "arith.subf": np.subtract,
    "arith.mulf": np.multiply,
    "arith.divf": np.divide,
    "arith.maximumf": np.maximum,
    "arith.addi": np.add,
    "arith.subi": np.subtract,
    "arith.muli": np.multiply,
    "arith.divi": np.floor_divide,
    "arith.remi": np.remainder,
}
_CMP = dict(zip(CMP_PREDS, (np.equal, np.not_equal, np.less, np.less_equal, np.greater, np.greater_equal)))
_REDUCE = {"max": np.max, "sum": np.sum}


def _divide(s: _Step, ctx: _Ctx, a: list) -> np.ndarray:
    """``arith.divi`` or ``arith.remi``, which no active row may do by zero;
    -2**31 divided by -1 wraps around to itself."""
    if (zero := ctx.act & (a[1] == 0).reshape(ctx.n, -1).any(axis=1)).any():
        raise SimError(ctx.where(f"{s.name}: integer division by zero", np.argmax(zero)))
    with np.errstate(over="ignore"):
        return _coerce(s.elem, _BINARY[s.kind](a[0], a[1]))


# --------------------------------------------------------------------------
# step form: what a program decodes to

@dataclass(slots=True)
class _Step:
    """One step of a prepared launch, filled in by whoever makes it."""

    kind: str  # IR op kind, which finds the step's semantics
    name: str  # the op as the program spells it, for diagnostics
    # env keys: the ids of the values the op reads; a group's are (key,
    # index) pairs like its binds, with index None for the whole value
    operands: tuple
    results: tuple
    attrs: dict[str, Any]
    shape: tuple[int, ...]  # the (pointee) block shape of the result, or of a store's value
    elem: ElemType | None  # the element type of the same
    is_ptr: bool
    body: list[_Step] | None
    # an extract's slices of its operand (for a pointer, their starts offset
    # the block); a glue's slices of its result, one per piece; an access
    # group's origin and block shape of each member, to log its accesses; a
    # dot group's piece shape
    slices: tuple = ()
    # a group's: per member whose result some step reads, that key and the
    # member's index into the group's result (None: a step of one op)
    binds: tuple | None = None
    folded: bool = False  # whether _fold ran it once, when the launch was prepared: runs skip it


def _typing(t: Any) -> tuple:
    """(shape, elem, is_ptr) of a value of type `t`: its (pointee) block."""
    tile = tile_type(t)
    return tile.shape, tile.elem, isinstance(t, PtrType)


def _decode_op(op: Operation, names: dict[Operation, str], types: dict[int, tuple]) -> _Step:
    """Decode one op; `names` holds the name of each op that is spelled
    other than by its kind, and `types` gains the `_typing` of each value
    that the op and its region define."""
    kind, attrs, body, slices = op.kind, op.attrs, None, ()
    if op.regions:
        region = op.regions[0]
        types.update((id(a), _typing(a.type)) for a in region.args)
        body = [_decode_op(o, names, types) for o in region.ops]
        if region.args:  # scf.for: the induction variable, then the carries
            attrs = {"iv": id(region.args[0]), "iters": [id(a) for a in region.args[1:]]}
    types.update((id(r), _typing(r.type)) for r in op.results)
    rt = op.results[0].type if op.results else op.operands[1].type if kind == "tt.store" else None
    shape, elem, is_ptr = ((), None, False) if rt is None else _typing(rt)
    if kind == "tt.extract":
        slices = _box(block_origin(tile_type(op.operands[0].type).shape, shape, attrs["index"]), shape)
    elif kind == "tt.glue":
        piece = tile_type(op.operands[0].type).shape
        slices = tuple(_box(block_origin(shape, piece, i), piece) for i in range(len(op.operands)))
    return _Step(kind, names.get(op, kind), tuple(id(v) for v in op.operands), tuple(id(r) for r in op.results), attrs,
                 shape, elem, is_ptr, body, slices)


def _walk(steps: list[_Step]) -> Iterator[_Step]:
    for s in steps:
        yield s
        yield from _walk(s.body or [])


def _keys(s: _Step) -> Sequence:
    """The keys of the values `s` reads."""
    return s.operands if s.binds is None else [k for k, _ in s.operands]


# --------------------------------------------------------------------------
# piece groups: the pieces match_target_size cut from one tile, as one step

# kinds whose steps touch no buffer, do not synchronize and give every row
# its value whatever the mask; only a division raises, where an active row
# divides by zero
_PURE = ELEMENTWISE_FLOAT | ELEMENTWISE_INT | {
    "tt.convert", "tt.dot", "tt.splat", "tt.extract", "tt.glue", "tt.reduce", "tt.expand_dims", "tt.broadcast",
    "tt.make_tensor_ptr", "tt.advance", "tt.get_program_id", "tt.warp_id", "tt.alloc", "arith.constant", "arith.cmpi"}
# kinds whose steps on the pieces of a tile give the bits of one step on the
# whole tile: numpy works out each result element from the same operand
# elements by the same operation (tt.dot: one matmul per piece, see _dot),
# and their semantics cannot raise
_GROUPED = (ELEMENTWISE_FLOAT | ELEMENTWISE_INT | {"tt.convert", "tt.dot"}) - {"arith.divi", "arith.remi"}
# kinds whose runs group only where their members are the pieces of one
# whole (a dot grid, the block of an access), each once
_PLACED = {"tt.dot", "tt.load", "tt.store"}
# kinds whose steps may sit between a group's members, which then run after
# them, and are left out when no step reads them: pure ones that cannot raise
_MOVABLE = _PURE - {"arith.divi", "arith.remi"}


def _box(origin: tuple, shape: tuple) -> tuple:
    """The index of the block at `origin` of each row's tile."""
    return (slice(None), *map(slice, origin, map(operator.add, origin, shape)))


def _group(steps: list[_Step], flat: list[_Step], types: dict[Any, tuple], bases: dict[int, Any],
           inbounds: set[int], marked: set) -> list[_Step]:
    """`steps` (`flat`: all of them, nested ones included, in walk order) with
    the piece groups of each block run as one step each, and every movable
    step whose results no step reads left out.  `types` holds the `_typing`
    of each key the steps define (it gains the groups'), `bases` each access
    step's buffer where the proof found it, `inbounds` the access steps proven
    in bounds (it gains each access group whose members all are), `marked`
    the buffers that keep race marks."""
    plan = _Plan({s.results[0]: s for s in flat if s.results}, collections.Counter(k for s in flat for k in s.operands),
                 types, bases, inbounds, marked)
    return _prune(plan.block(steps, plan.runs(steps)), set())


def _prune(steps: list[_Step], live: set) -> list[_Step]:
    """`steps` without the movable ones whose results no later step reads, in
    one walk from the last step to the first.  `live` holds the keys that
    the steps after `steps` read, and gains those that the kept ones read; a
    nested body shares it, as every use follows its definition (a loop's
    carries are keys of the loop, not of a step)."""
    out = []
    for s in reversed(steps):
        if s.binds is not None:
            s.binds = tuple(b for b in s.binds if b[0] in live)
        if s.kind in _MOVABLE and s.results and s.results[0] not in live and not s.binds:
            continue
        if s.body is not None:
            s.body = _prune(s.body, live)
        live.update(_keys(s))
        out.append(s)
    out.reverse()
    return out


@dataclass
class _Plan:
    """What `_group` knows of the whole program, and what its groups made."""

    steps: dict[Any, _Step]  # each step by its first result
    uses: collections.Counter  # how many operands read each key
    types: dict[Any, tuple]
    bases: dict[int, Any]
    inbounds: set[int]
    marked: set
    made: dict[Any, _Step] = field(default_factory=dict)  # each group by its key
    # per key placed so far (a group member's result, a glue a group binds,
    # or a piece that `where` found): the key and origin of `where`
    pos: dict[Any, tuple] = field(default_factory=dict)
    splats: list[_Step] = field(default_factory=list)  # the splats the group being made reads, made for it

    def where(self, k: Any) -> tuple | None:
        """(key, origin) if `k`'s value is the block of that key's value (a
        tile or a block) at that origin: a group member's result, or a piece
        of a value by extracts.  Only an answer found is kept, as a key that
        has none may gain one: `loop` cuts the carries it carries whole."""
        if (at := self.pos.get(k)) is None and (s := self.steps.get(k)) is not None and s.kind == "tt.extract":
            at, up = tuple(sl.start for sl in s.slices[1:]), self.where(s.operands[0])
            at = self.pos[k] = (s.operands[0], at) if up is None else (up[0], tuple(map(operator.add, up[1], at)))
        return at

    def inplace(self, keys: list, targets: list[tuple]) -> tuple | None:
        """(key, origin) if the values of `keys` sit in place in that key's
        value, at `targets` of a box at that origin."""
        at = [self.where(k) for k in keys]
        if None in at or len({k for k, _ in at}) > 1:
            return None
        base = {tuple(map(operator.sub, o, t)) for (_, o), t in zip(at, targets)}
        return (at[0][0], base.pop()) if len(base) == 1 else None

    def signature(self, s: _Step) -> tuple | None:
        """What every member of a run that `s` is in shares, or None if `s`
        cannot start one: an elementwise op or a convert on operands shaped
        like its result; a dot; a load or store of a piece of a block by an
        extract on a buffer that keeps no race marks.  Members do one thing
        to equally typed operands, and an access reads pieces of one block."""
        if s.kind not in _GROUPED and s.kind not in _PLACED:
            return None
        types, one = tuple(self.types[k] for k in s.operands), None
        if s.kind in ("tt.load", "tt.store"):
            if ((at := self.where(s.operands[0])) is None or (base := self.bases.get(id(s))) is None
                    or base in self.marked):
                return None
            one = at[0]
        elif s.kind != "tt.dot" and (not s.shape or any(t[0] != s.shape for t in types)):
            return None
        return s.kind, s.shape, s.elem, s.attrs, types, one

    def block(self, body: list[_Step], groups: list[tuple]) -> list[_Step]:
        """`body` as it runs: each of its `groups` at its last member's place
        and every other step at its own; nested bodies planned in turn."""
        last = {id(g[-1]): (g, at) for g, at in groups}
        moved = {id(m) for g, _ in groups for m in g[:-1]}
        return [x for s in body if id(s) not in moved
                for x in (self.packed(*last[id(s)]) if id(s) in last else self.single(s))]

    def runs(self, body: list[_Step]) -> list[tuple]:
        """The groups of `body`, found in one scan: runs of steps of one
        signature, with only movable steps that read no member between them,
        each with its layout.  A dot or access run is placed as it is found
        and kept only where it has a layout (see `layout`).  Any other run
        comes with `()`: its layout is worked out when it is packed, after
        `loop` has cut the carries that can put its operands in place, and
        it runs as written if it has none."""
        out, run, sig, read = [], [], None, set()  # read: the results of the run's members
        for s in body:
            t = self.signature(s)
            if run and read.isdisjoint(s.operands):
                if t is not None and t == sig:
                    run.append(s)
                    read.update(s.results)
                    continue
                if t is None and s.kind in _MOVABLE:
                    continue
            out.append(run)
            run, sig, read = ([s], t, set(s.results)) if t is not None else ([], None, set())
        found = [(r, self.layout(r) if r[0].kind in _PLACED else ()) for r in out + [run] if len(r) > 1]
        return [(r, at) for r, at in found if at is not None]

    def single(self, s: _Step) -> list[_Step]:
        """`s` as it runs, as a list of steps: none for a glue of the pieces
        of one group's result in place, which that group binds instead."""
        if s.kind == "tt.glue":
            at = self.inplace(s.operands, [tuple(sl.start for sl in box[1:]) for box in s.slices])
            if at is not None and at[0] in self.made:
                self.made[at[0]].binds += ((s.results[0], _box(at[1], s.shape)),)
                self.pos[s.results[0]] = at
                return []
        if s.kind == "scf.for":
            return self.loop(s)
        if s.body is not None:
            s.body = self.block(s.body, self.runs(s.body))
        return [s]

    def loop(self, s: _Step) -> list[_Step]:
        """The loop `s`, with each set of its carries that are the pieces of
        one tile or block carried as that whole, and cut into those pieces
        by extracts at the start of each trip and after the loop: block
        pieces that one ``tt.advance`` moves, or the results of a dot group
        that only the yield reads, glued before the loop and at the end of
        each trip.  The body's groups are found once, after the pointer cuts,
        through which the loads and stores of carried pieces group; a dot
        group is carried as the whole of the layout found with it."""
        body, iters, inits = s.body, list(s.attrs["iters"]), list(s.operands[3:])
        yields, results = list(body[-1].operands), list(s.results)
        moves = {}  # pointer carries by what moves them
        for c, (it, init, y) in enumerate(zip(iters, inits, yields)):
            t = self.steps.get(y)
            if (p := self.where(init)) is not None and t is not None and t.kind == "tt.advance" and t.operands[0] == it:
                moves.setdefault((p[0], t.operands[1:], self.types[it]), []).append(c)
        head, tail, before, after, new = [], [], [], [], ([], [], [], [])  # new inits, carries, yields, results
        gone: set[int] = set()  # the carries carried whole

        def carry(cs: list[int], whole: tuple, origins: list[tuple], q: Any) -> None:
            """Carry the carries `cs`, the pieces at `origins` of `whole`, as
            that whole: block pointer `q` moved, or (None) glued pieces."""
            shape, elem, is_ptr = self.types[iters[cs[0]]]
            x, x2, r = (self.fresh((whole, elem, is_ptr)) for _ in range(3))
            head.extend(self.cut(x, iters[c], o, shape) for c, o in zip(cs, origins))
            after.extend(self.cut(r, results[c], o, shape) for c, o in zip(cs, origins))
            if q is not None:
                t = self.steps[yields[cs[0]]]
                tail.append(_Step(t.kind, t.name, (x, *t.operands[1:]), (x2,), t.attrs, whole, elem, True, None))
            else:
                q = self.fresh((whole, elem, is_ptr))
                pieces = [inits[c] for c in cs]
                before.append(self.splat(pieces, q, whole) or self.glued(q, pieces, origins, whole))
                tail.append(self.glued(x2, [yields[c] for c in cs], origins, whole))
            for ks, k in zip(new, (q, x, x2, r)):
                ks.append(k)
            gone.update(cs)

        for (q, _, _), cs in moves.items():
            origins = [self.where(inits[c])[1] for c in cs]
            if len(cs) > 1 and _covers(origins, self.types[q][0], self.types[iters[cs[0]]][0]):
                carry(cs, self.types[q][0], origins, q)
        groups = self.runs(body)
        for g, at in groups:
            keys = [m.results[0] for m in g]
            if g[0].kind == "tt.dot" and all(self.uses[k] == 1 and k in yields for k in keys):
                carry([yields.index(k) for k in keys], *at, None)
        if gone:
            inits, iters, yields, results = ([k for c, k in enumerate(ks) if c not in gone] + more
                                             for ks, more in zip((inits, iters, yields, results), new))
            s.operands, s.attrs, s.results = (*s.operands[:3], *inits), {**s.attrs, "iters": iters}, tuple(results)
            body[-1].operands = tuple(yields)
        s.body = self.block(head + body[:-1] + tail + body[-1:], groups)
        return [*(x for t in before for x in self.single(t)), s, *after]

    def fresh(self, typ: tuple) -> object:
        """A new key, for a value of type `typ`."""
        self.types[k := object()] = typ
        return k

    def cut(self, whole: Any, key: Any, origin: tuple, shape: tuple) -> _Step:
        """An extract step that cuts the piece at `origin` of `whole` as `key`."""
        _, elem, is_ptr = self.types[whole]
        s = _Step("tt.extract", "tt.extract", (whole,), (key,), {}, shape, elem, is_ptr, None, _box(origin, shape))
        self.steps[key] = s
        return s

    def glued(self, key: Any, keys: list, origins: list[tuple], whole: tuple) -> _Step:
        """A glue step of the pieces `keys` at `origins` of `whole` as `key`."""
        shape, elem, _ = self.types[keys[0]]
        return _Step("tt.glue", "tt.glue", tuple(keys), (key,), {}, whole, elem, False, None,
                     tuple(_box(o, shape) for o in origins))

    def packed(self, members: list[_Step], at: tuple) -> list[_Step]:
        """One step for `members` on the whole their results are pieces of,
        placed by `at` (their layout, or `()` to work it out now), after the
        splats its operands need.  It binds each member's result as a view of
        its own.  An access group accesses the block once and logs it per
        member, in their order; it is proven in bounds if they all are.  If
        they have no layout, or `pack` reads some operand in none of its
        ways, the members as written."""
        m0, self.splats, slices = members[0], [], ()
        if not (at := at or self.layout(members)):
            return members
        whole, origins = at
        access = m0.kind in ("tt.load", "tt.store")
        if m0.kind == "tt.dot":  # whole A, B and C: the rows of A pieces, the columns of B pieces
            (r, c), k, slices = whole, self.types[m0.operands[0]][0][1], m0.shape
            a, b, acc = ([m.operands[j] for m in members] for j in range(3))
            ops = [self.pack(a, [(o[0], 0) for o in origins], (r, k)),
                   self.pack(b, [(0, o[1]) for o in origins], (k, c)), self.pack(acc, origins, whole)]
        elif access:  # the block, and a store's value
            ops = [(self.where(m0.operands[0])[0], None)]
            if m0.kind == "tt.store":
                ops.append(self.pack([m.operands[1] for m in members], origins, whole))
            slices = tuple((np.array(o), m.shape) for m, o in zip(members, origins))
        else:
            ops = [self.pack([m.operands[j] for m in members], origins, whole) for j in range(len(m0.operands))]
        if None in ops:
            return members
        binds = tuple((m.results[0], _box(o, m.shape)) for m, o in zip(members, origins) if m.results)
        g = _Step(m0.kind, m0.name, tuple(ops), (object(),) * bool(m0.results), m0.attrs, whole, m0.elem, False,
                  None, slices, binds)
        if access and all(id(m) in self.inbounds for m in members):
            self.inbounds.add(id(g))
        if g.results:
            self.made[g.results[0]] = g
            self.pos.update((m.results[0], (g.results[0], o)) for m, o in zip(members, origins))
        return [*self.splats, g]

    def layout(self, members: list[_Step]) -> tuple[tuple, list[tuple]] | None:
        """The shape of the whole the members' results are pieces of, and
        each one's origin in it, or None if they are not its pieces, each
        once.  A dot run's whole is a grid of A rows by B columns, which the
        dots read in row-major order; an access run's, the block its pointer
        pieces cover; any other run's, that of an operand whose pieces cover
        a box of one value once."""
        m0, piece = members[0], members[0].shape
        if m0.kind == "tt.dot":
            rows, cols = (list(dict.fromkeys(m.operands[j] for m in members)) for j in (0, 1))
            if [m.operands[:2] for m in members] != [(a, b) for a in rows for b in cols]:
                return None
            (pr, pc), grid = piece, itertools.product(range(len(rows)), range(len(cols)))
            return (len(rows) * pr, len(cols) * pc), [(i * pr, j * pc) for i, j in grid]
        if m0.kind in ("tt.load", "tt.store"):
            at = [self.where(m.operands[0]) for m in members]
            whole, origins = self.types[at[0][0]][0], [o for _, o in at]
            return (whole, origins) if _covers(origins, whole, piece) else None
        for j in range(len(m0.operands)):
            at = [self.where(m.operands[j]) for m in members]
            if None in at or len({k for k, _ in at}) > 1 or self.types[members[0].operands[j]][0] != piece:
                continue
            lo = tuple(map(min, zip(*(o for _, o in at))))
            origins = [tuple(map(operator.sub, o, lo)) for _, o in at]
            whole = tuple(map(operator.add, map(max, zip(*origins)), piece))
            if _covers(origins, whole, piece):
                return whole, origins
        return None

    def pack(self, keys: list, targets: list[tuple], shape: tuple) -> tuple | None:
        """An operand of `shape` whose block at `targets[i]` is the value of
        `keys[i]`, as a (key, index) pair: a splat of one scalar to the whole
        where they all splat it, a box of one value where they sit in place
        in it, or one value as it is where they all are that value, shaped
        like the whole and at its origin; None if it is none of these."""
        if (s := self.splat(keys, object(), shape)) is not None:
            self.splats.append(s)
            return s.results[0], None
        if (at := self.inplace(keys, targets)) is not None:
            return at[0], _box(at[1], shape)
        if len(set(keys)) == 1 and self.types[keys[0]][0] == shape and not any(map(any, targets)):
            return keys[0], None
        return None

    def splat(self, keys: list, key: Any, shape: tuple) -> _Step | None:
        """A splat step of `shape` as `key`, if `keys` all splat one scalar."""
        s = self.steps.get(keys[0])
        if s is None or s.kind != "tt.splat" or any(getattr(self.steps.get(k), "operands", None) != s.operands
                                                      or self.steps[k].kind != "tt.splat" for k in keys):
            return None
        return _Step(s.kind, s.name, s.operands, (key,), s.attrs, shape, s.elem, False, None)


def _covers(origins: list[tuple], whole: tuple, piece: tuple) -> bool:
    """Whether the pieces at `origins` cover `whole`, each block once."""
    if any(w % p for w, p in zip(whole, piece)):
        return False
    grid = [w // p for w, p in zip(whole, piece)]
    return sorted(origins) == [tuple(g * p for g, p in zip(ix, piece)) for ix in itertools.product(*map(range, grid))]


# --------------------------------------------------------------------------
# the executor and its semantics table


def _rows(vals: list) -> np.ndarray:
    """Scalar operands as one row of int64 values per batch row."""
    return np.stack(vals, axis=1, dtype=np.int64)


def _moved(p: BlockPointer, by: Any, block: tuple[int, ...]) -> BlockPointer:
    """`p` with every row's offsets moved `by`, addressing `block`."""
    dims = p.dims.copy()
    dims[:, 2] += by
    return BlockPointer(p.base, dims, block)


def _extract(s: _Step, ctx: _Ctx, a: list) -> np.ndarray | BlockPointer:
    if s.is_ptr:
        return _moved(a[0], [sl.start for sl in s.slices[1:]], s.shape)
    return a[0][s.slices]  # a view: tiles are never written in place


def _glue(s: _Step, ctx: _Ctx, a: list) -> np.ndarray:
    out = np.empty((ctx.n, *s.shape), dtype=a[0].dtype)
    for sl, piece in zip(s.slices, a):
        out[sl] = piece
    return out


def _dot(s: _Step, ctx: _Ctx, a: list) -> np.ndarray:
    """``a @ b + c``, an f32 matmul, as f16 and f32 tiles both hold float32
    data.  A dot group reads whole tiles and cuts them by its piece shape (its
    `slices`) into views with grid axes before the piece axes: A into its
    rows of pieces, B into its columns, the result into its grid, where a
    grid axis of 1 serves every piece along it.  Each piece is one matmul, as
    when the pieces run one by one, whose product lands in place in the
    result before c is added.  An A or B operand with a zero stride on a tile
    axis (a splat, a broadcast) is made dense first, as matmul takes its path,
    and so its order of sums, by the strides of each row's matrices."""
    x, y, acc = a
    if 0 in x.strides[1:]:
        x = np.ascontiguousarray(x)
    if 0 in y.strides[1:]:
        y = np.ascontiguousarray(y)
    if not s.slices:
        return x @ y + acc
    (pr, pc), (r, c), k = s.slices, s.shape, x.shape[2]
    out = np.empty((ctx.n, r, c), dtype=np.float32)
    grid = lambda v, *shape: v.reshape(ctx.n, *shape).transpose(0, 1, 3, 2, 4)  # noqa
    np.matmul(grid(x, r // pr, pr, 1, k), grid(y, 1, k, c // pc, pc), out=grid(out, r // pr, pr, c // pc, pc))
    out += acc
    return out


def _sync(ctx: _Ctx, what: str) -> np.ndarray:
    """A synchronization point, which all warps of each workgroup with an
    active warp must reach: ends those workgroups' epoch, and returns which
    workgroups they are."""
    act = ctx.act.reshape(-1, ctx.nw)
    live = act.any(axis=1)
    if (part := live & ~act.all(axis=1)).any():
        g = np.argmax(part)
        idle = np.flatnonzero(~act[g]).tolist()
        at = ctx.where(what, g * ctx.nw + np.argmax(act[g]))
        raise SimError(f"barrier divergence: warps {idle} do not reach {what} with the others ({at})")
    rows, keep = live.repeat(ctx.nw), []
    for lo, hi, items, ids in ctx.touched:  # mark windows
        here = rows[ids]
        lo[items[here]], hi[items[here]] = ctx.n, -1
        if not here.all():
            keep.append((lo, hi, items[~here], ids[~here]))
    ctx.touched = keep
    ctx.epoch[live] += 1
    return live


def _cross(s: _Step, ctx: _Ctx, a: list) -> np.ndarray:
    live = _sync(ctx, s.name)
    kind, dst, x = s.attrs["kind"], s.attrs.get("dst_warps"), a[0]
    wgs = x.reshape(-1, ctx.nw, *x.shape[1:])
    acc = functools.reduce(np.maximum if kind == "max" else np.add, wgs.swapaxes(0, 1))  # warps in id order
    to = np.isin(np.arange(ctx.nw), dst) if dst else np.ones(ctx.nw, dtype=np.bool_)
    out = np.where(to.reshape(-1, *[1] * (x.ndim - 1)), _coerce(s.elem, acc)[:, None], wgs)
    if ctx.log is not None:  # row views: tiles are never written in place
        ctx.log[2].extend((g, CrossRecord(ctx.order[g], kind, tuple(dst) if dst else None, tuple(wgs[g]), tuple(out[g])))
                          for g in np.flatnonzero(live).tolist())
    return out.reshape(x.shape)


# every step kind but loops and branches; each entry maps (step,
# context, operand values) to the result value
_SEMANTICS: dict[str, Callable[[_Step, _Ctx, list], Any]] = {
    "arith.constant": lambda s, ctx, a: _coerce(s.elem, np.full((ctx.n, *s.shape), s.attrs["value"])),
    "tt.get_program_id": lambda s, ctx, a: ctx.pid[s.attrs["axis"]],
    "tt.warp_id": lambda s, ctx, a: ctx.warp,
    "tt.make_tensor_ptr": lambda s, ctx, a: BlockPointer(a[0], _rows(a[1:]).reshape(ctx.n, 3, -1), s.shape),
    "tt.advance": lambda s, ctx, a: _moved(a[0], _rows(a[1:]), a[0].block_shape),
    "tt.load": _load,
    "tt.store": _store,
    "tt.dot": _dot,
    "tt.reduce": lambda s, ctx, a: _coerce(s.elem, _REDUCE[s.attrs["kind"]](a[0], axis=s.attrs["axis"] + 1)),
    "tt.splat": lambda s, ctx, a: np.broadcast_to(a[0].reshape(ctx.n, *[1] * len(s.shape)), (ctx.n, *s.shape)),
    "tt.convert": lambda s, ctx, a: _coerce(s.elem, a[0]),
    "tt.expand_dims": lambda s, ctx, a: a[0].reshape(ctx.n, *s.shape),
    "tt.broadcast": lambda s, ctx, a: np.broadcast_to(a[0], (ctx.n, *s.shape)),
    "tt.extract": _extract,
    "tt.glue": _glue,
    "tt.alloc": lambda s, ctx, a: ctx.ptrs[id(s)],
    "tt.barrier": lambda s, ctx, a: _sync(ctx, s.name),
    **dict.fromkeys(("scf.yield", "tt.return"), lambda s, ctx, a: None),  # each ends its body
    "tt.cross_warp_reduce": _cross,
    "math.exp": lambda s, ctx, a: _coerce(s.elem, np.exp(a[0])),
    **{k: lambda s, ctx, a, f=f: _coerce(s.elem, f(a[0], a[1])) for k, f in _BINARY.items()},
    **dict.fromkeys(("arith.divi", "arith.remi"), _divide),
    "arith.cmpi": lambda s, ctx, a: _CMP[s.attrs["pred"]](a[0], a[1]),
}


def _select(live: np.ndarray, new: Any, old: Any) -> Any:
    """Per warp, `new` where `live`, else `old`."""
    if isinstance(new, BlockPointer):  # one buffer: `_loop` checks it
        return BlockPointer(new.base, _select(live, new.dims, old.dims), new.block_shape)
    return np.where(live.reshape(-1, *[1] * (new.ndim - 1)), new, old)


def _quiet(ctx: _Ctx) -> contextlib.AbstractContextManager:
    """Under a partial mask, masked-off warps compute values that nobody reads,
    and may divide by zero or overflow: keep numpy quiet about them."""
    return contextlib.nullcontext() if ctx.full else np.errstate(all="ignore")


def _loop(s: _Step, ctx: _Ctx, env: dict) -> None:
    """Run an scf.for; a warp whose trip count is spent sits out, masked and
    keeping its carries, while others still iterate."""
    lb, ub, step = _rows([env[k] for k in s.operands[:3]]).T
    outer = ctx.act
    if (bad := outer & (step < 1)).any():
        w = np.argmax(bad)
        raise SimError(ctx.where(f"{s.name}: non-positive loop step {step[w]}", w))
    trips = np.where(outer, trip_count(lb, ub, np.maximum(step, 1)), 0)
    vals = [env[k] for k in s.operands[3:]]
    for k in range(int(trips.max())):
        ctx.mask(trips > k)
        env[s.attrs["iv"]] = (lb + k * step).astype(np.int32)
        env.update(zip(s.attrs["iters"], vals))
        with _quiet(ctx):
            _exec(s.body, ctx, env)
        new = [env[k] for k in s.body[-1].operands]  # the body ends in scf.yield
        if not ctx.full:
            for x, y in zip(new, vals):
                if isinstance(x, BlockPointer) and x.base != y.base:
                    why = f"warps leave the loop holding pointers into different buffers {y.base!r} and {x.base!r}"
                    raise SimError(ctx.where(f"{s.name}: {why}"))
            new = [_select(ctx.act, x, y) for x, y in zip(new, vals)]
        vals = new
    ctx.mask(outer)
    env.update(zip(s.results, vals))


def _exec(steps: list[_Step], ctx: _Ctx, env: dict) -> None:
    """Run steps for the active rows."""
    for s in steps:
        if s.folded:  # its results are in env from the start
            continue
        if (sem := _SEMANTICS.get(s.kind)) is not None:
            if s.binds is None:
                v = sem(s, ctx, [env[k] for k in s.operands])
            else:  # a group
                v = sem(s, ctx, [env[k] if ix is None else env[k][ix] for k, ix in s.operands])
                for k, ix in s.binds:
                    env[k] = v[ix]
            if s.results:
                env[s.results[0]] = v
        elif s.kind == "scf.for":
            _loop(s, ctx, env)
        else:  # scf.if
            outer, taken = ctx.act, env[s.operands[0]] & ctx.act
            if taken.any():
                ctx.mask(taken)
                with _quiet(ctx):
                    _exec(s.body, ctx, env)
                ctx.mask(outer)


def _record(ctx: _Ctx, trace: RunTrace) -> None:
    """Add the traced accesses and cross-warp reduces to `trace` in serial order."""
    for recs, out in zip(ctx.log, (trace.loads, trace.stores)):  # each (rows, epochs, offsets, base, block)
        if not recs:
            continue
        rows = np.concatenate([r[0] for r in recs])
        seq = np.repeat(np.arange(len(recs)), [len(r[0]) for r in recs])
        at = np.lexsort((seq, ctx.warp[rows], np.concatenate([r[1] for r in recs]), ctx.wg[rows]))
        offs = [o for r in recs for o in zip(*r[2].T.tolist())]
        ks, rows = seq[at].tolist(), rows[at]
        # each TraceAccess made by tuple.__new__, which skips a NamedTuple's Python-level __new__
        out.extend(map(tuple.__new__, itertools.repeat(TraceAccess), zip(
            np.array(ctx.order)[ctx.wg[rows]].tolist(), ctx.warp[rows].tolist(), [recs[k][3] for k in ks],
            [offs[j] for j in at.tolist()], [recs[k][4] for k in ks])))
    trace.cross.extend(rec for _, rec in sorted(ctx.log[2], key=lambda c: c[0]))


# --------------------------------------------------------------------------
# launch-known steps: run once per launch


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of `a` that cannot be written through."""
    view = a.view()
    view.setflags(write=False)
    return view


def _fold(flat: list[_Step], ctx: _Ctx, env: dict) -> None:
    """Fold the launch-known steps of `flat`, a launch's decoded steps in walk
    order with nested ones included: each step of a `_PURE` kind whose
    operands are all in `env` (the launch's arguments and the results folded
    before it) runs once, by its semantics, in `ctx`, a run context of the
    launch with all rows active.  `env` gains its result, read-only, and the
    step is marked folded.  A step that raises, or would warn, is not folded:
    it does so where it runs."""
    for s in flat:
        if s.kind not in _PURE or any(k not in env for k in s.operands):
            continue
        try:
            with np.errstate(all="raise"):
                v = _SEMANTICS[s.kind](s, ctx, [env[k] for k in s.operands])
        except Exception:  # it raises, or warns, where it runs
            continue
        env[s.results[0]] = BlockPointer(v.base, _read_only(v.dims), v.block_shape) if s.is_ptr else _read_only(v)
        s.folded = True


# --------------------------------------------------------------------------
# prepared launches


def _bindings(prog: KernelFn | VProgram) -> tuple[int, Sequence[tuple[str, ElemType]]]:
    """Warps per workgroup, and per argument its buffer name and element type."""
    if isinstance(prog, VProgram):
        return prog.num_warps, prog.args
    bindings = []
    for a in prog.args:
        if not isinstance(a.type, PtrType) or a.type.is_block:
            raise SimError(f"@{prog.name}: only buffer pointer arguments are bindable, %{a.name} is {_type_desc(a.type)}")
        bindings.append((a.name, a.type.pointee))
    return prog.num_warps if prog.level != "workgroup" else 1, bindings


def _bind(name: str, bindings: Sequence[tuple[str, ElemType]], mem: DeviceMemory) -> tuple:
    """Check that `mem` binds every argument; per argument, its buffer's name, element type and size."""
    for b, elem in bindings:
        if b not in mem:
            raise SimError(f"@{name}: no buffer bound for argument %{b}")
        if mem.elem_of(b) != elem:
            raise SimError(f"@{name}: buffer {b} holds {mem.elem_of(b).value}, argument wants {elem.value}")
    return tuple((b, elem, mem.raw(b).size) for b, elem in bindings)


class Launch:
    """A program decoded and proven for one launch shape: a grid, a schedule
    and the buffers it binds.  It holds the steps, with the pieces of each
    tile grouped (see the module docstring), the SLM layout (each
    ``tt.alloc``'s pointer, the same in every workgroup), the footprint
    verdicts and the run-time checks they leave, and in `env` the values a
    run starts with, where some step reads them: a buffer name per argument
    and the results of the folded steps.  Nothing in it changes when it runs,
    so any number of runs may share it."""

    def __init__(self, prog: KernelFn | VProgram, nw: int, bindings: Sequence, buffers: tuple,
                 order: tuple[int, ...], pids: list[tuple[int, int, int]]) -> None:
        self.name, self.nw, self.order, self.pids = prog.name, nw, order, pids
        self.bindings, self.buffers = bindings, buffers
        names: dict[Operation, str] = {}
        try:
            if isinstance(prog, VProgram):  # run the IR it spells, under its instructions' names
                prog, names = raise_program(prog)
            verify_or_raise(prog)
        except (LoweringError, VerifyError) as exc:
            raise SimError(str(exc)) from None
        self.env = {id(a): a.name for a in prog.args}
        self.types: dict[int, tuple] = {}  # see _decode_op
        self.steps = [_decode_op(op, names, self.types) for op in prog.body.ops]
        ng = len(order)
        self.n = ng * nw
        # shared by every run, so read-only
        self.wg, self.warp = _read_only(np.arange(self.n) // nw), _read_only(np.arange(self.n, dtype=np.int32) % nw)
        self.pid = _read_only(np.array([pids[g] for g in order], dtype=np.int32).T.repeat(nw, axis=1))
        allocs = [s for s in _walk(self.steps) if s.kind == "tt.alloc"]
        self.slm_used = np.cumsum([int(np.prod(s.shape)) * s.elem.nbytes for s in allocs], dtype=np.int64)
        self.ptrs: dict[int, BlockPointer] = {}  # by tt.alloc step
        self.slm: dict[str, tuple[ElemType, int, np.ndarray]] = {}  # by name: elem, one workgroup's size, row offsets
        for i, s in enumerate(allocs):  # a row-major block over the whole allocation, in every workgroup's SLM
            size, slm = int(np.prod(s.shape)), f"%slm{i}"
            dims = [s.shape, [int(np.prod(s.shape[d + 1 :])) for d in range(len(s.shape))], [0] * len(s.shape)]
            self.ptrs[id(s)] = BlockPointer(slm, _read_only(np.tile(dims, (self.n, 1, 1))), s.shape)
            self.slm[slm] = (s.elem, size, _read_only(np.repeat(np.arange(ng) * size, nw)))
        self.facts: footprints.Footprints | None = None  # set by _prove
        self.scales: dict[str, tuple[int, ...]] = {}
        self.inbounds: set[int] = set()

    def _prove(self, mem: DeviceMemory) -> None:
        """Fold the launch-known steps, then prove the footprints from the
        folded values, and keep the run-time checks they leave: race marks on
        each buffer a store can reach and that is not proven race-free
        (`scales` keeps every buffer a store can reach, a proven one with no
        scales), and bounds checks on each access step not proven in bounds.
        Then group the steps, which the verdicts decide in part, and drop
        the folded values that no step left reads."""
        flat, ctx = list(_walk(self.steps)), _Ctx(self, mem, None)
        _fold(flat, ctx, self.env)
        self.facts = facts = footprints.prove(self.steps, flat, ctx, self.env)
        # workgroups race on device buffers, the warps of one workgroup on any
        ng, nw = len(self.order), self.nw
        self.scales = {b: () if why is None else (nw,) * (ng > 1 and b not in self.slm) + (1,) * (nw > 1)
                       for b, why in facts.races.items()}
        self.inbounds = {id(s) for s, _, _, why in facts.accesses if why is None}
        marked = {b for b, sc in self.scales.items() if sc}
        bases = {id(s): b for s, b, _, _ in facts.accesses}
        self.steps = _group(self.steps, flat, self.types, bases, self.inbounds, marked)
        # the fold ran before grouping left steps out: keep the values some step still reads
        live = {k for s in _walk(self.steps) for k in _keys(s)}
        self.env = {k: v for k, v in self.env.items() if k in live}

    def run(self, mem: DeviceMemory, trace: RunTrace | None = None) -> DeviceMemory:
        """Execute the launch as one batch on `mem`, which must bind the
        buffers it was prepared for, and return the memory after it: a copy
        of each buffer a store can reach (each of `scales`), and a read-only
        view of each other buffer of `mem`, which the run cannot change."""
        for (b, _, want), (_, _, size) in zip(self.buffers, _bind(self.name, self.bindings, mem)):
            if size != want:
                raise SimError(f"@{self.name}: buffer {b} holds {size} elements, the launch was prepared for {want}")
        out = DeviceMemory()
        out.shapes = dict(mem.shapes)
        out._bufs = {b: (e, a.copy() if b in self.scales else _read_only(a)) for b, (e, a) in mem._bufs.items()}
        ctx = _Ctx(self, out, None if trace is None else ([], [], []))
        _exec(self.steps, ctx, dict(self.env))
        if trace is not None:
            _record(ctx, trace)
        return out


# the launches prepared so far: per program, its launches by the rest of prepare's key
_PREPARED: weakref.WeakKeyDictionary[KernelFn | VProgram, dict[tuple, Launch]] = weakref.WeakKeyDictionary()


def prepare(prog: KernelFn | VProgram, launch: LaunchConfig, mem: DeviceMemory) -> Launch:
    """The launch of `prog` with `launch` on memory shaped like `mem`:
    verified, decoded, folded, proven and grouped on the first call, and the
    same `Launch` on every later call with the same program object, grid,
    schedule and bound buffers (name, element type, size).  The bindings, the
    schedule and the SLM budget are checked on every call."""
    nw, bindings = _bindings(prog)
    buffers = _bind(prog.name, bindings, mem)
    gx, gy, gz = launch.grid
    pids = [(x, y, z) for z in range(gz) for y in range(gy) for x in range(gx)]
    order = tuple(launch.wg_order) if launch.wg_order is not None else tuple(range(len(pids)))
    if sorted(order) != list(range(len(pids))):
        raise SimError(f"wg_order must be a permutation of 0..{len(pids) - 1}")
    held = _PREPARED.setdefault(prog, {})
    key = (tuple(launch.grid), order, buffers)
    if (ready := held.get(key)) is None:
        ready = Launch(prog, nw, bindings, buffers, order, pids)
    if (over := ready.slm_used[ready.slm_used > launch.slm_budget]).size:  # every workgroup allocates the same
        raise SimError(f"SLM overflow: {over[0]} bytes exceeds budget {launch.slm_budget} (@{prog.name} wg={order[0]})")
    if ready.facts is None:
        ready._prove(mem)
        held[key] = ready
    return ready


def run(
    prog: KernelFn | VProgram,
    launch: LaunchConfig,
    mem: DeviceMemory,
    trace: RunTrace | None = None,
) -> DeviceMemory:
    """Execute the launch as one batch; returns the memory after it (see `Launch.run`)."""
    return prepare(prog, launch, mem).run(mem, trace)
