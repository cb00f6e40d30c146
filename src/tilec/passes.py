"""Lowering passes.

Three passes carry a kernel from workgroup-shaped tiles down to
machine-sized ones:

  assign_layouts      annotate every tile with a layout encoding describing
                      how it is split across the workgroup's warps
  distribute_to_warps shrink types to one warp's share and offset block
                      pointers by the warp's tile origin
  match_target_size   split tiles into pieces the target's load and dot
                      units accept, chaining dots over the contraction dim

Source written per warp (level "warp") needs neither layouts nor
distribution, so the first two passes pass it through untouched.

Every pass rebuilds through one skeleton, ``_Rebuild``: it maps each old
value to its new values, rebuilds scf.for and scf.if, and hands every other
op to the pass.  One rule, ``_ties``, says which values share a shape, a
layout and a split: layout assignment propagates along its pairs, and target
matching splits each tied set alike and runs each tying op piece by piece.
Loop-carry groups come from ``ir.loop_carries``, tile types from ``ir.tile_type``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Any, Callable, Iterator, Sequence

from .ir import (
    ELEMENTWISE_FLOAT,
    ELEMENTWISE_INT,
    Diagnostic,
    FunctionBuilder,
    KernelFn,
    Operation,
    PtrType,
    TensorType,
    TilingHint,
    Type,
    Value,
    block_index,
    block_origin,
    loop_carries,
    retile,
    tile_type,
    verify_or_raise,
    walk_fn_ops,
)
from .layouts import (
    BlockedEncoding,
    DotOperandEncoding,
    LayoutError,
    SliceEncoding,
    equivalent_blocked,
    tile_root,
)
from .textio import _type_desc
from .visa import PVC, TargetConfig, VProgram, lower


class PassError(RuntimeError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


def _fail(fn: KernelFn, message: str, op: Operation | None = None) -> PassError:
    return PassError([Diagnostic(message, fn.name, op)])


# --------------------------------------------------------------------------
# workload classification

_CHAIN_OPS = (
    ELEMENTWISE_FLOAT
    | ELEMENTWISE_INT
    | {"tt.reduce", "tt.cross_warp_reduce", "tt.convert", "tt.expand_dims", "tt.broadcast", "tt.splat"}
)


@dataclass(frozen=True)
class Workload:
    kind: str  # "gemm" | "attention" | "reduction" | "elementwise"
    root: Operation | None
    hint: str | None  # tiling hint for the root tile


_DEFAULT_HINT = {"gemm": None, "attention": "horizontal", "reduction": "horizontal", "elementwise": None}


def _flow_map(fn: KernelFn) -> dict[int, list[Value]]:
    """Each value's id to the values its data flows into through
    tile-shaping ops: the results of every ``_CHAIN_OPS`` op that uses it,
    and the other members of each loop-carry group it belongs to."""
    flow: dict[int, list[Value]] = {}
    for op in walk_fn_ops(fn):
        if op.kind in _CHAIN_OPS:
            for v in op.operands:
                flow.setdefault(id(v), []).extend(op.results)
        for group in loop_carries(op):
            for m in group:
                flow.setdefault(id(m), []).extend(o for o in group if o is not m)
    return flow


def _reachable_values(flow: dict[int, list[Value]], start: Value) -> set[int]:
    """Ids of the values start's data reaches through ``flow``."""
    seen = {id(start)}
    frontier = [start]
    while frontier:
        for w in flow.get(id(frontier.pop()), ()):
            if id(w) not in seen:
                seen.add(id(w))
                frontier.append(w)
    return seen


def classify_workload(fn: KernelFn) -> Workload:
    """Name the kernel's compute pattern and pick the op whose tile anchors
    layout assignment: the final dot of a dot chain, the last unchained dot,
    the last reduce, or the last stored tile."""
    dots = [op for op in walk_fn_ops(fn) if op.kind == "tt.dot"]
    if dots:
        flow = _flow_map(fn)
        reach = {id(d): _reachable_values(flow, d.results[0]) for d in dots}
        # a final dot's result reaches no other dot's a or b operand
        final = [
            d
            for d in dots
            if not any(id(o.operands[i]) in reach[id(d)] for o in dots if o is not d for i in (0, 1))
        ]
        if len(final) == len(dots):  # no dot feeds another
            root = dots[-1]
            return Workload("gemm", root, root.attrs.get("tiling") or _DEFAULT_HINT["gemm"])
        if len(final) != 1:
            raise _fail(fn, f"attention pattern needs one final dot, found {len(final)}")
        root = final[0]
        return Workload("attention", root, root.attrs.get("tiling") or _DEFAULT_HINT["attention"])
    reduces = [op for op in walk_fn_ops(fn) if op.kind == "tt.reduce"]
    if reduces:
        root = reduces[-1]
        return Workload("reduction", root, _DEFAULT_HINT["reduction"])
    stores = [op for op in walk_fn_ops(fn) if op.kind == "tt.store"]
    root = stores[-1] if stores else None
    return Workload("elementwise", root, _DEFAULT_HINT["elementwise"])


# --------------------------------------------------------------------------
# function rebuilding

class _Rebuild:
    """The one way a pass rebuilds a function.

    Every old value maps to a list of new values: one for a clone or a warp
    distribution, its target-sized pieces after matching.  scf.for and
    scf.if are rebuilt here, loop carries flattened piece by piece, with a
    memo scope per region: a value built inside a region does not dominate
    uses after it.  Every other op goes to the pass's ``emit`` callback."""

    def __init__(self, fn: KernelFn, level: str, arg_types: Sequence[Type] | None = None):
        types = [a.type for a in fn.args] if arg_types is None else arg_types
        self.fn = fn
        self.fb = FunctionBuilder(
            fn.name,
            [(a.name, t) for a, t in zip(fn.args, types)],
            num_warps=fn.num_warps,
            level=level,
        )
        self.vals: dict[int, list[Value]] = {id(a): [na] for a, na in zip(fn.args, self.fb.fn.args)}
        self.scopes: list[dict[Any, Value]] = [{}]

    def one(self, v: Value) -> Value:
        return self.vals[id(v)][0]

    def copy(self, op: Operation, result_types: Sequence[Type], attrs: dict[str, Any] | None = None) -> None:
        """Re-emit op on its operands' single new values."""
        nop = self.fb.op(op.kind, [self.one(v) for v in op.operands], op.attrs if attrs is None else attrs, result_types)
        for r, nr in zip(op.results, nop.results):
            self.vals[id(r)] = [nr]

    def memo(self, key: Any, make: Callable[[], Value]) -> Value:
        """A value made once per key where it dominates, in the innermost scope."""
        for frame in reversed(self.scopes):
            if key in frame:
                return frame[key]
        self.scopes[-1][key] = got = make()
        return got

    def run(self, emit: Callable[[Operation], None]) -> KernelFn:
        self._region(self.fn.body.ops, emit)
        return self.fb.build()

    def _region(self, ops: Sequence[Operation], emit: Callable[[Operation], None]) -> None:
        for op in ops:
            if op.kind == "scf.for":
                lb, ub, step = (self.one(v) for v in op.operands[:3])
                inits = [self.vals[id(v)] for v in op.operands[3:]]
                iv, args = self.fb.begin_for(lb, ub, step, [p for ps in inits for p in ps])
                body = op.regions[0]
                self.vals[id(body.args[0])] = [iv]
                self._unflatten(body.args[1:], args, inits)
                self.scopes.append({})
                self._region(body.ops[:-1], emit)
                yields = [p for v in body.ops[-1].operands for p in self.vals[id(v)]]
                self.scopes.pop()
                self._unflatten(op.results, self.fb.end_for(yields), inits)
            elif op.kind == "scf.if":
                self.fb.begin_if(self.one(op.operands[0]))
                self.scopes.append({})
                self._region(op.regions[0].ops, emit)
                self.scopes.pop()
                self.fb.end_if()
            else:
                emit(op)

    def _unflatten(self, olds: Sequence[Value], flat: Sequence[Value], like: list[list[Value]]) -> None:
        at = 0
        for old, ps in zip(olds, like):
            self.vals[id(old)] = list(flat[at : at + len(ps)])
            at += len(ps)


def _clone_fn(
    fn: KernelFn,
    type_of: Callable[[Value], Type] = lambda v: v.type,
    attrs_of: Callable[[Operation], dict[str, Any]] = lambda op: op.attrs,
) -> KernelFn:
    """Structure-preserving clone with per-value retyping and attr rewriting."""
    rb = _Rebuild(fn, fn.level, [type_of(a) for a in fn.args])
    return rb.run(lambda op: rb.copy(op, [type_of(r) for r in op.results], attrs_of(op)))


def apply_tiling_hints(fn: KernelFn, hints: dict[int, str]) -> KernelFn:
    """Override the tiling attr of the i-th dot (walk order) per ``hints``."""
    dots = [op for op in walk_fn_ops(fn) if op.kind == "tt.dot"]
    for i, hint in hints.items():
        if not (0 <= i < len(dots)):
            raise _fail(fn, f"tiling hint names dot {i} but the kernel's dot count is {len(dots)}")
        if hint not in tuple(TilingHint):
            raise _fail(fn, f"unknown tiling hint {hint!r}")
    index = {id(d): i for i, d in enumerate(dots)}

    def attrs_of(op: Operation) -> dict[str, Any]:
        attrs = dict(op.attrs)
        if op.kind == "tt.dot" and index[id(op)] in hints:
            attrs["tiling"] = hints[index[id(op)]]
        return attrs

    return _clone_fn(fn, attrs_of=attrs_of)


# --------------------------------------------------------------------------
# layout assignment

# proposal priorities: pinned seeds beat structural rules beat equality rules
_SEED, _STRUCT, _EQ = 3, 2, 1


def _carries_layout(t: Type) -> bool:
    if isinstance(t, TensorType):
        return t.rank >= 1
    return isinstance(t, PtrType) and t.is_block


def _block_shape(v: Value) -> tuple[int, ...]:
    return tile_type(v.type).shape


def _insert_dim(enc: BlockedEncoding, axis: int) -> BlockedEncoding:
    size = enc.size_per_warp[:axis] + (1,) + enc.size_per_warp[axis:]
    warps = enc.warps_per_cta[:axis] + (1,) + enc.warps_per_cta[axis:]
    order = tuple(d + 1 if d >= axis else d for d in enc.order) + (axis,)
    return BlockedEncoding(size, warps, order)


def _ties(op: Operation) -> Iterator[tuple[Value, Value]]:
    """Pairs of tiles that op ties to one shape, one layout and one split: a
    load, advance or convert and its source, a store's pointer and value,
    an elementwise op's operands and result, a dot's accumulator and result,
    and the members of each loop-carry group.  Layout assignment propagates
    along these pairs and target matching splits each tied set alike."""
    k = op.kind
    if k in ("tt.load", "tt.advance", "tt.convert"):
        pairs = [(op.operands[0], op.results[0])]
    elif k == "tt.store":
        pairs = [(op.operands[0], op.operands[1])]
    elif k in ELEMENTWISE_FLOAT or k in ELEMENTWISE_INT:
        pairs = [(v, op.results[0]) for v in op.operands]
    elif k == "tt.dot":
        pairs = [(op.results[0], op.operands[2])]
    else:
        pairs = [pair for group in loop_carries(op) for pair in combinations(group, 2)]
    for a, b in pairs:
        if _carries_layout(a.type) and _carries_layout(b.type):
            yield a, b


_Edge = tuple[Value, Callable[[Any], Any], int, Operation]


def _layout_edges(fn: KernelFn) -> dict[int, list[_Edge]]:
    """Layout propagation edges: the ties, plus the edges only layouts have.
    Broadcast, extract, glue and a cross-warp reduce keep their operand's
    layout; dot operands, reduce results and expand_dims results derive
    theirs structurally."""
    edges: dict[int, list[_Edge]] = {}

    def add(src: Value, dst: Value, xf: Callable[[Any], Any], prio: int, op: Operation) -> None:
        if _carries_layout(src.type) and _carries_layout(dst.type):
            edges.setdefault(id(src), []).append((dst, xf, prio, op))

    def eq(a: Value, b: Value, op: Operation, prio: int = _EQ) -> None:
        ident = lambda e: e
        add(a, b, ident, prio, op)
        add(b, a, ident, prio, op)

    for op in walk_fn_ops(fn):
        k = op.kind
        if k in ("tt.broadcast", "tt.extract", "tt.glue", "tt.cross_warp_reduce"):
            for v in op.operands:
                eq(v, op.results[0], op)
        elif k == "tt.dot":
            a, b, _ = op.operands
            r = op.results[0]
            add(r, a, lambda e: DotOperandEncoding(0, e), _STRUCT, op)
            add(r, b, lambda e: DotOperandEncoding(1, e), _STRUCT, op)
            add(a, r, lambda e: e.parent if isinstance(e, DotOperandEncoding) and e.op_idx == 0 else None, _STRUCT, op)
            add(b, r, lambda e: e.parent if isinstance(e, DotOperandEncoding) and e.op_idx == 1 else None, _STRUCT, op)
        elif k == "tt.reduce":
            axis = op.attrs["axis"]
            src, r = op.operands[0], op.results[0]
            add(src, r, lambda e, d=axis: SliceEncoding(d, e), _STRUCT, op)
            add(r, src, lambda e, d=axis: e.parent if isinstance(e, SliceEncoding) and e.dim == d else None, _STRUCT, op)
        elif k == "tt.expand_dims":
            axis = op.attrs["axis"]
            src, r = op.operands[0], op.results[0]

            def up(e: Any, d: int = axis) -> Any:
                if isinstance(e, SliceEncoding) and e.dim == d:
                    return e.parent
                if isinstance(e, BlockedEncoding):
                    return _insert_dim(e, d)
                return None

            add(src, r, up, _STRUCT, op)
            add(r, src, lambda e, d=axis: SliceEncoding(d, e), _STRUCT, op)
        # the accumulator is structural: it outranks what flows in by equality
        prio = _STRUCT if k == "tt.dot" else _EQ
        for a, b in _ties(op):
            eq(a, b, op, prio)
    return edges


class _LayoutState:
    def __init__(self, fn: KernelFn):
        self.fn = fn
        self.enc: dict[int, tuple[int, Any]] = {}
        self.diags: list[Diagnostic] = []

    def propose(self, v: Value, enc: Any, prio: int, op: Operation | None) -> bool:
        shape = _block_shape(v)
        try:
            new_eq = equivalent_blocked(enc, shape)
        except LayoutError as e:
            self.diags.append(Diagnostic(f"layout proposal rejected: {e}", self.fn.name, op))
            return False
        cur = self.enc.get(id(v))
        if cur is None or prio > cur[0]:
            self.enc[id(v)] = (prio, enc)
            return True
        cur_prio, cur_enc = cur
        if prio == cur_prio:
            cur_eq = equivalent_blocked(cur_enc, shape)
            if cur_eq != new_eq:
                self.diags.append(
                    Diagnostic(
                        f"conflicting layouts for {v.type}: {cur_enc} partitions as {cur_eq}, "
                        f"{enc} partitions as {new_eq}",
                        self.fn.name,
                        op,
                    )
                )
        return False


def assign_layouts(fn: KernelFn) -> KernelFn:
    """Annotate every tile-typed value with a layout encoding.

    The anchor tile gets a root Blocked layout sized by the tiling hint; dot
    operands, reduction results, and broadcast sources receive structurally
    derived encodings; everything else inherits across value equalities.
    Tiles the flow never reaches default to a warp-replicated layout."""
    if fn.level == "warp":
        return _clone_fn(fn)
    if fn.level != "workgroup":
        raise _fail(fn, f"layout assignment expects workgroup-level input, got {fn.level!r}")

    work = classify_workload(fn)
    state = _LayoutState(fn)
    edges = _layout_edges(fn)
    worklist: list[Value] = []

    def seed(v: Value, enc: Any) -> None:
        if state.propose(v, enc, _SEED, work.root):
            worklist.append(v)

    if work.root is not None:
        if work.kind in ("gemm", "attention"):
            root_enc = tile_root(_block_shape(work.root.results[0]), fn.num_warps, work.hint)
            seed(work.root.results[0], root_enc)
            seed(work.root.operands[0], DotOperandEncoding(0, root_enc))
            seed(work.root.operands[1], DotOperandEncoding(1, root_enc))
        elif work.kind == "reduction":
            src = work.root.operands[0]
            seed(src, tile_root(_block_shape(src), fn.num_warps, work.hint))
        else:
            value = work.root.operands[1]
            if _carries_layout(value.type):
                seed(value, tile_root(_block_shape(value), fn.num_warps, work.hint))

    while worklist:
        v = worklist.pop(0)
        _, form = state.enc[id(v)]  # propose stored it before queueing v
        for dst, xf, prio, op in edges.get(id(v), ()):
            out = xf(form)
            if out is not None and state.propose(dst, out, prio, op):
                worklist.append(dst)

    if state.diags:
        raise PassError(state.diags)

    def uncovered(v: Value) -> bool:
        return _carries_layout(v.type) and id(v) not in state.enc

    for op in walk_fn_ops(fn):
        # a dot or store must be partitioned deliberately, never replicated
        if op.kind in ("tt.dot", "tt.store") and any(map(uncovered, op.operands)):
            raise _fail(fn, f"layout assignment left a {op.kind} operand uncovered", op)
        if op.kind == "tt.dot" and uncovered(op.results[0]):
            raise _fail(fn, "layout assignment left a tt.dot result uncovered", op)
        # loop-carried slots may settle on distinct equivalent aliases; a
        # loop's init, region arg, and result share one textual type, so
        # unify on the init's form (outer loops first, since a result can
        # seed a later init)
        for init, arg, res, *_ in loop_carries(op):
            if _carries_layout(init.type) and id(init) in state.enc:
                state.enc[id(arg)] = state.enc[id(res)] = state.enc[id(init)]

    def type_of(v: Value) -> Type:
        if not _carries_layout(v.type):
            return v.type
        shape = _block_shape(v)
        if id(v) in state.enc:
            return retile(v.type, shape, state.enc[id(v)][1])
        # a tile the flow never reached is replicated across warps
        rank = len(shape)
        order = tuple(range(rank - 1, -1, -1))
        return retile(v.type, shape, BlockedEncoding(shape, (1,) * rank, order))

    out = _clone_fn(fn, type_of=type_of)
    verify_or_raise(out)
    return out


# --------------------------------------------------------------------------
# warp distribution

def distribute_to_warps(fn: KernelFn) -> KernelFn:
    """Retype every tile to one warp's share and add the warp's tile origin
    to block pointer offsets.  Dims where the warp grid overshoots the tile
    count wrap around, replicating the tile across those warps; a tile whose
    warps' shares fall short of it is a PassError."""
    if fn.level == "warp":
        return _clone_fn(fn)
    if fn.level != "workgroup":
        raise _fail(fn, f"warp distribution expects workgroup-level input, got {fn.level!r}")

    # the first tile the warps' shares do not cover; raised after the walk, so that a rule
    # on moved data, which names the cause more closely, comes first
    short: list[PassError] = []

    def blocked(tt: TensorType) -> BlockedEncoding:
        if tt.encoding is None:
            raise _fail(fn, f"distribution needs encodings; {_type_desc(tt)} has none (run layout assignment)")
        return equivalent_blocked(tt.encoding, tt.shape)

    def per_warp(t: Type, op: Operation) -> Type:
        tt = tile_type(t)
        if not isinstance(tt, TensorType) or tt.rank == 0:
            return t
        eq = blocked(tt)
        for d, n in enumerate(tt.shape):
            if not short and (cover := eq.size_per_warp[d] * eq.warps_per_cta[d]) < n:
                short.append(_fail(fn, f"{op.kind}: the warps' shares cover {cover} of the {n} elements along "
                                       f"dim {d} of its {tt.shape} tile, and would drop the rest", op))
        return retile(t, eq.size_per_warp, tt.encoding)

    # dims that need an offset term, keyed by the warp grid that owns them
    grids: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for op in walk_fn_ops(fn):
        if op.kind != "tt.make_tensor_ptr":
            continue
        pt = op.results[0].type.pointee
        eq = blocked(pt)
        for d in range(pt.rank):
            if eq.warps_per_cta[d] > 1 and pt.shape[d] // eq.size_per_warp[d] > 1:
                grids.add((eq.warps_per_cta, eq.order))

    rb = _Rebuild(fn, "warp")
    fb = rb.fb

    coords: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, Value]] = {}
    if grids:
        wid = fb.warp_id()
        for wpc, order in sorted(grids):
            per_dim: dict[int, Value] = {}
            rem = wid
            live = [d for d in order if wpc[d] > 1]
            for n, d in enumerate(live):
                per_dim[d] = fb.binary("arith.remi", rem, fb.constant(wpc[d]))
                if n + 1 < len(live):
                    rem = fb.binary("arith.divi", rem, fb.constant(wpc[d]))
            coords[(wpc, order)] = per_dim

    def emit(op: Operation) -> None:
        k = op.kind
        if k == "tt.make_tensor_ptr":
            pt = op.results[0].type.pointee
            eq = equivalent_blocked(pt.encoding, pt.shape)
            r = pt.rank
            base = rb.one(op.operands[0])
            dims = [rb.one(v) for v in op.operands[1 : 1 + 2 * r]]
            offs = [rb.one(v) for v in op.operands[1 + 2 * r :]]
            for d in range(r):
                tiles = pt.shape[d] // eq.size_per_warp[d]
                if eq.warps_per_cta[d] == 1 or tiles == 1:
                    continue
                c = coords[(eq.warps_per_cta, eq.order)][d]
                if tiles < eq.warps_per_cta[d]:
                    c = fb.binary("arith.remi", c, fb.constant(tiles))
                term = fb.binary("arith.muli", c, fb.constant(eq.size_per_warp[d]))
                offs[d] = fb.binary("arith.addi", offs[d], term)
            nop = fb.op(k, [base, *dims, *offs], op.attrs, [per_warp(op.results[0].type, op)])
            rb.vals[id(op.results[0])] = [nop.result]
            return
        # an op that moves data along a dim the layout splits over warps has
        # no per-warp form: a reduce along its axis, an extract or a glue
        # along every dim where its narrow and wide tiles differ
        if k in ("tt.extract", "tt.glue", "tt.reduce"):
            src, res = tile_type(op.operands[0].type), tile_type(op.results[0].type)
            wide = res if k == "tt.glue" else src
            moved = [op.attrs["axis"]] if k == "tt.reduce" else [d for d, n in enumerate(src.shape) if n != res.shape[d]]
            for d in moved:
                share = equivalent_blocked(wide.encoding, wide.shape).size_per_warp[d]
                if share != wide.shape[d]:
                    raise _fail(fn, f"{k} moves data along dim {d}, which the layout splits over warps: "
                                f"each warp holds {share} of its {wide.shape[d]} elements", op)
        rb.copy(op, [per_warp(r.type, op) for r in op.results])

    out = rb.run(emit)
    if short:
        raise short[0]
    verify_or_raise(out)
    return out


# --------------------------------------------------------------------------
# target size matching

class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _largest_divisor(n: int, cap: int) -> int:
    for d in range(min(n, cap), 0, -1):  # reaches d = 1, which divides every n
        if n % d == 0:
            return d


def _strip(t: Type) -> Type:
    tt = tile_type(t)
    return retile(t, tt.shape, None) if isinstance(tt, TensorType) and tt.encoding is not None else t


def match_target_size(fn: KernelFn, target: TargetConfig = PVC) -> KernelFn:
    """Split warp tiles into target-sized pieces.

    Values tied by ``_ties`` split together; each group's piece shape is the
    largest per-dim divisor within every limit imposed on it (load/store
    block caps, dot result caps).  A dot becomes unit dots chained over the
    contraction dim, emitted per k chunk: every piece's dot of chunk 0
    (pieces row-major), then every piece's dot of chunk 1, and so on, so the
    dots of one chunk, which read no other, sit back to back.  An extract
    becomes a sub-block, taken like a dot's operands from whichever pieces
    cover it; a splat or an op that ties values runs once per piece;
    every other op runs on glued wholes, which split block pointers lack.
    Results are re-split to their piece shape."""
    if fn.level == "workgroup":
        raise _fail(fn, "target matching expects warp-level input (run distribution first)")
    if fn.level == "intrinsic":
        raise _fail(fn, "target matching already ran")

    max_m, max_n, max_k = target.max_dot
    uf = _UnionFind()
    clamps: dict[int, list[int]] = {}

    def clamp(v: Value, dims: tuple[int, ...]) -> None:
        root = uf.find(id(v))
        cur = clamps.get(root)
        clamps[root] = [min(a, b) for a, b in zip(cur, dims)] if cur else list(dims)

    tied: dict[int, set[int]] = {}  # each tying op's id to the ids of the values it ties
    for op in walk_fn_ops(fn):
        for a, b in _ties(op):
            uf.union(id(a), id(b))
            tied.setdefault(id(op), set()).update((id(a), id(b)))

    diags: list[Diagnostic] = []
    for op in walk_fn_ops(fn):
        k = op.kind
        if k in ("tt.load", "tt.store"):
            pt = op.operands[0].type.pointee
            lim = target.max_load if pt.rank == 2 else (target.max_load[1],)
            clamp(op.operands[0], lim)
        elif k == "tt.dot":
            m, kk = op.operands[0].type.shape
            n = op.operands[1].type.shape[1]
            if n % max_n:
                diags.append(Diagnostic(f"dot n={n} is not a multiple of the unit n={max_n}", fn.name, op))
            if kk % max_k:
                diags.append(Diagnostic(f"dot k={kk} is not a multiple of the unit k={max_k}", fn.name, op))
            clamp(op.results[0], (max_m, max_n))
    if diags:
        raise PassError(diags)

    piece: dict[int, tuple[int, ...]] = {}

    def piece_of(v: Value) -> tuple[int, ...]:
        shape = _block_shape(v)
        root = uf.find(id(v))
        lim = clamps.get(root)
        if lim is None:
            return shape
        if root not in piece:
            piece[root] = tuple(_largest_divisor(s, c) for s, c in zip(shape, lim))
        return piece[root]

    def grid_of(v: Value) -> tuple[int, ...]:
        return tuple(s // p for s, p in zip(_block_shape(v), piece_of(v)))

    rb = _Rebuild(fn, "intrinsic")
    fb, pieces = rb.fb, rb.vals

    def whole_of(v: Value) -> Value:
        """The value as one piece, gluing if it was split."""
        ps = pieces[id(v)]
        if len(ps) == 1:
            return ps[0]
        if isinstance(v.type, PtrType):
            raise _fail(fn, f"{v.type} is split in {len(ps)} pieces, and block pointers do not glue")
        return rb.memo(("whole", id(v)), lambda: fb.glue(ps, _block_shape(v)))

    def split_out(v: Value, built: Value) -> None:
        """Register pieces of ``built`` according to v's piece shape."""
        p = piece_of(v)
        if p == _block_shape(v):
            pieces[id(v)] = [built]
        else:
            pieces[id(v)] = [fb.extract(built, i, p) for i in range(math.prod(grid_of(v)))]

    def sub_block(v: Value, offset: tuple[int, ...], shape: tuple[int, ...]) -> Value:
        """A sub-block of v: an existing piece when one lines up, an extract
        from the covering piece, or an extract from the glued whole."""

        def make() -> Value:
            p, whole = piece_of(v), _block_shape(v)
            inside = tuple(o % q for o, q in zip(offset, p))
            fits = all(i + s <= q for i, s, q in zip(inside, shape, p))
            if fits and all(i % s == 0 and q % s == 0 for i, s, q in zip(inside, shape, p)):
                host = pieces[id(v)][block_index(whole, p, offset)]
                if shape == p:
                    return host
                return fb.extract(host, block_index(p, shape, inside), shape)
            return fb.extract(whole_of(v), block_index(whole, shape, offset), shape)

        return rb.memo(("sub", id(v), offset, shape), make)

    def emit(op: Operation) -> None:
        k = op.kind
        if k == "tt.dot":
            a, b, c = op.operands
            kk = a.type.shape[1]
            pm, pn = p = piece_of(op.results[0])
            out = list(pieces[id(c)])
            for kq in range(0, kk, max_k):  # per k chunk, the accumulator's pieces, row-major
                for q, acc in enumerate(out):
                    i, j = block_origin(_block_shape(c), p, q)
                    out[q] = fb.dot(sub_block(a, (i, kq), (pm, max_k)), sub_block(b, (kq, j), (max_k, pn)), acc)
            pieces[id(op.results[0])] = out
        elif k == "tt.extract":
            src, r = op.operands[0], op.results[0]
            block = _block_shape(r)
            split_out(r, sub_block(src, block_origin(_block_shape(src), block, op.attrs["index"]), block))
        elif k == "tt.splat":
            r = op.results[0]
            src = rb.one(op.operands[0])
            pieces[id(r)] = [fb.splat(src, piece_of(r)) for _ in range(math.prod(grid_of(r)))]
        elif id(op) in tied:  # piece by piece; an untied operand is a scalar
            ins = [pieces[id(v)] if id(v) in tied[id(op)] else repeat(rb.one(v)) for v in op.operands]
            types = [retile(r.type, piece_of(r), None) for r in op.results]
            built = [fb.op(k, list(group), op.attrs, types) for group in zip(*ins)]
            for j, r in enumerate(op.results):
                pieces[id(r)] = [b.results[j] for b in built]
        else:  # on glued wholes; a scalar op is a plain copy
            built = fb.op(k, [whole_of(v) for v in op.operands], op.attrs, [_strip(r.type) for r in op.results])
            for r, nr in zip(op.results, built.results):
                split_out(r, nr)

    out = rb.run(emit)
    verify_or_raise(out)
    return out


# --------------------------------------------------------------------------
# pipeline

@dataclass
class CompileResult:
    source: KernelFn
    layouts: KernelFn | None = None
    distribute: KernelFn | None = None
    match: KernelFn | None = None
    vprog: VProgram | None = None

    def at_level(self, level: str):
        got = {
            "workgroup": self.layouts if self.layouts is not None else self.source,
            "warp": self.distribute,
            "intrinsic": self.match,
            "visa": self.vprog,
        }[level]
        if got is None:
            raise ValueError(f"pipeline did not reach level {level!r}")
        return got


_LEVEL_RANK = {"workgroup": 0, "warp": 1, "intrinsic": 2, "visa": 3}


def compile_kernel(
    fn: KernelFn,
    target: TargetConfig = PVC,
    to_level: str = "visa",
    hints: dict[int, str] | None = None,
) -> CompileResult:
    """Run the lowering pipeline up to ``to_level``, keeping every stage."""
    if to_level not in _LEVEL_RANK:
        raise ValueError(f"unknown level {to_level!r}")
    rank = _LEVEL_RANK[to_level]
    verify_or_raise(fn)
    if hints:
        fn = apply_tiling_hints(fn, hints)
    result = CompileResult(source=fn)
    result.layouts = assign_layouts(fn)
    if rank >= 1:
        result.distribute = distribute_to_warps(result.layouts)
    if rank >= 2:
        result.match = match_target_size(result.distribute, target)
    if rank >= 3:
        result.vprog = lower(result.match, target)
    return result
