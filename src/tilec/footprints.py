"""Footprints: what a launch's accesses can touch, proven before it runs.

``sim.prepare`` calls `prove` on the decoded steps of a verified program
once per launch shape: the program object, grid, ``wg_order`` and bound
buffers (name, element type, size).  Every later run of that shape reuses
the verdicts, so a program must not be edited in place once it has run.

`prove` follows the integer and pointer steps: a scalar is, per row, its
value if known at launch (worked out by its kind's semantics, as the run
does), a form if it depends on loop counters (an int64 array (1 + loops,
rows) of a constant and a multiple of each loop's trip index), or else a str
that says why not.  A block pointer's dims are forms, with the rows last, or
such a str; an SLM pointer is the one its ``tt.alloc`` step returns.

Pointer steps only add offsets, so a loop body is walked once, each carry
at its first trip: what one trip adds to a carry is then a constant per row,
or not known, and whatever moves with the carry moves by it on each trip.
An access is checked over all trips of its loops, by each row's own trip
counts, and as if every ``scf.if`` whose condition is not known at launch
were taken.  The verdicts:

- an access step is in bounds when every row that reaches it stays inside
  its global shape on every trip, and that shape, laid out by non-negative
  strides, fits in the buffer: the run skips its bounds checks;
- a buffer a store can reach is race-free when every access to it uses one
  geometry (global shape and strides) that maps no two indices to one
  element, and the index boxes the rows touch over the launch (for SLM, the
  rows of one workgroup) are pairwise disjoint: the run keeps no race marks.
  A store reaches the buffer its pointer is followed to; while one store's
  pointer is not followed that far, every buffer of the launch counts.

`prove` raises nothing: what it does not prove stays on the run-time checks,
so a failing run keeps its first error and its message.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np

from .ir import ELEMENTWISE_INT, ElemType

LOADED = "offset depends on a loaded value"
_TILE = "offset depends on a tile or float value"
_UNSTEADY = "carried pointer is not advanced by a loop-invariant amount"
_REBASED = "carried pointer may change buffer"
_BOUNDS = "loop bounds are not known before the run"
_PURE = {"arith.constant", "tt.get_program_id", "tt.warp_id", "arith.cmpi"} | ELEMENTWISE_INT  # scalar kinds without effects


class _Form(NamedTuple):
    """A block pointer as `prove` sees it: dims (field, dim, form, row) or why
    they are not known, static offsets `at` still to add, and the loop
    carries it moves with, as (loop, carry) keys."""

    base: Any
    dims: Any
    shape: tuple[int, ...]
    at: tuple[int, ...] = ()
    root: tuple = ()


class Footprints(NamedTuple):
    """The verdicts of `prove`: None where proven, else why not."""

    races: dict[str, str | None]  # per buffer a store can reach: race-free?
    accesses: list[tuple]  # per load or store step: (step, buffer, first-trip offsets (dim, row) if known, in bounds?)


def prove(steps: list, flat: list, ctx: Any, roots: dict[Any, str]) -> Footprints:
    """The verdicts for a launch of `steps` (`flat`: all of them, nested ones
    too) in run context `ctx`, whose buffer roots are `roots`."""
    from .sim import _SEMANTICS  # sim imports this module

    loops = {id(s): j for j, s in enumerate((s for s in flat if s.kind == "scf.for"), 1)}
    # seen, per access: (step, pointer, span: per form and row the last trip index (1 for the
    # constant), reach: the rows that run it)
    n, unit, seen = ctx.n, np.eye(1 + len(loops), dtype=np.int64)[:, :, None], []
    added: dict[tuple, np.ndarray] = {}  # what make_tensor_ptr or advance adds, by its operands (each set once)
    lift = lambda x: x if x.ndim == 2 else unit[0] * x  # noqa: E731

    def i32(f: np.ndarray, span: np.ndarray) -> Any:  # the run holds scalars as int32
        if (np.abs(f) * span).sum(axis=0).max() >= 2**31:
            return "offset may overflow i32"
        return f if f[1:].any() else f[0].astype(np.int32)

    def scalar(s: Any, a: list, span: np.ndarray) -> Any:
        known = True
        for x in a:
            if type(x) is not np.ndarray:
                return x if type(x) is str else _TILE
            known = known and x.ndim == 1
        if s.kind not in _PURE or s.shape or s.elem not in (ElemType.i32, ElemType.i1):
            return _TILE
        if known:
            try:
                return _SEMANTICS[s.kind](s, ctx, a)
            except Exception:  # the run reports it where it runs
                return "offset is not known before the run"
        x, y = map(lift, a)
        if s.kind in ("arith.addi", "arith.subi"):
            return i32(x + y if s.kind == "arith.addi" else x - y, span)
        if s.kind == "arith.muli" and min(a[0].ndim, a[1].ndim) == 1:
            return i32(x * a[1] if a[1].ndim == 1 else y * a[0], span)
        return "offset is not affine in the loop counters"

    def pointer(s: Any, a: list) -> _Form:
        if s.kind == "tt.alloc":
            p = ctx.ptrs[id(s)]
            return _Form(p.base, unit[0] * np.moveaxis(p.dims, 0, -1)[:, :, None], s.shape, (0,) * len(s.shape))
        make = s.kind == "tt.make_tensor_ptr"  # else tt.advance
        p = _Form(roots.get(s.operands[0]), None, s.shape, (0,) * len(s.shape)) if make else a[0]
        if type(w := p.dims) is str or (w := next((x for x in a[1:] if type(x) is str), None)):
            return _Form(p.base, w, s.shape, p.at, p.root)
        if (by := added.get(s.operands[1:])) is None:  # make: global shape, strides, offsets; advance: offsets
            by = unit[0] * np.array(a[1:])[:, None] if all(x.ndim == 1 for x in a[1:]) else np.array([*map(lift, a[1:])])
            added[s.operands[1:]] = by
        if make:
            return p._replace(dims=by.reshape(3, -1, *by.shape[1:]))
        dims = p.dims.copy()
        dims[2] += by
        return _Form(p.base, dims, s.shape, p.at, p.root)

    def move(x: _Form, y: Any) -> Any:
        """What a trip adds to carry `x`, which leaves the body as `y`, if a constant per row."""
        if type(y) is not _Form or y.base != x.base:
            return _REBASED
        if type(x.dims) is str or type(y.dims) is str or y.root != x.root:
            return x.dims if type(x.dims) is str else y.dims if type(y.dims) is str else _UNSTEADY
        d = y.dims - x.dims
        return _UNSTEADY if np.count_nonzero(d[:, :, 1:]) else d

    def after(x: _Form, d: Any, k: Any) -> _Form:
        """`x` moved by `d` per trip, after each row's `k` trips (None: not known)."""
        if d is _REBASED:  # even where x's offsets are not known: its buffer is not either
            return _Form(None, d, x.shape, x.at, x.root)
        if type(x.dims) is str or (type(d) is not str and k is None and not np.count_nonzero(d)):
            return x
        if type(d) is str or k is None:
            return _Form(x.base, d if type(d) is str else _BOUNDS, x.shape, x.at, x.root)
        return _Form(x.base, x.dims + d * k, x.shape, x.at, x.root)

    def loop(s: Any, a: list, env: dict, span: np.ndarray, reach: np.ndarray) -> None:
        (lb, ub, st), init, j, k, inner = a[:3], a[3:], loops[id(s)], None, span.copy()
        env[s.attrs["iv"]] = _BOUNDS
        if all(type(x) is np.ndarray and x.ndim == 1 for x in a[:3]) and (st > 0).all():
            k = np.maximum(0, -((lb.astype(np.int64) - ub) // st))  # each row's trip count, as the run counts it
            inner[j], reach = np.maximum(k - 1, 0), reach & (k > 0)
            env[s.attrs["iv"]] = i32(lift(lb) + unit[j] * st, inner)
        carried = [x._replace(root=(*x.root, (id(s), c))) if type(x) is _Form else x if type(x) is str
                   else "carried integer is not followed" for c, x in enumerate(init)]
        env.update(zip(s.attrs["iters"], carried))
        mark = len(seen)
        walk(s.body, env, inner, reach)
        moves = {x.root[-1]: move(x, env.get(y, _TILE))  # the body ends in scf.yield
                 for x, y in zip(carried, s.body[-1].operands) if type(x) is _Form}
        per_trip = {c: d if type(d) is str or k is None else d[:, :, :1] * unit[j] for c, d in moves.items()}
        for i in range(mark, len(seen)):  # what moves with a carry moves by k trips' worth on trip k
            t, p, *rest = seen[i]
            if (d := next((per_trip[c] for c in p.root if c in per_trip), None)) is not None:
                known = type(d) is not str and k is not None and type(p.dims) is not str
                seen[i] = (t, _Form(p.base, p.dims + d, p.shape, p.at, p.root) if known else after(p, d, None), *rest)
        env.update(zip(s.results, (after(x, moves[c.root[-1]], k) if type(c) is _Form else c
                                   for x, c in zip(init, carried))))

    def walk(body: list, env: dict, span: np.ndarray, reach: np.ndarray) -> None:
        for s in body:
            kind = s.kind
            if kind == "tt.load" or kind == "tt.store":
                seen.append((s, env[s.operands[0]], span, reach))
                if s.results:
                    env[s.results[0]] = LOADED
            elif kind == "tt.extract" and s.is_ptr:
                p = env[s.operands[0]]
                at = tuple([o + sl.start for o, sl in zip(p.at, s.slices[1:])])
                env[s.results[0]] = _Form(p.base, p.dims, s.shape, at, p.root)
            elif s.shape and not s.is_ptr and kind != "scf.for" and kind != "scf.if":
                continue  # a tile: an offset that reads one is _TILE
            elif kind == "scf.for":
                loop(s, [env.get(v, _TILE) for v in s.operands], env, span, reach)
            elif kind == "scf.if":  # rows whose condition is known to be false at launch skip the body
                known = type(c := env.get(s.operands[0])) is np.ndarray and c.ndim == 1 and c.dtype == np.bool_
                walk(s.body, env, span, reach & c if known else reach)
            elif s.results:
                a = [env.get(v, _TILE) for v in s.operands]
                env[s.results[0]] = pointer(s, a) if s.is_ptr else scalar(s, a, span)

    with np.errstate(all="ignore"):
        walk(steps, {}, unit[0].repeat(n, axis=1), np.ones(n, dtype=np.bool_))
    # walk and loop reach each other through their closures: unlinked, they are freed now, and
    # what they hold (ctx and its buffers) with them, not at some later cyclic collection
    del walk
    whys: list[Any] = [p.dims if type(p.dims) is str else None if p.base in ctx.bufs else "its buffer is not known"
                       for _, p, _, _ in seen]
    known, origins = [i for i, w in enumerate(whys) if w is None], [None] * len(seen)
    if known:  # all at once, a lower rank padded with dims of global size 1, stride 0 and offset 0
        rank = max(len(seen[i][1].shape) for i in known)
        ps, pad = [seen[i][1] for i in known], np.zeros((3, 1, len(unit), n), dtype=np.int64)
        pad[0, :, 0] = 1
        dims = np.array([np.concatenate([p.dims, *[pad] * (rank - len(p.shape))], axis=1) if len(p.shape) < rank
                         else p.dims for p in ps])  # (access, field, dim, form, row)
        dims[:, 2, :, 0] += np.array([p.at + (0,) * (rank - len(p.at)) for p in ps])[:, :, None]
        span, reach = np.array([seen[i][2] for i in known]), np.array([seen[i][3] for i in known])
        block = np.array([p.shape + (1,) * (rank - len(p.shape)) for p in ps])[:, :, None]
        glob, strides, offs = dims[:, 0, :, 0], dims[:, 1, :, 0], dims[:, 2]
        lo, hi = _spread(offs, span[:, None])
        hi += block
        ext = (glob - 1) * strides  # a global shape inside the buffer holds every block inside it
        size = [[ctx.bufs[p.base][2]] for p in ps]  # one workgroup's part of the buffer
        fit = ((lo >= 0) & (hi <= glob) & (ext >= 0)).all(axis=1) & (ext.sum(axis=1) < size)
        fit = (fit | ~reach).all(axis=1).tolist()
        steady = (~dims[:, :2, :, 1:].reshape(len(ps), -1).any(axis=1)).tolist()  # global shape and strides
        if not reach.all():
            lo, hi = np.where(reach[:, None], lo, 2**62), np.where(reach[:, None], hi, -2**62)
        for a, i in enumerate(known):
            origins[i] = offs[a, : len(ps[a].shape), 0].copy()  # not a view that keeps all of dims
            whys[i] = "global shape or strides vary by loop trip"
            if steady[a]:
                whys[i] = None if fit[a] else "a block may leave its bounds"
    place = {i: a for a, i in enumerate(known)}  # each known access's place in the batch
    stored = {p.base for s, p, _, _ in seen if s.kind == "tt.store"}
    if None in stored:  # a store whose buffer is not known may reach any: more marks, same outcome
        stored = set(roots.values())
    races = {}
    for b in stored:
        mine = [i for i, (_, p, _, _) in enumerate(seen) if p.base in (b, None)]
        w = next((whys[i] for i in mine if i not in place or not steady[place[i]]), None)
        if w is None and mine and n > 1:
            ix = [place[i] for i in mine]
            geo = dims[ix, :2, :, 0]  # (access, field, dim, row)
            if (geo != geo[:1, :, :, :1]).any():
                w = "accesses use more than one geometry"
            elif not _injective(*geo[0, :, :, 0]):
                w = "its geometry maps two indices to one element"
            else:  # rows whose boxes over all accesses meet, in one workgroup for SLM
                first, last = lo[ix].min(axis=0), hi[ix].max(axis=0)
                meet = ((first[:, :, None] < last[:, None]) & (first[:, None] < last[:, :, None])).all(axis=0)
                np.fill_diagonal(meet, False)
                if ctx.bufs[b][3] is not None:  # each workgroup has its own SLM
                    meet &= ctx.wg[:, None] == ctx.wg[None]
                if meet.any():
                    w = "rows {} and {} may touch one element".format(*np.argwhere(meet)[0])
        races[b] = w
    return Footprints(races, [(s, p.base, o, w) for (s, p, _, _), o, w in zip(seen, origins, whys)])


def _spread(f: np.ndarray, span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lowest and highest value of forms `f` (form, row) over trip indices 0..`span` (1 for the constant)."""
    t = f[..., 1:, :] * span[..., 1:, :]
    return f[..., 0, :] + np.minimum(t, 0).sum(axis=-2), f[..., 0, :] + np.maximum(t, 0).sum(axis=-2)


def _injective(glob: np.ndarray, strides: np.ndarray) -> bool:
    """Whether no two indices inside `glob` have one flat offset under `strides`."""
    reach = 0
    for g, st in sorted(zip(glob.tolist(), np.abs(strides).tolist()), key=lambda t: t[1]):
        if g > 1:
            if st <= reach:
                return False
            reach += (g - 1) * st
    return True
