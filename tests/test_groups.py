"""Piece groups: the simulator runs the pieces that ``match_target_size`` cut
from one tile as one step.

Grouping must not move a bit, a traced access or a cross-warp record: every
suite run is compared with the same run with grouping switched off by
``conftest.ungrouped``, a monkeypatch (the product has no switch).
"""

from __future__ import annotations

import collections
import functools

import numpy as np
import pytest

from conftest import TARGETS, outcome, prove_nothing, ungrouped
from tilec import passes, sim
from tilec.ir import ElemType, FunctionBuilder, KernelFn, PtrType, walk_fn_ops
from tilec.kernels import FIXTURE_NAMES, load_fixture, make_problem, suite
from tilec.passes import compile_kernel
from tilec.sim import DeviceMemory, prepare
from tilec.visa import PVC

LEVELS = ("workgroup", "warp", "intrinsic", "visa")


@functools.cache
def _compiled(name: str, target: str | None = None, hint: str | None = None):
    """`name` compiled for PVC, or for the `TARGETS` entry `target`, with
    `hint` (if any) on its first dot."""
    return compile_kernel(load_fixture(name), TARGETS[target] if target else PVC, hints={0: hint} if hint else None)


def _outcome(prog, name: str, seed: int) -> tuple:
    """A suite run's outcome (see `conftest.outcome`)."""
    prob = make_problem(suite()[name], seed)
    return outcome(prog, prob.launch, prob.mem)


@pytest.mark.parametrize("forced", [False, True], ids=["proven", "forced"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_grouped_runs_give_the_bits_and_trace_of_ungrouped_runs(name, forced, monkeypatch):
    if forced:  # nothing is proven: access groups form only on buffers no store reaches, and check bounds
        prove_nothing(monkeypatch)
    for seed in (suite()[name].seed, 7):
        for level in LEVELS:
            prog = _compiled(name).at_level(level)
            grouped = _outcome(prog, name, seed)
            with monkeypatch.context() as mp:
                ungrouped(mp)
                assert _outcome(prog, name, seed) == grouped, f"{level} seed {seed}"


def _grouped_as_ungrouped(res, name: str, monkeypatch) -> None:
    """Check that `res`'s intrinsic and visa runs of the suite problem of
    `name` give the outcome of ungrouped runs."""
    seed = suite()[name].seed
    for level in ("intrinsic", "visa"):
        grouped = _outcome(res.at_level(level), name, seed)
        with monkeypatch.context() as mp:
            ungrouped(mp)
            assert _outcome(res.at_level(level), name, seed) == grouped, level


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("target", TARGETS)
def test_grouped_runs_give_the_bits_and_trace_of_ungrouped_runs_on_other_targets(target, name, monkeypatch):
    # other piece shapes give other groups
    _grouped_as_ungrouped(_compiled(name, target), name, monkeypatch)


# every hinted compile but gemm_256's under "vertical", whose warp tile PVC's dot unit rejects
_HINTED = [(name, hint) for hint in ("horizontal", "vertical", "square") for name in FIXTURE_NAMES
           if (name, hint) != ("gemm_256", "vertical")]


@pytest.mark.parametrize(("name", "hint"), _HINTED)
def test_grouped_runs_give_the_bits_and_trace_of_ungrouped_runs_under_hints(name, hint, monkeypatch):
    # a hint changes every warp tile, and so every group
    _grouped_as_ungrouped(_compiled(name, hint=hint), name, monkeypatch)


def _steps(launch: sim.Launch) -> tuple[int, list[int], dict[str, int]]:
    """The number of top-level steps of a launch, of the steps of each body,
    and of the group steps of each kind."""
    groups = collections.Counter(s.kind for s in sim._walk(launch.steps) if s.binds is not None)
    return len(launch.steps), [len(s.body) for s in launch.steps if s.body is not None], dict(groups)


# per fixture, the steps of its intrinsic and visa launches; ungrouped,
# fa2_d128 runs 149 steps at the top level and 326 in the loop body
STEPS = {
    "gemm_256": (35, [7]),
    "fa2_d64": (34, [29]),
    "fa2_d128": (34, [33]),
    "paged_wg": (13, [31]),
    "paged_warp": (33, [4, 37, 5]),
}


# per fixture, the group steps of each kind of its intrinsic and visa launches
GROUPS = {
    "gemm_256": {"tt.dot": 2, "tt.load": 1, "tt.store": 1},
    "fa2_d64": {"arith.divf": 1, "arith.mulf": 1, "arith.subf": 1, "math.exp": 1, "tt.convert": 2, "tt.dot": 8,
                "tt.load": 3, "tt.store": 1},
    "fa2_d128": {"arith.divf": 1, "arith.mulf": 1, "arith.subf": 1, "math.exp": 1, "tt.convert": 2, "tt.dot": 12,
                 "tt.load": 3, "tt.store": 1},
    "paged_wg": {"arith.divf": 1, "arith.subf": 1, "math.exp": 1, "tt.convert": 1, "tt.dot": 8, "tt.load": 3,
                 "tt.store": 1},
    "paged_warp": {"arith.divf": 1, "arith.mulf": 2, "arith.subf": 1, "math.exp": 1, "tt.convert": 1, "tt.dot": 8,
                   "tt.load": 3, "tt.store": 1},
}


# the same on each of `TARGETS`, where they differ from STEPS and GROUPS
TARGET_STEPS = {
    "pvc_simd": STEPS,
    "load16": {**STEPS, "paged_warp": (37, [6, 37, 5])},
    "dot8": STEPS,
    "lanes32": {**STEPS, "paged_warp": (30, [3, 37, 5])},
}
TARGET_GROUPS = {
    "pvc_simd": GROUPS,
    "load16": {**GROUPS, "gemm_256": {"tt.dot": 2, "tt.load": 2, "tt.store": 1}},
    "dot8": GROUPS,
    "lanes32": {
        **GROUPS,
        "gemm_256": {"tt.dot": 2, "tt.store": 1},
        "fa2_d64": {**GROUPS["fa2_d64"], "tt.load": 2},
        "paged_wg": {"arith.divf": 1, "arith.subf": 1, "math.exp": 1, "tt.convert": 1, "tt.dot": 8, "tt.load": 2,
                     "tt.store": 1},
        "paged_warp": {"arith.mulf": 2, "arith.subf": 1, "math.exp": 1, "tt.convert": 1, "tt.dot": 8, "tt.load": 2},
    },
}


@pytest.mark.parametrize("level", ["intrinsic", "visa"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures_run_as_few_steps(name, level):
    prob = make_problem(suite()[name])
    assert _steps(prepare(_compiled(name).at_level(level), prob.launch, prob.mem)) == (*STEPS[name], GROUPS[name])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("target", TARGETS)
def test_fixtures_run_as_few_steps_on_other_targets(target, name):
    prob = make_problem(suite()[name])
    for level in ("intrinsic", "visa"):
        launch = prepare(_compiled(name, target).at_level(level), prob.launch, prob.mem)
        assert _steps(launch) == (*TARGET_STEPS[target][name], TARGET_GROUPS[target][name]), level


def test_a_wrong_extract_index_runs_as_written(monkeypatch):
    # match_target_size cuts Q's block pointer into two pieces; give the
    # second the first one's index, so both loads read one piece
    def duplicated(fn, target=passes.PVC):
        out = match(fn, target)
        q = next(op.results[0] for op in walk_fn_ops(out)
                 if op.kind == "tt.make_tensor_ptr" and op.operands[0].name == "Q")
        cuts = [op for op in walk_fn_ops(out) if op.kind == "tt.extract" and op.operands[0] is q]
        assert [op.attrs["index"] for op in cuts] == [0, 1]
        cuts[1].attrs["index"] = 0
        return out

    match = passes.match_target_size
    prob = make_problem(suite()["fa2_d64"])
    with monkeypatch.context() as mp:
        mp.setattr(passes, "match_target_size", duplicated)
        res = compile_kernel(load_fixture("fa2_d64"))
    for level in ("intrinsic", "visa"):
        prog = res.at_level(level)
        launch = prepare(prog, prob.launch, prob.mem)
        assert [s.kind for s in launch.steps].count("tt.load") == 2  # the loads of Q's pieces, as written
        grouped = _outcome(prog, "fa2_d64", suite()["fa2_d64"].seed)
        with monkeypatch.context() as mp:
            ungrouped(mp)
            assert _outcome(prog, "fa2_d64", suite()["fa2_d64"].seed) == grouped
        right = _compiled("fa2_d64").at_level(level)
        assert [s.kind for s in prepare(right, prob.launch, prob.mem).steps].count("tt.load") == 1  # one group
        assert grouped[0] != _outcome(right, "fa2_d64", suite()["fa2_d64"].seed)[0]  # the index changes the output


def _two_dots(pairs: list[tuple[int, int]], plain: bool) -> KernelFn:
    """Two unit dots of one k chunk on a zero accumulator: per (i, j) of
    `pairs`, the i-th 8x16 row piece of A's 16x16 tile (with `plain`, a load
    of its own) by the j-th 16x16 column piece of B's 16x32 tile; store
    their results glued to O."""
    f16, f32 = PtrType(ElemType.f16), PtrType(ElemType.f32)
    fb = FunctionBuilder("two_dots", [("A", f16), ("B", f16), ("O", f32)], level="intrinsic")
    a, b, o = fb.fn.args
    c0, c1, c16, c32 = (fb.constant(v) for v in (0, 1, 16, 32))
    ta = fb.load(fb.make_tensor_ptr(a, [c16, c16], [c16, c1], [c0, c0], (16, 16), (1, 0)))
    tb = fb.load(fb.make_tensor_ptr(b, [c16, c32], [c32, c1], [c0, c0], (16, 32), (1, 0)))
    acc = fb.splat(fb.constant(0.0), (8, 16))
    if plain:
        rows = [fb.load(fb.make_tensor_ptr(a, [c16, c16], [c16, c1], [fb.constant(8 * i), c0], (8, 16), (1, 0)))
                for i in range(2)]
    else:
        rows = [fb.extract(ta, i, (8, 16)) for i in range(2)]
    cols = [fb.extract(tb, j, (16, 16)) for j in range(2)]
    dots = [fb.dot(rows[i], cols[j], acc) for i, j in pairs]
    fb.store(fb.make_tensor_ptr(o, [c16, c16], [c16, c1], [c0, c0], (16, 16), (1, 0)), fb.glue(dots, (16, 16)))
    fb.ret()
    return fb.build()


@pytest.mark.parametrize(("pairs", "plain", "grouped"),
                         [([(0, 0), (1, 1)], False, False), ([(0, 0), (0, 1)], False, True),
                          ([(0, 0), (0, 1)], True, True)],
                         ids=["diagonal", "one_row", "one_row_of_a_plain_load"])
def test_dots_off_a_grid_run_as_written(pairs, plain, grouped, monkeypatch):
    # (A0, B0) then (A1, B1) are no rows and columns of a grid; (A0, B0) then (A0, B1) are one row,
    # and where A0 is a load of its own, the group reads that value as it is
    prog, launch = _two_dots(pairs, plain), sim.LaunchConfig()
    mem = DeviceMemory()
    mem.set_tensor("A", np.arange(256).reshape(16, 16) % 7 / 4, ElemType.f16)
    mem.set_tensor("B", np.arange(512).reshape(16, 32) % 5 / 8, ElemType.f16)
    mem.set_tensor("O", np.zeros((16, 16)), ElemType.f32)
    steps = list(sim._walk(prepare(prog, launch, mem).steps))
    dots = [s for s in steps if s.kind == "tt.dot"]
    assert [s.binds is not None for s in dots] == ([True] if grouped else [False, False])
    if plain:
        a0 = next(s.results[0] for s in steps if s.kind == "tt.load" and s.shape == (8, 16))
        assert dots[0].operands[0] == (a0, None)
    want = outcome(prog, launch, mem)
    with monkeypatch.context() as mp:
        ungrouped(mp)
        assert outcome(prog, launch, mem) == want


def _halves(read: bool) -> KernelFn:
    """Exp each 8x16 half of X's 16x16 tile and store the halves glued to Y;
    with `read`, the first half's row maxima, broadcast back, sit between the
    two exps and take that half's place in Y."""
    fb = FunctionBuilder("halves", [("X", PtrType(ElemType.f32)), ("Y", PtrType(ElemType.f32))], level="intrinsic")
    x, y = fb.fn.args
    c0, c1, c16 = (fb.constant(v) for v in (0, 1, 16))
    tile = fb.load(fb.make_tensor_ptr(x, [c16, c16], [c16, c1], [c0, c0], (16, 16), (1, 0)))
    top, bottom = (fb.extract(tile, i, (8, 16)) for i in range(2))
    first = fb.exp(top)
    if read:
        first = fb.broadcast(fb.expand_dims(fb.reduce(first, "max", 1), 1), (8, 16))
    second = fb.exp(bottom)
    out = fb.make_tensor_ptr(y, [c16, c16], [c16, c1], [c0, c0], (16, 16), (1, 0))
    fb.store(out, fb.glue([first, second], (16, 16)))
    fb.ret()
    return fb.build()


@pytest.mark.parametrize("read", [False, True], ids=["adjacent", "read_between"])
def test_a_step_that_reads_a_piece_ends_its_run(read, monkeypatch):
    # the reduce between the exps reads the first one, so the second one cannot join it
    prog, launch = _halves(read), sim.LaunchConfig()
    mem = DeviceMemory()
    mem.set_tensor("X", np.arange(256).reshape(16, 16) / 64, ElemType.f32)
    mem.set_tensor("Y", np.zeros((16, 16)), ElemType.f32)
    groups = [s.kind for s in sim._walk(prepare(prog, launch, mem).steps) if s.binds is not None]
    assert groups == ([] if read else ["math.exp"])
    grouped = outcome(prog, launch, mem)
    with monkeypatch.context() as mp:
        ungrouped(mp)
        assert outcome(prog, launch, mem) == grouped


def _unplaced(kind: str) -> KernelFn:
    """Load an 8x16 block of X and one of Z.  For math.exp, exp each; for
    arith.addf, add each to one 8x16 half of Y's 16x16 tile.  Store the two
    results glued to O."""
    f32 = PtrType(ElemType.f32)
    fb = FunctionBuilder("unplaced", [("X", f32), ("Z", f32), ("Y", f32), ("O", f32)], level="intrinsic")
    x, z, y, o = fb.fn.args
    c0, c1, c8, c16 = (fb.constant(v) for v in (0, 1, 8, 16))
    loads = [fb.load(fb.make_tensor_ptr(b, [c8, c16], [c16, c1], [c0, c0], (8, 16), (1, 0))) for b in (x, z)]
    if kind == "math.exp":
        out = [fb.exp(v) for v in loads]
    else:
        tile = fb.load(fb.make_tensor_ptr(y, [c16, c16], [c16, c1], [c0, c0], (16, 16), (1, 0)))
        out = [fb.binary(kind, fb.extract(tile, i, (8, 16)), v) for i, v in enumerate(loads)]
    fb.store(fb.make_tensor_ptr(o, [c16, c16], [c16, c1], [c0, c0], (16, 16), (1, 0)), fb.glue(out, (16, 16)))
    fb.ret()
    return fb.build()


@pytest.mark.parametrize("kind", ["math.exp", "arith.addf"])
def test_a_run_whose_operand_is_not_in_place_runs_as_written(kind, monkeypatch):
    # the loads of X and Z are no pieces of one value: the exps read no operand in place, and
    # the adds read the halves of Y's tile in place but not the loads
    prog, launch = _unplaced(kind), sim.LaunchConfig()
    mem = DeviceMemory()
    for b, rows in (("X", 8), ("Z", 8), ("Y", 16), ("O", 16)):
        mem.set_tensor(b, np.arange(rows * 16).reshape(rows, 16) / (rows * 4), ElemType.f32)
    steps = [s for s in sim._walk(prepare(prog, launch, mem).steps) if s.kind == kind]
    assert [s.binds for s in steps] == [None, None]
    grouped = outcome(prog, launch, mem)
    with monkeypatch.context() as mp:
        ungrouped(mp)
        assert outcome(prog, launch, mem) == grouped


def _dead_and_loop_read() -> KernelFn:
    """Cut X's 16x16 tile into 8x16 halves.  Exp the top half, take its row
    maxima and broadcast them back, which nothing reads; take the bottom
    half's row maxima the same way, and add them to the top half on each of
    two loop trips; store the loop's result and the bottom half glued to Y."""
    fb = FunctionBuilder("dead", [("X", PtrType(ElemType.f32)), ("Y", PtrType(ElemType.f32))], level="intrinsic")
    x, y = fb.fn.args
    c0, c1, c2, c16 = (fb.constant(v) for v in (0, 1, 2, 16))
    tile = fb.load(fb.make_tensor_ptr(x, [c16, c16], [c16, c1], [c0, c0], (16, 16), (1, 0)))
    top, bottom = (fb.extract(tile, i, (8, 16)) for i in range(2))

    def rows(v):
        return fb.broadcast(fb.expand_dims(fb.reduce(v, "max", 1), 1), (8, 16))

    rows(fb.exp(top))
    maxima = rows(bottom)
    _, (acc,) = fb.begin_for(c0, c2, c1, [top])
    (out,) = fb.end_for([fb.binary("arith.addf", acc, maxima)])
    fb.store(fb.make_tensor_ptr(y, [c16, c16], [c16, c1], [c0, c0], (16, 16), (1, 0)), fb.glue([out, bottom], (16, 16)))
    fb.ret()
    return fb.build()


def test_a_chain_no_step_reads_is_left_out_in_full(monkeypatch):
    # the dead chain goes in full, though each of its steps but the last has a reader until
    # that reader goes; the other chain stays, though only a loop body reads its end
    prog, launch = _dead_and_loop_read(), sim.LaunchConfig()
    mem = DeviceMemory()
    mem.set_tensor("X", np.arange(256).reshape(16, 16) / 64, ElemType.f32)
    mem.set_tensor("Y", np.zeros((16, 16)), ElemType.f32)
    kinds = [s.kind for s in sim._walk(prepare(prog, launch, mem).steps)]
    assert "math.exp" not in kinds
    assert [kinds.count(k) for k in ("tt.reduce", "tt.expand_dims", "tt.broadcast", "arith.addf")] == [1, 1, 1, 1]
    grouped = outcome(prog, launch, mem)
    with monkeypatch.context() as mp:
        ungrouped(mp)
        assert outcome(prog, launch, mem) == grouped


def _gather(x_rows: int, y_rows: int) -> KernelFn:
    """Two warps: warp w loads the 16x16 block of X (16 columns, `x_rows`
    rows by its global shape) at the row that OFF holds at w, as its two 8x16
    pieces, and stores them at row 16*w of Y (`y_rows` rows)."""
    f32 = PtrType(ElemType.f32)
    fb = FunctionBuilder("gather", [("X", f32), ("OFF", PtrType(ElemType.i32)), ("Y", f32)], num_warps=2,
                         level="intrinsic")
    x, off, y = fb.fn.args
    w, (c0, c1, c2, c16) = fb.warp_id(), (fb.constant(v) for v in (0, 1, 2, 16))
    row = fb.reduce(fb.load(fb.make_tensor_ptr(off, [c2], [c1], [w], (1,), (0,))), "max", 0)
    src = fb.make_tensor_ptr(x, [fb.constant(x_rows), c16], [c16, c1], [row, c0], (16, 16), (1, 0))
    pieces = [fb.load(fb.extract(src, i, (8, 16))) for i in range(2)]
    dst = fb.make_tensor_ptr(y, [fb.constant(y_rows), c16], [c16, c1], [fb.binary("arith.muli", w, c16), c0],
                             (16, 16), (1, 0))
    for i, piece in enumerate(pieces):
        fb.store(fb.extract(dst, i, (8, 16)), piece)
    fb.ret()
    return fb.build()


# X holds 24 rows of 16; per case: the kernel's global rows of X and Y, OFF,
# the rows of 16 that Y holds, and the message (None: the run passes)
_GATHERS = {
    "in_bounds": (24, 32, [0, 8], 32, None),
    # warp 1's second piece, rows [20, 28); the whole block's window is [12, 28)
    "load_leaves_its_shape": (24, 32, [0, 12], 32,
                              "dim 0 window [20, 28) outside [0, 24) (@gather wg=0 pid=(0, 0, 0) warp=1 tt.load)"),
    # warp 1's first piece, rows [20, 28) of 32, overruns X; the whole block also leaves its shape there
    "load_overruns_its_buffer": (32, 32, [12, 20], 32,
                                 "flat index beyond buffer of 384 (@gather wg=0 pid=(0, 0, 0) warp=1 tt.load)"),
    # warp 1's second piece, rows [24, 32) of 32, overruns Y
    "store_overruns_its_buffer": (24, 32, [0, 8], 24,
                                  "flat index beyond buffer of 384 (@gather wg=0 pid=(0, 0, 0) warp=1 tt.store)"),
}


@pytest.mark.parametrize("forced", [False, True], ids=["proven", "forced"])
@pytest.mark.parametrize("case", _GATHERS)
def test_an_unproven_access_group_checks_its_block_and_fails_as_its_pieces_do(case, forced, monkeypatch):
    # the loads' offsets are loaded, so no load of a piece is proven in
    # bounds; an unproven group checks its whole block, then fails as the
    # first piece that leaves its bounds would on its own
    x_rows, y_rows, offs, y_held, message = _GATHERS[case]
    prog, launch, mem = _gather(x_rows, y_rows), sim.LaunchConfig(), DeviceMemory()
    mem.set_tensor("X", np.arange(384).reshape(24, 16) / 8, ElemType.f32)
    mem.set_tensor("OFF", np.array(offs), ElemType.i32)
    mem.set_tensor("Y", np.zeros((y_held, 16)), ElemType.f32)
    if forced:  # Y then keeps race marks, so its stores run as written
        prove_nothing(monkeypatch)
    ready = prepare(prog, launch, mem)
    groups = [s for s in sim._walk(ready.steps) if s.binds is not None]
    assert [s.kind for s in groups] == ["tt.load"] + ["tt.store"] * (not forced)
    # a store that stays inside Y's global shape is proven in bounds, and its group with it
    assert [id(s) in ready.inbounds for s in groups] == [False] + [y_held == y_rows] * (not forced)

    def run() -> object:
        try:
            return outcome(prog, launch, mem)
        except sim.SimError as exc:
            return str(exc)

    got, x = run(), mem.tensor("X")
    if message is None:  # warp 0 copies X's rows [0, 16), warp 1 its rows [8, 24)
        assert np.array_equal(np.frombuffer(got[0]["Y"], np.float32).reshape(32, 16), np.vstack([x[:16], x[8:]]))
    else:
        assert got == f"out-of-bounds block access: {message}"
    with monkeypatch.context() as mp:
        ungrouped(mp)
        assert run() == got
