"""Footprints: what the simulator proves of a launch before it runs.

A launch skips the bounds checks of each access that the analysis proves in
bounds, and the race marks of each stored buffer that it proves no two rows
share.  These tests pin the verdicts on the suite and on kernels built to
sit on the edge of a proof, and check that forcing every check on (with
``conftest.prove_nothing``) changes no bits, no trace and no error.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import numpy as np
import pytest

from conftest import footprints, outcome, prove_nothing
from tilec.footprints import LOADED
from tilec.ir import ElemType, FunctionBuilder, KernelFn, PtrType
from tilec.kernels import FIXTURE_NAMES, load_fixture, make_problem, suite
from tilec.oracle import philox
from tilec.passes import compile_kernel
from tilec.sim import DeviceMemory, LaunchConfig, SimError, run

F32 = ElemType.f32
I32 = ElemType.i32
LEVELS = ("workgroup", "warp", "intrinsic", "visa")


def _compiled(name: str):
    return compile_kernel(load_fixture(name))


def _outcome(prog, launch: LaunchConfig, mem: DeviceMemory) -> tuple:
    """A run's `conftest.outcome`, or ("error", its message) if it fails."""
    try:
        return outcome(prog, launch, mem)
    except SimError as exc:
        return "error", str(exc)


def _both_ways(monkeypatch, prog, launch: LaunchConfig, mem: DeviceMemory) -> tuple:
    proven = _outcome(prog, launch, mem)
    with monkeypatch.context() as mp:
        prove_nothing(mp)
        forced = _outcome(prog, launch, mem)
    assert proven == forced
    return proven


_RUNS = [(name, level, seed, False) for name in FIXTURE_NAMES for seed in (suite()[name].seed, 7) for level in LEVELS]


@pytest.mark.parametrize(("name", "level", "seed", "reverse"), [*_RUNS, ("fa2_d64", "intrinsic", 2002, True)])
def test_forcing_every_check_changes_no_bits_and_no_trace(name, level, seed, reverse, monkeypatch):
    prob = make_problem(suite()[name], seed)
    launch = prob.launch
    if reverse:
        launch = replace(launch, wg_order=tuple(reversed(range(int(np.prod(launch.grid))))))
    bufs = _both_ways(monkeypatch, _compiled(name).at_level(level), launch, prob.mem)[0]
    assert isinstance(bufs, dict)  # the run completed


def _summary(facts) -> dict:
    """Per (access kind, buffer), the set of verdicts of its steps."""
    got: dict = {}
    for s, base, _, why in facts.accesses:
        got.setdefault((s.kind, base), set()).add(why)
    return got


_BUFFERS = {"gemm_256": {"A", "B", "C"}, "fa2_d64": {"Q", "K", "V", "O"}, "fa2_d128": {"Q", "K", "V", "O"},
            "paged_wg": {"Q", "KB", "VB", "BT", "O"}, "paged_warp": {"Q", "KB", "VB", "BT", "O", "%slm0"}}


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_verdicts(name, level, monkeypatch):
    prob = make_problem(suite()[name])
    facts, _ = footprints(monkeypatch, _compiled(name).at_level(level), prob.launch, prob.mem)
    got = _summary(facts)
    assert {base for _, base in got} == _BUFFERS[name]
    for (kind, base), whys in got.items():
        # only the paged gathers read their offsets from memory (the block table BT)
        assert whys == ({LOADED} if base in ("KB", "VB") else {None}), (kind, base)
    if name == "paged_warp":
        # warp 0 alone stores O and the SLM row (under an scf.if on the warp
        # id, known at launch); after a barrier every warp reads the row
        assert facts.races == {"O": None, "%slm0": "rows 0 and 1 may touch one element"}
    else:
        assert facts.races == {"C" if name == "gemm_256" else "O": None}


def test_gemm_warp_tiles_start_where_the_warp_grid_puts_them(monkeypatch):
    # warp w sits at (w // 4, w % 4) of the [8, 4] grid, column fastest; C's
    # 32x64 tiles are partitioned, A's row band is shared by warps 0-3 and
    # B's column band by warps w, w + 4, ...
    prob = make_problem(suite()["gemm_256"])
    facts, _ = footprints(monkeypatch, _compiled("gemm_256").at_level("warp"), prob.launch, prob.mem)
    origin = {base: o.T for s, base, o, _ in facts.accesses}
    w = np.arange(32)
    assert np.array_equal(origin["C"], np.stack([32 * (w // 4), 64 * (w % 4)], axis=1))
    assert np.array_equal(origin["A"], np.stack([32 * (w // 4), 0 * w], axis=1))
    assert np.array_equal(origin["B"], np.stack([0 * w, 64 * (w % 4)], axis=1))


# -- kernels at the edge of a proof ----------------------------------------------


def _quadrants() -> KernelFn:
    """Warp w of 4 stores its id to the 4x4 quadrant (w // 2, w % 2) of an
    8x8 O: the quadrants are disjoint, but the flat ranges of warps 0 and 1
    ([0, 28) and [4, 32)) overlap."""
    fb = FunctionBuilder("quads", [("O", PtrType(I32))], num_warps=4, level="warp")
    (o,) = fb.fn.args
    c0, c1, c2, c4, c8 = (fb.constant(v) for v in (0, 1, 2, 4, 8))
    w = fb.warp_id()
    row, col = (fb.binary("arith.muli", fb.binary(op, w, c2), c4) for op in ("arith.divi", "arith.remi"))
    fb.store(fb.make_tensor_ptr(o, [c8, c8], [c8, c1], [row, col], (4, 4), (1, 0)), fb.splat(w, (4, 4)))
    fb.ret()
    return fb.build()


def _zeros(elem: ElemType = F32, **shapes) -> DeviceMemory:
    mem = DeviceMemory()
    for name, shape in shapes.items():
        mem.set_tensor(name, np.zeros(shape), elem)
    return mem


def test_disjoint_tiles_whose_flat_ranges_overlap_are_race_free(monkeypatch):
    facts, out = footprints(monkeypatch, _quadrants(), LaunchConfig(), _zeros(I32, O=(8, 8)))
    assert facts.races == {"O": None}
    assert np.array_equal(out.tensor("O"), np.kron([[0, 1], [2, 3]], np.ones((4, 4))))
    _both_ways(monkeypatch, _quadrants(), LaunchConfig(), _zeros(I32, O=(8, 8)))


def _zero_stride_alias() -> KernelFn:
    """As in test_sim: a row stride of 0 maps each column of a warp's 4x4 block to one element of O."""
    fb = FunctionBuilder("alias", [("X", PtrType(F32)), ("O", PtrType(F32))], num_warps=2, level="warp")
    x, o = fb.fn.args
    c0, c1, c4, c8 = (fb.constant(v) for v in (0, 1, 4, 8))
    tile = fb.load(fb.make_tensor_ptr(x, [c4, c4], [c4, c1], [c0, c0], (4, 4), (1, 0)))
    col = fb.binary("arith.muli", fb.warp_id(), c4)
    fb.store(fb.make_tensor_ptr(o, [c4, c8], [c0, c1], [c0, col], (4, 4), (1, 0)), tile)
    fb.ret()
    return fb.build()


def _two_geometries() -> KernelFn:
    """Warp 0 stores 16 to rows 0-3 of an 8x4 O, as an 8x4 tensor with
    strides (4, 1); warp 1 stores 17 to rows 4-7, as columns 4-7 of a 4x8
    tensor with strides (1, 4)."""
    fb = FunctionBuilder("views", [("O", PtrType(I32))], num_warps=2, level="warp")
    (o,) = fb.fn.args
    c0, c1, c3, c4, c8, c16 = (fb.constant(v) for v in (0, 1, 3, 4, 8, 16))
    w = fb.warp_id()
    w3, w4 = fb.binary("arith.muli", w, c3), fb.binary("arith.muli", w, c4)
    ptr = fb.make_tensor_ptr(o, [fb.binary("arith.subi", c8, w4), fb.binary("arith.addi", c4, w4)],
                             [fb.binary("arith.subi", c4, w3), fb.binary("arith.addi", c1, w3)], [c0, w4], (4, 4), (1, 0))
    fb.store(ptr, fb.splat(fb.binary("arith.addi", w, c16), (4, 4)))
    fb.ret()
    return fb.build()


def test_zero_strides_and_two_geometries_are_not_proven(monkeypatch):
    x = philox(6).random((4, 4)).astype(np.float32)
    mem = _zeros(O=(2, 4))
    mem.set_tensor("X", x, F32)
    facts, _ = footprints(monkeypatch, _zero_stride_alias(), LaunchConfig(), mem)
    assert facts.races == {"O": "its geometry maps two indices to one element"}
    _both_ways(monkeypatch, _zero_stride_alias(), LaunchConfig(), mem)
    facts, out = footprints(monkeypatch, _two_geometries(), LaunchConfig(), _zeros(I32, O=(8, 4)))
    assert facts.races == {"O": "accesses use more than one geometry"}
    assert np.array_equal(out.tensor("O"), np.repeat([16, 17], 16).reshape(8, 4))
    _both_ways(monkeypatch, _two_geometries(), LaunchConfig(), _zeros(I32, O=(8, 4)))


def _rebased_carry() -> KernelFn:
    """Both warps add their id plus 1 to row 0 of O through a loop-carried
    pointer, which each trip then moves to row 0 of P."""
    fb = FunctionBuilder("rebase", [("O", PtrType(I32)), ("P", PtrType(I32))], num_warps=2, level="warp")
    o, p = fb.fn.args
    c0, c1, c2, c4 = (fb.constant(v) for v in (0, 1, 2, 4))
    po, pp = (fb.make_tensor_ptr(buf, [c1, c4], [c4, c1], [c0, c0], (1, 4), (1, 0)) for buf in (o, p))
    _, (ptr,) = fb.begin_for(c0, c2, c1, [po])
    add = fb.splat(fb.binary("arith.addi", fb.warp_id(), c1), (1, 4))
    fb.store(ptr, fb.binary("arith.addi", fb.load(ptr), add))
    fb.end_for([pp])
    fb.ret()
    return fb.build()


def test_a_store_not_followed_to_its_buffer_keeps_every_buffer_checked(monkeypatch):
    # the proof cannot tell which buffer the loop's store reaches, so it
    # proves no buffer, and the run catches the warps' clash on O
    mem = _zeros(I32, O=(1, 4), P=(1, 4))
    facts, exc = footprints(monkeypatch, _rebased_carry(), LaunchConfig(), mem)
    assert facts.races == dict.fromkeys("OP", "carried pointer may change buffer")
    want = ("race on buffer 'O' element 0: warps 0 and 1 touch it between two synchronization points, "
            "not only reading it or storing the same bits (@rebase wg=0 pid=(0, 0, 0) warp=0 tt.store)")
    assert str(exc) == want
    assert _both_ways(monkeypatch, _rebased_carry(), LaunchConfig(), mem) == ("error", want)


def _rebased_to_slm() -> KernelFn:
    """One warp per workgroup: a loop-carried pointer starts at row pid + I[0]
    of O, a row offset read from memory, and each trip moves it to an SLM
    row.  Trip 0 stores pid + 1 to O, trip 1 to the SLM row; after the loop
    every workgroup loads its SLM row and stores it to row pid + 2 of O."""
    fb = FunctionBuilder("reslm", [("O", PtrType(I32)), ("I", PtrType(I32))], num_warps=1, level="warp")
    o, i = fb.fn.args
    c0, c1, c2, c4 = (fb.constant(v) for v in (0, 1, 2, 4))
    pid, slm = fb.program_id(0), fb.alloc((1, 4), I32)
    k = fb.reduce(fb.load(fb.make_tensor_ptr(i, [c1], [c1], [c0], (1,), (0,))), "max", 0)
    start = fb.advance(fb.make_tensor_ptr(o, [c4, c4], [c4, c1], [c0, c0], (1, 4), (1, 0)),
                       [fb.binary("arith.addi", pid, k), c0])
    row = fb.splat(fb.binary("arith.addi", pid, c1), (1, 4))
    _, (ptr,) = fb.begin_for(c0, c2, c1, [start])
    fb.store(ptr, row)
    fb.end_for([slm])
    fb.barrier()
    below = fb.make_tensor_ptr(o, [c4, c4], [c4, c1], [fb.binary("arith.addi", pid, c2), c0], (1, 4), (1, 0))
    fb.store(below, fb.load(slm))
    fb.ret()
    return fb.build()


def test_a_carry_whose_offsets_are_not_known_still_loses_its_buffer(monkeypatch):
    # the carry starts in O at an offset read from memory and moves to the
    # SLM row: the SLM must stay race-checked, or the load after the loop
    # would gather workgroup 0's SLM row once for every workgroup
    mem = _zeros(I32, O=(4, 4))
    mem.set_tensor("I", np.zeros(1), ElemType.i32)
    launch = LaunchConfig(grid=(2, 1, 1))
    facts, out = footprints(monkeypatch, _rebased_to_slm(), launch, mem)
    assert facts.races == dict.fromkeys(("O", "I", "%slm0"), "carried pointer may change buffer")
    assert np.array_equal(out.tensor("O"), np.repeat([1, 2, 1, 2], 4).reshape(4, 4))
    # a store may reach every buffer, so the run copies I too, though it only loads it
    assert out.raw("I").flags.writeable and not np.shares_memory(out.raw("I"), mem.raw("I"))
    _both_ways(monkeypatch, _rebased_to_slm(), launch, mem)


def _rows_down(trips: int) -> KernelFn:
    """Warp w of 4 loads rows w, w + 1, ... of a 6-row X, one per trip, through
    a carried pointer: with 4 trips warp 3 reads row 6 on the last trip."""
    fb = FunctionBuilder("down", [("X", PtrType(F32)), ("O", PtrType(F32))], num_warps=4, level="warp")
    x, o = fb.fn.args
    c0, c1, c4, c6 = (fb.constant(v) for v in (0, 1, 4, 6))
    w = fb.warp_id()
    px = fb.make_tensor_ptr(x, [c6, c4], [c4, c1], [w, c0], (1, 4), (1, 0))
    _, (acc, px) = fb.begin_for(c0, fb.constant(trips), c1, [fb.splat(fb.constant(0.0), (1, 4)), px])
    acc, _ = fb.end_for([fb.binary("arith.addf", acc, fb.load(px)), fb.advance(px, [c1, c0])])
    fb.store(fb.make_tensor_ptr(o, [c4, c4], [c4, c1], [w, c0], (1, 4), (1, 0)), acc)
    fb.ret()
    return fb.build()


def test_a_block_out_of_bounds_on_the_last_trip_only_is_checked(monkeypatch):
    mem = _zeros(X=(6, 4), O=(4, 4))
    facts, _ = footprints(monkeypatch, _rows_down(3), LaunchConfig(), mem)
    assert [why for _, _, _, why in facts.accesses] == [None, None]
    assert facts.races == {"O": None}
    facts, exc = footprints(monkeypatch, _rows_down(4), LaunchConfig(), mem)
    assert [why for _, _, _, why in facts.accesses] == ["a block may leave its bounds", None]
    assert str(exc) == (
        "out-of-bounds block access: dim 0 window [6, 7) outside [0, 6) (@down wg=0 pid=(0, 0, 0) warp=3 tt.load)"
    )
    assert _both_ways(monkeypatch, _rows_down(4), LaunchConfig(), mem) == ("error", str(exc))


def _masked_past_the_end(flagged: bool) -> KernelFn:
    """Warp w loads rows 4w..4w+3 of a 4-row X and stores them to O, inside
    an scf.if that only warp 0 takes: warp 1's block lies past X's end.  The
    condition is warp_id == 0, or if `flagged`, warp w's entry of F being
    nonzero, which is not known before the run."""
    fb = FunctionBuilder("masked", [("X", PtrType(F32)), ("O", PtrType(F32)), ("F", PtrType(ElemType.i32))],
                         num_warps=2, level="warp")
    x, o, f = fb.fn.args
    c0, c1, c2, c4 = (fb.constant(v) for v in (0, 1, 2, 4))
    w = fb.warp_id()
    if flagged:
        flag = fb.reduce(fb.load(fb.make_tensor_ptr(f, [c2], [c1], [w], (1,), (0,))), "max", 0)
        fb.begin_if(fb.cmpi("ne", flag, c0))
    else:
        fb.begin_if(fb.cmpi("eq", w, c0))
    row = fb.binary("arith.muli", w, c4)
    tile = fb.load(fb.make_tensor_ptr(x, [c4, c4], [c4, c1], [row, c0], (4, 4), (1, 0)))
    fb.store(fb.make_tensor_ptr(o, [c4, c4], [c4, c1], [row, c0], (4, 4), (1, 0)), tile)
    fb.end_if()
    fb.ret()
    return fb.build()


@pytest.mark.parametrize("flagged", [False, True])
def test_a_block_out_of_bounds_only_where_an_if_masks_it_off_runs_clean(flagged, monkeypatch):
    mem = _zeros(O=(4, 4))
    mem.set_tensor("X", np.arange(16).reshape(4, 4), F32)
    mem.set_tensor("F", np.array([1, 0]), ElemType.i32)
    facts, out = footprints(monkeypatch, _masked_past_the_end(flagged), LaunchConfig(), mem)
    # a condition known at launch leaves warp 1 out; one read from F does not
    want = ["a block may leave its bounds"] * 2 if flagged else [None, None]
    assert [why for s, _, _, why in facts.accesses if s.shape == (4, 4)] == want
    assert np.array_equal(out.tensor("O"), np.arange(16).reshape(4, 4))
    _both_ways(monkeypatch, _masked_past_the_end(flagged), LaunchConfig(), mem)


def test_suffix_sums_are_proven_and_keep_their_bits(monkeypatch):
    # per-warp trip counts: warp w runs 6 - w trips, so its carried pointers
    # end 6 - w rows down, inside X and O
    from test_sim import _suffix_sums

    x = philox(5).random((6, 4)).astype(np.float32)
    mem = _zeros(O=(7, 4))
    mem.set_tensor("X", x, F32)
    facts, _ = footprints(monkeypatch, _suffix_sums(rows=6, warps=4), LaunchConfig(), mem)
    assert [(s.kind, base, why) for s, base, _, why in facts.accesses] == [("tt.load", "X", None), ("tt.store", "O", None)]
    assert facts.races == {"O": None}
    _both_ways(monkeypatch, _suffix_sums(rows=6, warps=4), LaunchConfig(), mem)


def _row_per_trip(trips: int, row, rows: int) -> KernelFn:
    """On trip t of `trips`, one warp per workgroup stores t + 1 to row
    `row(fb, t, pid)` of a `rows`x4 O."""
    fb = FunctionBuilder("rows", [("O", PtrType(I32))], num_warps=1, level="warp")
    (o,) = fb.fn.args
    c0, c1, c4 = (fb.constant(v) for v in (0, 1, 4))
    pid = fb.program_id(0)
    t, _ = fb.begin_for(c0, fb.constant(trips), c1, [])
    ptr = fb.make_tensor_ptr(o, [fb.constant(rows), c4], [c4, c1], [row(fb, t, pid), c0], (1, 4), (1, 0))
    fb.store(ptr, fb.splat(fb.binary("arith.addi", t, c1), (1, 4)))
    fb.end_for([])
    fb.ret()
    return fb.build()


def test_a_row_quadratic_in_the_trip_is_not_affine(monkeypatch):
    fn = _row_per_trip(4, lambda fb, t, pid: fb.binary("arith.muli", t, t), rows=10)
    facts, out = footprints(monkeypatch, fn, LaunchConfig(), _zeros(I32, O=(10, 4)))
    assert [why for _, _, _, why in facts.accesses] == ["offset is not affine in the loop counters"]
    assert facts.races == {"O": "offset is not affine in the loop counters"}
    assert out.tensor("O")[[0, 1, 4, 9], 0].tolist() == [1, 2, 3, 4]
    _both_ways(monkeypatch, fn, LaunchConfig(), _zeros(I32, O=(10, 4)))


def test_a_row_that_may_overflow_i32_is_checked(monkeypatch):
    fn = _row_per_trip(16, lambda fb, t, pid: fb.binary("arith.muli", t, fb.constant(2**28)), rows=16)
    facts, exc = footprints(monkeypatch, fn, LaunchConfig(), _zeros(I32, O=(16, 4)))
    assert [why for _, _, _, why in facts.accesses] == ["offset may overflow i32"]
    assert str(exc) == ("out-of-bounds block access: dim 0 window [268435456, 268435457) outside [0, 16) "
                        "(@rows wg=0 pid=(0, 0, 0) warp=0 tt.store)")
    assert _both_ways(monkeypatch, fn, LaunchConfig(), _zeros(I32, O=(16, 4))) == ("error", str(exc))


def test_a_trip_times_a_per_row_value_is_affine(monkeypatch):
    # workgroup g stores rows g and 2g + 2: in bounds, but the two
    # workgroups' row ranges meet, so O keeps its race marks
    def row(fb, t, pid):
        return fb.binary("arith.addi", fb.binary("arith.muli", t, fb.binary("arith.addi", pid, fb.constant(2))), pid)

    fn, launch = _row_per_trip(2, row, rows=5), LaunchConfig(grid=(2, 1, 1))
    facts, out = footprints(monkeypatch, fn, launch, _zeros(I32, O=(5, 4)))
    assert [why for _, _, _, why in facts.accesses] == [None]
    assert facts.races == {"O": "rows 0 and 1 may touch one element"}
    assert out.tensor("O")[:, 0].tolist() == [1, 1, 2, 0, 2]
    _both_ways(monkeypatch, fn, launch, _zeros(I32, O=(5, 4)))


def _carried_past_a_loop(loaded: str) -> KernelFn:
    """A pointer to row `start` of a 4x4 O moves one row per trip of a loop of
    `trips` trips; after the loop, 7 is stored through it.  `loaded` names
    what is read from I[0]: "trips" (start 0) or "start" (2 trips)."""
    fb = FunctionBuilder("carry", [("O", PtrType(F32)), ("I", PtrType(ElemType.i32))], num_warps=1, level="warp")
    o, i = fb.fn.args
    c0, c1, c2, c4 = (fb.constant(v) for v in (0, 1, 2, 4))
    first = fb.reduce(fb.load(fb.make_tensor_ptr(i, [c1], [c1], [c0], (1,), (0,))), "max", 0)
    start, trips = (first, c2) if loaded == "start" else (c0, first)
    ptr = fb.make_tensor_ptr(o, [c4, c4], [c4, c1], [start, c0], (1, 4), (1, 0))
    _, (ptr,) = fb.begin_for(c0, trips, c1, [ptr])
    (ptr,) = fb.end_for([fb.advance(ptr, [c1, c0])])
    fb.store(ptr, fb.splat(fb.constant(7.0), (1, 4)))
    fb.ret()
    return fb.build()


@pytest.mark.parametrize(("loaded", "first", "why"), [("trips", 3, "loop bounds are not known before the run"),
                                                      ("start", 1, LOADED)])
def test_a_pointer_carried_past_a_loop_not_known_at_launch_is_checked(loaded, first, why, monkeypatch):
    # either way the store lands on row 3
    mem = _zeros(O=(4, 4))
    mem.set_tensor("I", np.array([first]), ElemType.i32)
    facts, out = footprints(monkeypatch, _carried_past_a_loop(loaded), LaunchConfig(), mem)
    assert [(s.kind, base, w) for s, base, _, w in facts.accesses] == [("tt.load", "I", None), ("tt.store", "O", why)]
    assert out.tensor("O")[:, 0].tolist() == [0, 0, 0, 7]
    _both_ways(monkeypatch, _carried_past_a_loop(loaded), LaunchConfig(), mem)


def test_a_run_leaves_no_cycles_to_collect():
    # the analysis's helpers call each other; left linked, they would keep
    # the launch and its buffers alive until the next cyclic collection
    fn, mem = _rows_down(3), _zeros(X=(6, 4), O=(4, 4))
    gc.collect()
    gc.disable()
    try:
        run(fn, LaunchConfig(), mem)
        assert gc.collect() == 0
    finally:
        gc.enable()
