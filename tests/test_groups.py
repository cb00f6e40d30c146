"""Piece groups: the simulator runs the pieces that ``match_target_size`` cut
from one tile as one step.

Grouping must not move a bit, a traced access or a cross-warp record: every
suite run is compared with the same run with grouping switched off by a
monkeypatch here (the product has no switch).
"""

from __future__ import annotations

import functools

import pytest

from conftest import prove_nothing
from tilec import passes, sim
from tilec.ir import ElemType, walk_fn_ops
from tilec.kernels import FIXTURE_NAMES, load_fixture, make_problem, suite
from tilec.passes import compile_kernel
from tilec.sim import RunTrace, prepare, run

LEVELS = ("workgroup", "warp", "intrinsic", "visa")


def ungrouped(mp: pytest.MonkeyPatch) -> None:
    """Make every launch prepared from now on run each step as written."""
    mp.setattr(sim, "_group", lambda steps, *rest: steps)


@functools.cache
def _compiled(name: str):
    return compile_kernel(load_fixture(name))


def _outcome(prog, name: str, seed: int) -> tuple:
    """A run's buffers, traced loads and stores, and cross-warp records, comparable with ==."""
    prob = make_problem(suite()[name], seed)
    trace = RunTrace()
    out = run(prog, prob.launch, prob.mem, trace=trace)
    cross = [(c.wg, c.kind, c.dst, [a.tobytes() for a in (*c.inputs, *c.delivered)]) for c in trace.cross]
    return {b: out.raw(b).tobytes() for b in out.names()}, trace.loads, trace.stores, cross


@pytest.mark.parametrize("forced", [False, True], ids=["proven", "forced"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_grouped_runs_give_the_bits_and_trace_of_ungrouped_runs(name, forced, monkeypatch):
    if forced:  # no access is proven, so no access groups; value groups still form
        prove_nothing(monkeypatch)
    for seed in (suite()[name].seed, 7):
        for level in LEVELS:
            prog = _compiled(name).at_level(level)
            grouped = _outcome(prog, name, seed)
            with monkeypatch.context() as mp:
                ungrouped(mp)
                assert _outcome(prog, name, seed) == grouped, f"{level} seed {seed}"


def _steps(launch: sim.Launch) -> tuple[int, list[int]]:
    """The number of top-level steps of a launch, and of the steps of each loop body."""
    return len(launch.steps), [len(s.body) for s in launch.steps if s.kind == "scf.for"]


@pytest.mark.parametrize("level", ["intrinsic", "visa"])
def test_fa2_d128_runs_as_few_steps(level):
    # ungrouped, 149 steps at the top level and 326 in the loop body
    prob = make_problem(suite()["fa2_d128"])
    assert _steps(prepare(_compiled("fa2_d128").at_level(level), prob.launch, prob.mem)) == (34, [33])


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


def test_groups_that_wait_on_each_other_are_not_ordered():
    # steps 1 and 3 read steps 0 and 2: groups {0, 3} and {1, 2} would each have to run before the other
    body = [sim._Step("arith.addf", "arith.addf", (), (i,), {}, (8,), ElemType.f32, False, None, None) for i in range(4)]
    reads = [set(), {0}, set(), {2}]
    assert sim._order(body, [[0, 3], [1, 2]], reads) is None
    assert sim._order(body, [[0, 2]], reads) == [[0, 2], [1], [3]]
    assert sim._order(body, [], reads) == [[0], [1], [2], [3]]
