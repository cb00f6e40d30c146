"""Bit-level snapshot of the simulator on the suite.

Each run is a suite fixture at one pipeline level with one seed, compiled
for the default PVC target, at the manifest seed and at seed 7.  For every
run the sha256 of each buffer's bytes after the launch, and of the traced
loads, stores and cross-warp reductions (inputs and delivered tiles), must
equal the digests in ``sim_snapshots.json``.  A change meant to alter what
the simulator computes or records rewrites the file with
``PYTHONPATH=src python tests/test_sim_snapshots.py``.

The same runs also check that adjacent levels agree in bits and that the
traced vISA loads move the bytes ``count_stats`` predicts.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tilec.kernels import FIXTURE_NAMES, load_fixture, make_problem, suite
from tilec.passes import compile_kernel
from tilec.sim import RunTrace, run
from tilec.visa import VOpcode, count_stats

SNAPSHOTS = Path(__file__).with_name("sim_snapshots.json")
LEVELS = ("workgroup", "warp", "intrinsic", "visa")
RUNS = [f"{name}/{level}/{seed}" for name in FIXTURE_NAMES for seed in (suite()[name].seed, 7) for level in LEVELS]


@functools.cache
def _compiled(name: str):
    return compile_kernel(load_fixture(name))


@functools.cache
def _run(name: str, level: str, seed: int):
    prob = make_problem(suite()[name], seed)
    trace = RunTrace()
    out = run(_compiled(name).at_level(level), prob.launch, prob.mem, trace=trace)
    return out, trace


def _manifest_run(name: str, level: str):
    return _run(name, level, suite()[name].seed)


def _digests(run_key: str) -> dict[str, str]:
    name, level, seed = run_key.split("/")
    out, trace = _run(name, level, int(seed))
    digests = {f"buf:{b}": hashlib.sha256(out.raw(b).tobytes()).hexdigest() for b in out.names()}
    for what, accesses in (("loads", trace.loads), ("stores", trace.stores)):
        h = hashlib.sha256()
        for a in accesses:
            h.update(repr((a.wg, a.warp, a.base, a.offsets, a.block)).encode())
        digests[what] = h.hexdigest()
    h = hashlib.sha256()
    for c in trace.cross:
        h.update(repr((c.wg, c.kind, c.dst, len(c.inputs), len(c.delivered))).encode())
        for arr in (*c.inputs, *c.delivered):
            h.update(repr((arr.dtype.str, arr.shape)).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    digests["cross"] = h.hexdigest()
    return digests


@pytest.mark.parametrize("run_key", RUNS)
def test_run_is_pinned(run_key):
    assert _digests(run_key) == json.loads(SNAPSHOTS.read_text())[run_key]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_levels_agree_in_bits(name):
    for a, b in (("workgroup", "warp"), ("intrinsic", "visa")):
        assert _manifest_run(name, a)[0].equal_bits(_manifest_run(name, b)[0]), f"{a} != {b}"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_visa_bytes_loaded_match_static_stats(name):
    prog = _compiled(name).vprog
    out, trace = _manifest_run(name, "visa")
    slm = [i.elem for i in prog.walk() if i.opcode == VOpcode.slm_alloc]

    def elem(base: str):
        return out.elem_of(base) if base in out else slm[int(base.removeprefix("%slm"))]

    dynamic = sum(math.prod(a.block) * elem(a.base).nbytes for a in trace.loads)
    static = count_stats(prog).bytes_loaded * prog.num_warps * math.prod(suite()[name].grid)
    # count_stats weights a load by its loop trips but not by scf.if: in
    # paged_warp only warp 0 loads the 1x64 f16 Q row, so the 128 B of each
    # of the other 7 warps are counted statically and never loaded
    gap = 7 * 128 if name == "paged_warp" else 0
    assert static - dynamic == gap


if __name__ == "__main__":
    SNAPSHOTS.write_text(json.dumps({k: _digests(k) for k in RUNS}, indent=1) + "\n")
