"""Workloads and operations of the tilec benchmark.

Two operations exist.  A *check* draws a fresh problem for one input
seed, runs the fixture at all four pipeline levels, compares every
output with the numpy oracle within the manifest tolerance, and requires
bit equality between the workgroup and warp outputs and between the
intrinsic and visa outputs.  A *compile* parses a shipped ``.ttir``,
verifies it, runs the three passes and ``lower`` under one target
profile and tiling hint, round-trips every stage through print and
parse, and disassembles the vISA program.

Every call into tilec goes through ``Recorder.call``, which times it as
a span while tracing is on and names the layer a failure came from.
The benchmark hands tilec only generated inputs: ``make_problem``
buffers, target-profile text and tiling hints.
"""
from __future__ import annotations

import hashlib
import re
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib.resources import files
from typing import Any, Callable

import numpy as np

from tilec import (
    KernelModule,
    PassError,
    RunTrace,
    apply_tiling_hints,
    assign_layouts,
    count_stats,
    disassemble,
    distribute_to_warps,
    lower,
    match_target_size,
    parse_module,
    parse_target,
    print_module,
    rel_max_err,
    run,
    verify_or_raise,
)
from tilec.ir import walk_fn_ops
from tilec.kernels import FIXTURE_NAMES, kernel_text, make_problem, suite
from tilec.visa import VOpcode

LEVELS = ("workgroup", "warp", "intrinsic", "visa")

PVC_TEXT = files("tilec").joinpath("targets/pvc.target").read_text()


def _override(text: str, **keys: str) -> str:
    """``text`` with the ``key=value`` line of each named key replaced."""
    for key, value in keys.items():
        text, n = re.subn(rf"^{key}=.*$", f"{key}={value}", text, flags=re.M)
        if n != 1:
            raise ValueError(f"pvc.target has {n} {key}= lines, expected 1")
    return text


# Target profiles of the compile cycle, as the text parse_target reads.
# pvc_simd is the shipped targets/pvc.target; the others change one axis
# each: lowering style, load block, dot unit, lane count.
PROFILE_TEXT = {
    "pvc_simd": PVC_TEXT,
    "pvc_simt": _override(PVC_TEXT, style="simt"),
    "load16": _override(PVC_TEXT, max_load="16x16"),
    "dot8": _override(PVC_TEXT, max_dot="8x8x16"),
    "lanes32": _override(PVC_TEXT, threads_per_warp="32", max_load="32x64"),
}
CHECK_PROFILE = "pvc_simd"

# Tiling hints for the first dot of each kernel; None leaves the kernel's own.
HINTS = (None, "horizontal", "vertical", "square")

# The compiles that fail today, each with a PassError: under dot0=vertical
# the root tiling of gemm_256 ignores the target, which rejects it on every
# profile whose dot unit is 16 wide.  They count as failed but not as
# incorrect; any other failed compile is incorrect.
KNOWN_COMPILE_FAILURES = frozenset(("gemm_256", p, "vertical") for p in ("pvc_simd", "pvc_simt", "load16", "lanes32"))


@dataclass(frozen=True)
class Workload:
    op: str  # "check" or "compile"
    fixtures: tuple[str, ...]


WORKLOADS = {
    # dot, load and store only, over 32 warps: per-warp dispatch dominates
    "gemm_check": Workload("check", ("gemm_256",)),
    # the longest launch; exp, reduce, broadcast, extract and glue dominate
    # the intrinsic and visa interpreters, while warps are only 8 wide
    "attn_check": Workload("check", ("fa2_d128",)),
    # short launches with block-table gathers, SLM staging, a barrier,
    # cross-warp reduces and an scf.if on the warp id
    "paged_check": Workload("check", ("paged_wg", "paged_warp")),
    # textio, ir, passes and visa only; a simulator change must not move it
    "compile_rt": Workload("compile", FIXTURE_NAMES),
}

# Set-up runs once before the first operation, then again between
# operations whenever it has taken less than SETUP_SHARE of the run so
# far.  Its repetitions thus sample the host over the same window as the
# operations do; setup_s is their median.
SETUP_SHARE = 0.15


# --------------------------------------------------------------------------
# host speed

# The benchmark shares its host.  On a shared 2-vCPU host the interpreter's
# speed swung by 2x over seconds, in CPU time as well as wall time, so raw
# seconds of one run say as much about the neighbours as about tilec.  A
# fixed pure-Python loop that calls no tilec code (the probe) is timed at
# least every PROBE_EVERY_S, between operations and between the calls
# inside one.  Every time the benchmark reports is the measured time, less
# the probes inside it, scaled by PROBE_S / (mean of the probes from the
# one just before it to the one just after it): the seconds it would have
# read on a host where the probe takes PROBE_S.
PROBE_S = 0.010
PROBE_ITERS = 47_000  # a third of the probe: about PROBE_S / 3 on a quiet 2.1 GHz core
PROBE_EVERY_S = 0.25


def probe() -> float:
    """The fastest of three thirds of the probe loop, times three, so a
    single interruption does not read as a slow host."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(PROBE_ITERS):
            s += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return 3 * best


class Probes:
    """Probe timings of one run, and the wall time they took."""

    def __init__(self) -> None:
        self.times = [probe()]
        self.spent = 0.0  # wall seconds inside take(), to subtract from the work around it
        self.at = time.perf_counter()

    def take(self) -> None:
        t0 = time.perf_counter()
        self.times.append(probe())
        self.at = time.perf_counter()
        self.spent += self.at - t0

    def due(self) -> bool:
        return time.perf_counter() - self.at >= PROBE_EVERY_S

    def scale(self, first: int, last: int) -> float:
        """Scale for work that began after probe ``first`` and ended
        before probe ``last``."""
        window = self.times[first : last + 1]
        return PROBE_S / (sum(window) / len(window))


# --------------------------------------------------------------------------
# spans and failures


class LayerFailure(Exception):
    """A call into tilec raised; ``layer`` names the module it belongs to."""

    def __init__(self, layer: str, error: Exception):
        super().__init__(f"{layer}: {type(error).__name__}: {error}")
        self.layer = layer
        self.error = error


class Recorder:
    """Spans around calls into tilec, kept in memory until the run ends.

    A span is ``[name, start, end, parent, op]``: ``parent`` indexes the
    enclosing span (-1 for none) and ``op`` is the operation id the span
    belongs to (an int, or ``"setup<i>"`` for a set-up repetition).
    While ``tracing`` is false no span is recorded and no RunTrace is
    kept, so untraced operations pay nothing but a branch.  A probe due
    before a call is taken there, as a ``bench.probe`` span.
    """

    def __init__(self, probes: Probes) -> None:
        self.probes = probes
        self.tracing = False
        self.spans: list[list[Any]] = []
        self.bytes: Counter[str] = Counter()  # text bytes through print/parse, traced calls only
        self._stack: list[int] = []
        self.op: int | str | None = None

    @contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield
            return
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if self.probes.due():
            with self.span("bench.probe"):
                self.probes.take()
        try:
            with self.span(name):
                return fn(*args, **kwargs)
        except Exception as e:  # any exception from tilec fails the operation
            raise LayerFailure(name.split(".")[0], e) from e


# --------------------------------------------------------------------------
# static program facts


def ir_op_count(fn) -> int:
    """Ops one context executes: loop bodies weighted by constant trip
    counts, ``scf.if`` bodies counted as taken (an upper bound)."""
    consts = {
        id(op.results[0]): op.attrs["value"]
        for op in walk_fn_ops(fn)
        if op.kind == "arith.constant" and type(op.attrs.get("value")) is int
    }

    def count(region, mult: int) -> int:
        n = 0
        for op in region.ops:
            n += mult
            if op.kind == "scf.for":
                lb, ub, step = (consts[id(v)] for v in op.operands[:3])
                n += count(op.regions[0], mult * len(range(lb, ub, step)))
            else:
                for r in op.regions:
                    n += count(r, mult)
        return n

    return count(fn.body, 1)


def visa_op_count(prog) -> int:
    """Instructions one warp executes, weighted like ``ir_op_count``."""
    consts = {
        i.results[0]: i.attrs["value"]
        for i in prog.walk()
        if i.opcode == VOpcode.mov and i.op == "const" and type(i.attrs.get("value")) is int
    }

    def count(instrs, mult: int) -> int:
        n = 0
        for i in instrs:
            n += mult
            if i.body is not None:
                trip = len(range(*(consts[r] for r in i.operands[:3]))) if i.op == "for" else 1
                n += count(i.body, mult * trip)
        return n

    return count(prog.body, 1)


def slm_elems(prog) -> list:
    """Element types of the program's SLM allocations, in walk order; the
    simulator names them ``%slm0``, ``%slm1``, ... in that order."""
    if hasattr(prog, "walk"):
        return [i.elem for i in prog.walk() if i.opcode == VOpcode.slm_alloc]
    return [op.results[0].type.pointee.elem for op in walk_fn_ops(prog) if op.kind == "tt.alloc"]


def digest(mem) -> str:
    h = hashlib.sha256()
    for name in sorted(mem.names()):
        raw = mem.raw(name)
        h.update(f"{name}:{raw.dtype.str}:".encode())
        h.update(raw.tobytes())
    return h.hexdigest()[:16]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# compile


@dataclass
class Compiled:
    stages: dict[str, Any]  # level -> KernelFn or VProgram
    facts: dict[str, int]


def compile_op(rec: Recorder, name: str, text: str, profile: str, hint: str | None,
               digests: dict[str, str], problems: list[tuple[str, str]]) -> Compiled:
    """One compile.  Appends (layer, reason) to ``problems`` for a changed
    reprint; raises LayerFailure when a call into tilec raises."""
    target = rec.call("visa.parse_target", parse_target, PROFILE_TEXT[profile], profile)
    fn = rec.call("textio.parse_module", lambda: parse_module(text).get(name))
    if rec.tracing:
        rec.bytes["textio.parse_module"] += len(text)
    rec.call("ir.verify_or_raise", verify_or_raise, fn)
    if hint is not None:
        fn = rec.call("passes.apply_tiling_hints", apply_tiling_hints, fn, {0: hint})
    wg = rec.call("passes.assign_layouts", assign_layouts, fn)
    warp = rec.call("passes.distribute_to_warps", distribute_to_warps, wg)
    intr = rec.call("passes.match_target_size", match_target_size, warp, target)
    vprog = rec.call("visa.lower", lower, intr, target)
    key = f"{name}/{profile}/{hint}"
    for level, stage in (("workgroup", wg), ("warp", warp), ("intrinsic", intr)):
        dump = rec.call("textio.print_module", print_module, KernelModule([stage]))
        back = rec.call("textio.parse_module", parse_module, dump)
        again = rec.call("textio.print_module", print_module, back)
        if rec.tracing:
            rec.bytes["textio.print_module"] += len(dump) + len(again)
            rec.bytes["textio.parse_module"] += len(dump)
        if again != dump:
            problems.append(("textio", f"{key}: {level} dump changes when parsed and printed again"))
        digests[f"{key}/{level}"] = text_digest(dump)
    vasm = rec.call("visa.disassemble", disassemble, vprog)
    digests[f"{key}/visa"] = text_digest(vasm)
    stats = rec.call("visa.count_stats", count_stats, vprog)
    facts = {
        "distribute_ops_out": sum(1 for _ in walk_fn_ops(warp)),
        "match_ops_out": sum(1 for _ in walk_fn_ops(intr)),
        "instrs": sum(1 for _ in vprog.walk()),
        "static_bytes_loaded": stats.bytes_loaded,
    }
    stages = {"workgroup": wg, "warp": warp, "intrinsic": intr, "visa": vprog}
    return Compiled(stages, facts)


# --------------------------------------------------------------------------
# check


def _trace_counts(trace: RunTrace, mem, prog, level: str) -> Counter:
    slm = slm_elems(prog)

    def nbytes(acc) -> int:
        n = int(np.prod(acc.block))
        if acc.base in mem:
            return n * mem.elem_of(acc.base).nbytes
        return n * slm[int(acc.base.removeprefix("%slm"))].nbytes

    c = Counter(loads=len(trace.loads), stores=len(trace.stores), cross_reduces=len(trace.cross))
    for kind, accesses in (("loaded", trace.loads), ("stored", trace.stores)):
        for acc in accesses:
            b = nbytes(acc)
            if acc.base in mem:
                c[f"global_bytes_{kind}"] += b
            else:
                c["slm_bytes"] += b
            if level == "visa" and kind == "loaded":
                c["visa_bytes_loaded"] += b
    return c


def check_op(rec: Recorder, prepared: list[tuple[Any, Compiled]], seed: int,
             digests: dict[str, str], problems: list[tuple[str, str]]) -> Counter:
    """One check at every level of each prepared fixture; returns the
    simulator counts (empty when not tracing)."""
    counts: Counter = Counter()
    for fx, comp in prepared:
        prob = rec.call("kernels.make_problem", make_problem, fx, seed=seed)
        outs = {}
        for level in LEVELS:
            trace = RunTrace() if rec.tracing else None
            prog = comp.stages[level]
            outs[level] = rec.call(f"sim.run.{level}", run, prog, prob.launch, prob.mem, trace=trace)
            if trace is not None:
                counts += _trace_counts(trace, prob.mem, prog, level)
            digests[f"{fx.name}/{level}/{seed}"] = digest(outs[level])
        with rec.span("oracle.check"):
            for level in LEVELS:
                for buf, want in prob.expected.items():
                    got = outs[level].tensor(buf)
                    err = rec.call("oracle.rel_max_err", rel_max_err, got, want)
                    if not err <= prob.tolerance:
                        problems.append(("oracle", f"{fx.name}/{level}/{seed} {buf}: "
                                                   f"rel err {err:.3g} > {prob.tolerance}"))
            for a, b in (("workgroup", "warp"), ("intrinsic", "visa")):
                if not rec.call("sim.DeviceMemory.equal_bits", outs[a].equal_bits, outs[b]):
                    problems.append(("oracle", f"{fx.name}/{seed}: {a} and {b} outputs differ in bits"))
    return counts


# --------------------------------------------------------------------------
# workload runner


@dataclass
class Result:
    # measured seconds and host scale per unit of work: an operation (int
    # id) or a set-up repetition ("setup<i>")
    seconds: dict[Any, float] = field(default_factory=dict)
    scale: dict[Any, float] = field(default_factory=dict)
    traced: set = field(default_factory=set)  # ids of traced operations
    probe_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0  # failed operations other than KNOWN_COMPILE_FAILURES
    layer_failures: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    # static facts per distinct program the workload runs (check) or
    # compiles in a cycle (compile), keyed fixture/profile/hint
    programs: dict[str, dict[str, int]] = field(default_factory=dict)
    dyn_ops: Counter = field(default_factory=Counter)  # per level, one check op
    static_bytes_loaded: int = 0  # count_stats bytes x warps x workgroups, one check op
    sim_counts: list[Counter] = field(default_factory=list)  # per traced check op
    spans: list[list[Any]] = field(default_factory=list)
    text_bytes: Counter = field(default_factory=Counter)

    def ref_seconds(self, unit: Any) -> float:
        return self.seconds[unit] * self.scale[unit]

    def ops(self, traced: bool) -> list[int]:
        return [u for u in self.seconds if isinstance(u, int) and (u in self.traced) == traced]

    def setups(self) -> list[str]:
        return [u for u in self.seconds if isinstance(u, str)]


def _setup(rec: Recorder, wl: Workload, fixtures: dict) -> tuple[dict[str, str], list[tuple[Any, Compiled]]]:
    """Read the shipped kernels and compile each of the workload's fixtures
    under the check profile (a check workload runs these programs)."""
    texts = {name: kernel_text(name) for name in wl.fixtures}
    prepared = []
    for name in wl.fixtures:
        problems: list[tuple[str, str]] = []
        comp = compile_op(rec, name, texts[name], CHECK_PROFILE, None, {}, problems)
        if problems:
            raise RuntimeError(f"set-up compile of {name}: {problems}")
        prepared.append((fixtures[name], comp))
    return texts, prepared


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """Set up, then run operations back to back (one closed-loop client)
    until ``seconds`` have passed.  With ``trace``, every other operation
    is traced, so tracing overhead is measured within the same run."""
    wl = WORKLOADS[name]
    res = Result()
    probes = Probes()
    rec = Recorder(probes)
    fixtures = suite()
    # (unit, index of the last probe before it, index of the last probe inside it)
    unscaled: list[tuple[Any, int, int]] = []

    def measure(unit: Any, first: int, t0: float, spent0: float) -> None:
        res.seconds[unit] = time.perf_counter() - t0 - (probes.spent - spent0)
        unscaled.append((unit, first, len(probes.times) - 1))

    def setup() -> tuple[dict[str, str], list[tuple[Any, Compiled]]]:
        rec.tracing, rec.op = trace, f"setup{len(res.setups())}"
        first, spent0, t0 = len(probes.times) - 1, probes.spent, time.perf_counter()
        with rec.span("setup"):
            out = _setup(rec, wl, fixtures)
        measure(rec.op, first, t0, spent0)
        probes.take()
        return out

    texts, prepared = setup()

    if wl.op == "check":
        for fx, comp in prepared:
            res.programs[f"{fx.name}/{CHECK_PROFILE}/None"] = comp.facts
            contexts = comp.stages["visa"].num_warps * int(np.prod(fx.grid))
            res.dyn_ops["intrinsic"] += ir_op_count(comp.stages["intrinsic"]) * contexts
            res.dyn_ops["visa"] += visa_op_count(comp.stages["visa"]) * contexts
            res.static_bytes_loaded += comp.facts["static_bytes_loaded"] * contexts
    configs = [(f, p, h) for f in wl.fixtures for p in PROFILE_TEXT for h in HINTS]
    rng = np.random.Generator(np.random.PCG64(seed))

    t_start = time.perf_counter()
    while True:
        if wl.op == "check":
            batch: list[Any] = [int(rng.integers(0, 2**31))]
        else:  # one whole cycle, so every run sees every config the same number of times
            batch = [configs[i] for i in rng.permutation(len(configs))]
        for item in batch:
            rec.tracing, rec.op = trace and res.attempted % 2 == 0, res.attempted
            problems: list[tuple[str, str]] = []
            known = False  # one of KNOWN_COMPILE_FAILURES, failing as it does today
            first, spent0, t0 = len(probes.times) - 1, probes.spent, time.perf_counter()
            try:
                with rec.span("op"):
                    if wl.op == "check":
                        counts = check_op(rec, prepared, item, res.digests, problems)
                    else:
                        f, p, h = item
                        comp = compile_op(rec, f, texts[f], p, h, res.digests, problems)
            except LayerFailure as e:
                label = "/".join(map(str, item)) if wl.op == "compile" else f"seed {item}"
                problems.append((e.layer, f"{label}: {e}"))
                known = (wl.op == "compile" and item in KNOWN_COMPILE_FAILURES
                         and isinstance(e.error, PassError) and len(problems) == 1)
            else:
                if wl.op == "compile":
                    res.programs.setdefault("/".join(map(str, item)), comp.facts)
                elif rec.tracing:
                    res.sim_counts.append(counts)
            measure(rec.op, first, t0, spent0)
            if rec.tracing:
                res.traced.add(rec.op)
            res.attempted += 1
            if problems:
                res.failed += 1
                res.incorrect += not known
                for layer in {layer for layer, _ in problems}:
                    res.layer_failures[layer] += 1
                if len(res.errors) < 20:
                    res.errors.extend(reason for _, reason in problems[: 20 - len(res.errors)])
            if probes.due():
                probes.take()
            if sum(res.seconds[u] for u in res.setups()) < SETUP_SHARE * (time.perf_counter() - t_start):
                setup()  # the programs are the same; the first set-up's are kept
        if time.perf_counter() - t_start >= seconds:
            break
    probes.take()  # every unit now has a probe after it
    for unit, first, inside in unscaled:
        res.scale[unit] = probes.scale(first, inside + 1)
    res.probe_s = probes.times
    res.spans = rec.spans
    res.text_bytes = rec.bytes
    return res


def code_size(res: Result) -> int:
    """Static vISA instructions over the distinct programs the workload
    runs (check) or compiles in one cycle (compile)."""
    return sum(p["instrs"] for p in res.programs.values())
