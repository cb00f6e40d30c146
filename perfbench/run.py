"""tilec benchmark: one closed-loop client running one named workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tilec checkout; tilec is imported from its
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with spans
and RunTrace off; with ``--trace 1`` they are the per-layer ones, from a
run that traces every other operation.  Times are scaled to a reference
host speed (see workloads.PROBE_S).  Lines before it repeat each
metric with its unit and record the environment.  A fuller record (the
environment, output digests, failures, spans) goes to ``.perfbench/`` in
the checkout.  See README.md in this directory for the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, mode, quantiles

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# Threaded BLAS makes numpy-heavy launches swing by an order of magnitude
# on a small machine; these must be set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """Pin BLAS/OpenMP to one thread and put the checkout's tilec first on
    the import path; exits when the checkout holds no tilec sources."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "tilec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tilec sources at {src}; run from a tilec checkout")
    sys.path.insert(0, str(src))


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


# --------------------------------------------------------------------------
# metrics


def p90(samples: list[float]) -> float | None:
    """The 90th percentile, when at least ten samples lie beyond it."""
    return quantiles(samples, n=10)[8] if len(samples) >= 100 else None


def end_to_end(res) -> dict[str, tuple[float, str]]:
    """End-to-end metrics from the untraced operations; times are in
    scaled seconds (see workloads.PROBE_S)."""
    from workloads import code_size

    ref = [res.ref_seconds(op) for op in res.ops(traced=False)]
    return {
        "setup_s": (median(res.ref_seconds(u) for u in res.setups()), "s"),
        "op_s_p50": (median(ref), "s"),
        "ops_per_s": (len(ref) / sum(ref), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "code_size_instrs": (code_size(res), "count"),
    }


def run_facts(res) -> dict[str, tuple[float, str]]:
    """Printed and recorded beside either metric set: failures, sample
    counts, raw seconds, and p90 where the run has one."""
    ops = res.ops(traced=False)
    facts = {
        "fail_frac": (res.failed / res.attempted, "frac"),
        "op_samples": (len(ops), "count"),
        "probe_s_p50": (median(res.probe_s), "s"),
        "raw_setup_s": (median(res.seconds[u] for u in res.setups()), "s"),
    }
    if ops:  # a short traced run may trace its only operation
        raw = [res.seconds[op] for op in ops]
        facts["raw_op_s_p50"] = (median(raw), "s")
        facts["raw_ops_per_s"] = (len(raw) / sum(raw), "1/s")
    tail = p90([res.ref_seconds(op) for op in ops])
    if tail is not None:
        facts["op_s_p90"] = (tail, "s")
    return facts


def per_layer(res) -> dict[str, tuple[float, str]]:
    """Layer metrics from the spans of the traced operations, in scaled
    milliseconds.

    ``<span>.ms_p50`` is the median over operations of the self time an
    operation spent in that call (its duration minus its child spans);
    ``oracle.check`` is the whole comparison block instead.  A layer that
    runs only during set-up (textio, ir, passes and visa on a check
    workload) is taken over the set-up repetitions.  Calls a workload
    never makes read 0.
    """
    from workloads import LEVELS

    spans = res.spans
    durations = [end - start for _name, start, end, _parent, _op in spans]
    for name, start, end, parent, _op in spans:  # probes are not part of the work around them
        while name == "bench.probe" and parent >= 0:
            durations[parent] -= end - start
            parent = spans[parent][3]
    durations = [d * res.scale[span[4]] for d, span in zip(durations, spans)]
    own = list(durations)
    for i, (name, _start, _end, parent, _op) in enumerate(spans):
        if parent >= 0 and name != "bench.probe":
            own[parent] -= durations[i]
    inclusive: dict = defaultdict(lambda: defaultdict(float))
    self_time: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, _start, _end, _parent, op) in enumerate(spans):
        inclusive[op][name] += durations[i]
        self_time[op][name] += own[i]
    ops = [op for op in inclusive if isinstance(op, int)]
    setups = [op for op in inclusive if isinstance(op, str)]

    def ms_p50(name: str, per_op: dict = self_time) -> float:
        vals = [per_op[o][name] for o in ops if name in per_op[o]]
        vals = vals or [per_op[o][name] for o in setups if name in per_op[o]]
        return 1000 * median(vals) if vals else 0.0

    def total(name: str) -> float:
        return sum(self_time[o].get(name, 0.0) for o in self_time)

    m: dict[str, tuple[float, str]] = {}
    op_time = sum(inclusive[o].get("op", 0.0) for o in ops)
    for level in LEVELS:
        span = f"sim.run.{level}"
        m[f"{span}.ms_p50"] = (ms_p50(span), "ms")
        m[f"{span}.share"] = (sum(self_time[o].get(span, 0.0) for o in ops) / op_time if op_time else 0.0, "frac")
    for level in ("intrinsic", "visa"):
        n = res.dyn_ops[level]
        m[f"sim.run.{level}.us_per_op"] = (1000 * ms_p50(f"sim.run.{level}") / n if n else 0.0, "us")

    # identical on every check; the mode keeps them integers
    counts = {k: mode(c[k] for c in res.sim_counts) if res.sim_counts else 0 for k in
              ("loads", "stores", "cross_reduces", "global_bytes_loaded", "global_bytes_stored", "slm_bytes",
               "visa_bytes_loaded")}
    for k in ("loads", "stores", "cross_reduces"):
        m[f"sim.{k}"] = (counts[k], "count")
    for k in ("global_bytes_loaded", "global_bytes_stored", "slm_bytes"):
        m[f"sim.{k}"] = (counts[k], "B")
    static = res.static_bytes_loaded
    dynamic = counts["visa_bytes_loaded"]
    m["sim.bytes_loaded_vs_static"] = (dynamic / static if static and res.sim_counts else 0.0, "frac")
    m["sim.static_minus_dynamic_bytes"] = (static - dynamic if res.sim_counts else 0, "B")

    m["kernels.make_problem.ms_p50"] = (ms_p50("kernels.make_problem"), "ms")
    m["oracle.check.ms_p50"] = (ms_p50("oracle.check", inclusive), "ms")
    for fn in ("parse_module", "print_module"):
        span = f"textio.{fn}"
        t = total(span)
        m[f"{span}.ms_p50"] = (ms_p50(span), "ms")
        m[f"{span}.kb_per_s"] = (res.text_bytes[span] / 1024 / t if t else 0.0, "KB/s")
    for span in ("ir.verify_or_raise", "passes.assign_layouts", "passes.distribute_to_warps",
                 "passes.match_target_size", "visa.lower"):
        m[f"{span}.ms_p50"] = (ms_p50(span), "ms")

    programs = list(res.programs.values())
    dist = sum(p["distribute_ops_out"] for p in programs)
    match = sum(p["match_ops_out"] for p in programs)
    m["passes.distribute_to_warps.ops_out"] = (dist, "count")
    m["passes.match_target_size.ops_out"] = (match, "count")
    m["passes.match_target_size.growth"] = (match / dist if dist else 0.0, "ratio")
    m["visa.lower.instrs_out"] = (sum(p["instrs"] for p in programs), "count")

    for layer in ("textio", "ir", "passes", "visa", "sim", "kernels", "oracle"):
        m[f"{layer}.failures"] = (res.layer_failures[layer], "count")
    m["fail_frac"] = (res.failed / res.attempted, "frac")
    untraced = [res.ref_seconds(op) for op in res.ops(traced=False)]
    traced = [res.ref_seconds(op) for op in res.ops(traced=True)]
    m["bench.trace_overhead_frac"] = (median(traced) / median(untraced) - 1 if untraced and traced else 0.0, "frac")
    return m


# --------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_environment()
    import workloads  # imports numpy, so only after the thread variables are pinned

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    res = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = per_layer(res) if args.trace else end_to_end(res)
    env = environment()

    print(f"# workload={args.workload} op={workloads.WORKLOADS[args.workload].op} seed={args.seed} "
          f"trace={args.trace} attempted={res.attempted} failed={res.failed}")
    print("# env " + json.dumps(env, sort_keys=True))
    extra = run_facts(res)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value:.6g} {unit}")
    for err in res.errors:
        print(f"# failed: {err}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "run_seconds": args.seconds, "trace": args.trace,
        "env": env, "attempted": res.attempted, "failed": res.failed, "incorrect": res.incorrect,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "seconds": {str(u): t for u, t in res.seconds.items()},
        "scale": {str(u): f for u, f in res.scale.items()},
        "traced": sorted(res.traced), "probe_s": res.probe_s,
        "errors": res.errors, "digests": res.digests, "programs": res.programs,
        "sim_counts": [dict(c) for c in res.sim_counts],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        spans = {"fields": ["name", "start", "end", "parent", "op"], "spans": res.spans}
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    print(json.dumps({
        "correct": res.incorrect == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
