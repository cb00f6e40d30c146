"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [WORKLOAD ...]

Runs every named workload (all of BENCHMARK.json's by default) once per
seed 1..10 for run_seconds, in two sets, one run at a time.  For each
metric it prints each set's median and the distance between the first
and third quartiles as a share of the median
(``statistics.quantiles(n=4)``), next to the metric's bound, and how
much worse the second median is than the first.  It also requires the
output digests, failure fractions and static code sizes of equal seeds
to be identical in both sets.  Exits 1 when a spread or a drift exceeds
its bound, a repeat differs or a run is not correct.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / f"{workload}-seed{seed}-trace0.json").read_text())
    return result, record


def iqr_share(values: list[float]) -> float:
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()

    ok = True
    for workload in args.workloads:
        sets = []
        for _ in range(SETS):
            sets.append([one_run(workload, seed, spec["run_seconds"]) for seed in range(1, RUNS + 1)])
        first = [r for r, _ in sets[0]]
        print(f"{workload}: attempted {[r['attempted'] for r in first]} failed {[r['failed'] for r in first]}")
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            line = f"  {name:18s} bound {bound:.2f}"
            meds = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r, _ in runs]
                meds.append(median(values))
                spread = iqr_share(values)
                ok &= spread <= bound
                line += f" | median {meds[-1]:.5g} spread {spread:.4f}"
            worse = (meds[1] / meds[0] - 1) if lower else (1 - meds[1] / meds[0])
            ok &= worse <= bound
            print(f"{line} | 2nd worse by {worse:+.4f}")
        for (ra, a), (rb, b) in zip(*sets):
            same = (ra["failed"] / ra["attempted"] == rb["failed"] / rb["attempted"]
                    and a["programs"] == b["programs"]
                    and all(b["digests"].get(k, v) == v for k, v in a["digests"].items()))
            if not same:
                ok = False
                print(f"  seed {a['seed']}: failures, code sizes or output digests differ between sets")
        print(f"  all {'correct' if all(r['correct'] for runs in sets for r, _ in runs) else 'NOT correct'}")
        ok &= all(r["correct"] for runs in sets for r, _ in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
