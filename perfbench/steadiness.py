"""Run each workload several times and report how steady its metrics are.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --first-seed 0

Every workload in ``BENCHMARK.json`` runs :data:`RUNS` times for its
``run_seconds``, each run with the next ``--seed`` from ``--first-seed``
on.  For every end-to-end metric the report gives the median, the first
and third quartiles as ``statistics.quantiles(values, n=4)`` computes
them, and the spread: the distance between the quartiles as a share of
the median.  Every
bound in ``BENCHMARK.json`` must stay above that spread, apart from
``setup_s``'s, which bounds the drift of the median instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Runs per workload.
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for n in range(RUNS):
            results.append(run_once(workload, args.first_seed + n,
                                    spec["run_seconds"]))
            print(json.dumps({"workload": workload,
                              "seed": args.first_seed + n,
                              **{name: entry["value"] for name, entry
                                 in results[-1]["metrics"].items()}}),
                  file=sys.stderr, flush=True)
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in results])
            print(f"| {workload} | {name} | {stats['median']:.6g} "
                  f"| {stats['q1']:.6g} | {stats['q3']:.6g} "
                  f"| {stats['spread']:.4f} | {bound} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
