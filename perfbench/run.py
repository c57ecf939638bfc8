"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fgstp --seed 0 --seconds 26 --trace 0

``--trace 0`` times untraced passes and prints the end-to-end metrics
named in ``BENCHMARK.json``; ``--trace 1`` spends half the time on
untraced passes and half on traced rounds, and prints the per-layer
metrics instead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 when every checked output matched; 1 when any simulated
output differed from ``expected.json``, a cell's run raised or a sweep
job failed (the result is still printed); 2 when the benchmark refuses
to measure or cannot run at all (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Directory the benchmark may write to (the sweep's disk cache and the
#: worker span files); removed when the run ends.
WORK_DIR = ROOT / ".perfbench_work"


def _load_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open() as stream:
        return json.load(stream)


def _units(spec: dict, trace: bool) -> dict:
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for entry in (str(HERE), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    info = bench.provenance(ROOT)
    print("perfbench provenance " + json.dumps(info, sort_keys=True))
    reason = bench.refusal(info["knobs"])
    if reason:
        print(f"perfbench: refusing to measure: {reason}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    units = _units(_load_spec(), trace)
    try:
        runner = bench.Runner(ROOT, args.workload, args.seed,
                              bench.load_expected(), WORK_DIR)
    except ValueError as exc:
        print(f"perfbench: refusing to measure: {exc}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    try:
        measured = runner.measure(args.seconds, trace)
    except Exception:  # noqa: BLE001 - report, then exit as "cannot run"
        traceback.print_exc()
        print("perfbench: could not run the workload", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    values = measured.per_layer if trace else measured.end_to_end
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace_seeds={runner.tseeds} passes={measured.passes} "
          f"trace={args.trace}")
    for name in units:
        print(f"  {name:55s} {values[name]:14.6g} {units[name]}")
    for (parent, child), calls in sorted(measured.span_edges.items()):
        print(f"  span {parent or '(root)'} -> {child}: {calls:g} per round")
    print(f"  host speed {runner.clock.speed():.4g} x reference; "
          f"uncalibrated sim_kcps {measured.raw_kcps:.6g}")
    failed_frac = measured.failed / measured.attempted
    print(f"  failed_frac {failed_frac:.6g} ({measured.failed} of "
          f"{measured.attempted} cell runs differ from expected.json)")
    for failure in sorted(set(measured.failures)):
        print(f"  MISMATCH {failure}")
    correct = measured.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
