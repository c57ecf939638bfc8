"""Re-record the simulated outputs the benchmark checks (``expected.json``).

Usage (from the repository root)::

    python3 perfbench/record.py --reason "why the simulated results moved"

Only a deliberate model change should need this: a change that claims
to be a pure speed-up must leave every recorded value equal.  The
reason is stored in the file, and belongs in ``CHANGES.md`` as well.

For every workload and every trace seed the benchmark can select, each
cell is simulated once, serially, with a commit-stream digest attached
(bit-identical to an unobserved run).  Sweep cells are simulated with
``max_workers=1`` and no cache, which the engine guarantees to be
bit-identical to its pooled runs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
from repro.harness import parallel  # noqa: E402


def record_workload(workload: str, tseed: int) -> dict:
    """Outputs of every cell of *workload* at trace seed *tseed*, keyed
    by ``machine/benchmark``."""
    if workload == "sweep":
        outcome = parallel.ExperimentEngine(max_workers=1).run(
            bench.sweep_jobs([tseed]))
        outputs, failed = bench.sweep_outputs(outcome)
        if failed:
            raise SystemExit(f"sweep jobs failed at seed {tseed}: "
                             f"{outcome.failures}")
    else:
        traces, _ = bench.sim_setup(workload, [tseed])
        _, outputs = bench.sim_pass(workload, [tseed], traces, digest=True)
        crashed = {cell: out["error"] for cell, out in outputs.items()
                   if "error" in out}
        if crashed:
            raise SystemExit(f"cells raised at seed {tseed}: {crashed}")
    suffix = f"/s{tseed}"
    return {cell[:-len(suffix)]: out for cell, out in outputs.items()}


def record(workloads, seeds, reason: str, log=print) -> dict:
    """The ``expected.json`` document for *workloads* x *seeds*."""
    table = {"reason": reason,
             "provenance": bench.provenance(ROOT),
             "sizing": {w: bench.recorded_sizing(w) for w in workloads},
             "workloads": {}}
    for workload in workloads:
        cells = table["workloads"][workload] = {}
        for tseed in seeds:
            start = time.perf_counter()
            cells[str(tseed)] = record_workload(workload, tseed)
            log(f"recorded {workload} trace seed {tseed} "
                f"({time.perf_counter() - start:.1f}s)")
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reason", required=True,
                        help="why the recorded outputs change")
    args = parser.parse_args(argv)
    if not args.reason.strip():
        parser.error("--reason must not be empty")
    table = record(list(bench.WORKLOADS), bench.SEED_POOL,
                   args.reason.strip())
    text = json.dumps(table, indent=1, sort_keys=True)
    # One line per slot vector keeps the file short and diffs readable.
    text = re.sub(r"\[\s+([\d,\s]+?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    bench.EXPECTED_PATH.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
