"""Simulated timing pinned across commits.

Re-simulates the seed-42 cells that ``perfbench/expected.json`` records
for the ``fgstp`` and ``baseline`` workloads (all four machines on
gcc / mcf / milc, ``medium`` config, at the benchmark's recorded
sizing) and compares cycles, instructions, the CPI-stack slot vector
and the sha256 of the commit stream exactly.

Every other bit-identity test compares two modes of the same code
(traced against bare, skip-ahead against naive, restored against
straight-through); this one compares the code against numbers recorded
by an earlier commit, so a refactor that shifts every mode's timing
equally fails here.  Run it under ``REPRO_SKIP_AHEAD=0`` to pin the
naive per-cycle path as well.

The recording, its sizing and the digest are the benchmark's own
(``perfbench/bench.py``), read here and never modified.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import bench  # noqa: E402

from repro.fgstp.params import FgStpParams  # noqa: E402
from repro.harness.runners import build_machine  # noqa: E402
from repro.uarch.params import core_config  # noqa: E402
from repro.workloads.generator import generate_trace  # noqa: E402

SEED = 42
WORKLOADS = ("fgstp", "baseline")
CELLS = [(workload, machine, benchmark)
         for workload in WORKLOADS
         for machine in bench.WORKLOADS[workload]["machines"]
         for benchmark in bench.WORKLOADS[workload]["benchmarks"]]


@pytest.fixture(scope="module")
def expected():
    table = bench.load_expected()
    return {workload: bench.expected_cells(table, workload, [SEED])
            for workload in WORKLOADS}


@pytest.fixture(scope="module")
def traces():
    cache = {}

    def get(workload, program):
        length = bench.WORKLOADS[workload]["length"]
        key = (program, length)
        if key not in cache:
            cache[key] = generate_trace(program, length, SEED)
        return cache[key]

    return get


def test_pins_every_machine_and_benchmark():
    assert {machine for _, machine, _ in CELLS} == {
        "single", "corefusion", "fgstp", "fgstp-adaptive"}
    assert len(CELLS) == 12


# ``program``, not ``benchmark``: pytest-benchmark owns that fixture name.
@pytest.mark.parametrize("workload,machine,program", CELLS,
                         ids=[f"{m}-{b}" for _, m, b in CELLS])
def test_cell_matches_recorded_outputs(expected, traces, workload, machine,
                                       program):
    spec = bench.WORKLOADS[workload]
    digest = bench.CommitDigest()
    model = build_machine(machine, core_config(bench.CONFIG), FgStpParams(),
                          commit_hook=digest)
    result = model.run(traces(workload, program), workload=program,
                       warmup=spec["warmup"])
    got = bench.cell_output(result, digest.hexdigest())
    want = expected[workload][bench.label(machine, program, SEED)]
    assert got == want
