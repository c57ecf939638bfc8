"""Tests of the benchmark itself, on shortened workloads.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


SHORT = {name: dict(spec, length=1200, warmup=400, seeds=2,
                   benchmarks=spec["benchmarks"][:2])
         for name, spec in bench.WORKLOADS.items()}


def _shorten(patch) -> None:
    for name, spec in SHORT.items():
        patch.setitem(bench.WORKLOADS, name, spec)
    patch.setattr(bench, "SETUP_REPS", 1)
    patch.setattr(bench, "IMPORT_REPS", 1)


@pytest.fixture(scope="module")
def recorded():
    """Outputs of the shortened workloads at ``--seed 0``."""
    with pytest.MonkeyPatch.context() as patch:
        _shorten(patch)
        seeds = sorted({tseed for name in bench.WORKLOADS
                        for tseed in bench.trace_seeds(name, 0)})
        return record.record(list(bench.WORKLOADS), seeds,
                             "shortened workloads for tests",
                             log=lambda _: None)


def _first_seed_cells(table: dict, workload: str) -> dict:
    return table["workloads"][workload][
        str(bench.trace_seeds(workload, 0)[0])]


@pytest.fixture
def short_table(recorded, monkeypatch):
    """Shortened workloads for one test, and their recorded outputs."""
    _shorten(monkeypatch)
    return recorded


def _run(monkeypatch, capsys, tmp_path, table, workload, trace):
    monkeypatch.setattr(bench, "load_expected",
                        lambda path=None: copy.deepcopy(table))
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    code = run.main(["--workload", workload, "--seed", "0",
                     "--seconds", "0.2", "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(
        short_table, monkeypatch, capsys, tmp_path, workload, trace):
    code, result = _run(monkeypatch, capsys, tmp_path, short_table,
                        workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in wanted)


@pytest.mark.parametrize("workload", ["baseline", "sweep"])
def test_wrong_recorded_value_counts_as_failure(
        short_table, monkeypatch, capsys, tmp_path, workload):
    table = copy.deepcopy(short_table)
    cells = _first_seed_cells(table, workload)
    cell = sorted(cells)[0]
    cells[cell]["cycles"] += 1
    code, result = _run(monkeypatch, capsys, tmp_path, table, workload, 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(
        1 - result["failed"] / result["attempted"])
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_crashing_cell_counts_as_failure(
        short_table, monkeypatch, capsys, tmp_path):
    real_build = bench.build_machine

    def build(machine, *args, **kwargs):
        model = real_build(machine, *args, **kwargs)
        if machine == "corefusion":
            def crash(*_, **__):
                raise RuntimeError("injected")
            model.run = crash
        return model

    monkeypatch.setattr(bench, "build_machine", build)
    code, result = _run(monkeypatch, capsys, tmp_path, short_table,
                        "baseline", 0)
    assert code == 1
    assert result["correct"] is False
    # Half the cells are corefusion ones, and every one of them failed.
    assert result["failed"] * 2 == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(0.5)


def test_wrong_commit_digest_fails_the_traced_run(
        short_table, monkeypatch, capsys, tmp_path):
    table = copy.deepcopy(short_table)
    cells = _first_seed_cells(table, "fgstp")
    cells["fgstp/gcc"]["commits_sha256"] = "0" * 64
    assert _run(monkeypatch, capsys, tmp_path, table, "fgstp", 0)[0] == 0
    code, result = _run(monkeypatch, capsys, tmp_path, table, "fgstp", 1)
    assert code == 1 and result["failed"] >= 1


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_self_times_sum_to_the_traced_total(
        short_table, monkeypatch, capsys, tmp_path, workload):
    code, result = _run(monkeypatch, capsys, tmp_path, short_table,
                        workload, 1)
    assert code == 0
    metrics = result["metrics"]
    self_total = sum(entry["value"] for name, entry in metrics.items()
                     if name.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["trace.root_s"]["value"],
                                       rel=1e-9)
    assert metrics["perfbench.pass.calls"]["value"] >= 1


def test_layers_not_on_a_workload_read_zero(
        short_table, monkeypatch, capsys, tmp_path):
    _, result = _run(monkeypatch, capsys, tmp_path, short_table,
                     "baseline", 1)
    metrics = result["metrics"]
    assert metrics["fgstp.partitioner.Partitioner.partition.calls"][
        "value"] == 0
    assert metrics["uarch.pipeline.SingleCoreMachine.run.calls"][
        "value"] > 0


@pytest.mark.parametrize("knob, value", [("REPRO_CHAOS", "stuck_queue"),
                                         ("REPRO_CHECKPOINT_INTERVAL", "500")])
def test_refuses_to_measure_a_changed_program(
        monkeypatch, capsys, tmp_path, knob, value):
    monkeypatch.setenv(knob, value)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    code = run.main(["--workload", "baseline", "--seconds", "0.2"])
    out = capsys.readouterr().out
    assert code == 2
    assert '"correct"' not in out


def test_refuses_outputs_recorded_at_another_sizing(
        short_table, monkeypatch, capsys, tmp_path):
    table = copy.deepcopy(short_table)
    table["sizing"]["baseline"]["length"] += 1
    monkeypatch.setattr(bench, "load_expected", lambda path=None: table)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    code = run.main(["--workload", "baseline", "--seconds", "0.2"])
    assert code == 2
    assert '"correct"' not in capsys.readouterr().out


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fgstp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_pinned_sizing_repeats_the_bench_snapshot(monkeypatch):
    """At ``repro bench``'s sizing and seed, the benchmark's cells give
    the cycle counts of the committed snapshot."""
    snapshot = ROOT / "BENCH_20260808.json"
    if not snapshot.exists():
        pytest.skip("no repro bench snapshot in this checkout")
    entries = json.loads(snapshot.read_text())["entries"]
    for workload in ("fgstp", "baseline"):
        monkeypatch.setitem(bench.WORKLOADS, workload, dict(
            bench.WORKLOADS[workload], length=30_000, warmup=10_000))
        traces, _ = bench.sim_setup(workload, [42])
        _, outputs = bench.sim_pass(workload, [42], traces)
        assert {cell: out["cycles"] for cell, out in outputs.items()} == {
            bench.label(e["machine"], e["benchmark"], 42): e["cycles"]
            for e in entries
            if e["machine"] in bench.WORKLOADS[workload]["machines"]}


def test_every_seed_selects_recorded_seeds():
    table = bench.load_expected()
    for workload, spec in bench.WORKLOADS.items():
        for seed in range(-3, 50):
            tseeds = bench.trace_seeds(workload, seed)
            assert len(set(tseeds)) == spec["seeds"]
            assert tseeds == bench.trace_seeds(workload, seed)
            cells = bench.expected_cells(table, workload, tseeds)
            assert len(cells) == spec["seeds"] * len(
                spec["machines"]) * len(spec["benchmarks"])
