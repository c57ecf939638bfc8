"""Tests for the parallel experiment engine.

Covers the acceptance bar of the engine: parallel and serial execution
of the same matrix are bit-identical, poisoned jobs (exceptions and
timeouts) are retried then skipped without sinking the sweep, a dead
pool degrades to serial execution, and the disk caches round-trip.

The injected-failure job functions live at module level so worker
processes can unpickle them; several rely on the ``fork`` start method
(the default on Linux) to tell parent from worker.
"""

import multiprocessing
import os
import sys
import time

import pytest

from repro.harness import parallel
from repro.harness.config import ExperimentConfig
from repro.harness.parallel import (ExperimentEngine, SweepError, SweepJob,
                                    _grouped_by_trace, execute_job, make_job,
                                    matrix_jobs, run_jobs)
from repro.stats.result import SimResult
from repro.uarch.params import core_config
from repro.workloads.suite import DISK_CACHE_MEMORY_TRACES

#: Small-but-real sizing: big enough to exercise every machine stage.
LENGTH, WARMUP = 3000, 1000

_MAIN_PID = os.getpid()
_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"


def small_matrix(benchmarks=("gcc", "mcf"), seeds=(1, 2),
                 machines=("single", "fgstp")):
    return matrix_jobs(benchmarks=list(benchmarks), seeds=list(seeds),
                       machines=list(machines), configs=("medium",),
                       trace_length=LENGTH, warmup=WARMUP)


def poison_job(benchmark="BOOM"):
    """A job whose benchmark name triggers the injected job functions."""
    return SweepJob(machine="single", benchmark=benchmark,
                    base=core_config("medium"),
                    config=ExperimentConfig(trace_length=LENGTH,
                                            warmup=WARMUP))


# -- injected job functions (module level: picklable) -------------------

def _raising_fn(job):
    if job.benchmark == "BOOM":
        raise RuntimeError("injected failure")
    return execute_job(job)


def _sleepy_fn(job):
    if job.benchmark == "SLEEP":
        time.sleep(3.0)
        raise RuntimeError("slept past the timeout")
    return execute_job(job)


def _crashing_fn(job):
    """Kills the worker process outright (parent survives)."""
    if os.getpid() != _MAIN_PID:
        os._exit(3)
    return execute_job(job)


def _trace_loads_fn(job):
    """Reads the job's trace through this process's trace cache and
    reports how many traces that cache has loaded from disk or generated
    so far, instead of simulating."""
    cache = parallel._PROCESS_CACHE
    cache.get(job.benchmark, job.config.trace_length, job.config.seed)
    return SimResult(machine=job.machine, config=job.base.name,
                     workload=job.benchmark, cycles=1, instructions=1,
                     extra={"pid": os.getpid(),
                            "loads": cache.disk_hits + cache.disk_misses})


# -- determinism / equivalence ------------------------------------------

def test_parallel_matches_serial_bit_identical(tmp_path):
    jobs = small_matrix()
    serial = ExperimentEngine(max_workers=1).run(jobs)
    parallel = ExperimentEngine(max_workers=2,
                                cache_dir=tmp_path / "cache").run(jobs)
    assert serial.ok and parallel.ok
    assert serial.metrics.mode == "serial"
    assert parallel.metrics.mode == "parallel"
    for job, left, right in zip(jobs, serial.results, parallel.results):
        assert left.cycles == right.cycles, job.name
        assert left.instructions == right.instructions, job.name
        assert left.ipc == right.ipc, job.name


def test_serial_cache_dir_matches_memory_cache(tmp_path):
    """Disk-cached traces must not perturb results (serialisation guard)."""
    jobs = small_matrix(benchmarks=("gcc",), seeds=(1,))
    plain = ExperimentEngine(max_workers=1).run(jobs)
    disk = ExperimentEngine(max_workers=1,
                            cache_dir=tmp_path / "cache").run(jobs)
    disk_again = ExperimentEngine(max_workers=1,
                                  cache_dir=tmp_path / "cache").run(jobs)
    cycles = [result.cycles for result in plain.results]
    assert [result.cycles for result in disk.results] == cycles
    assert [result.cycles for result in disk_again.results] == cycles
    assert disk_again.metrics.result_cache_hits == len(jobs)


def test_result_cache_hits_skip_execution(tmp_path):
    jobs = small_matrix(benchmarks=("gcc",), seeds=(1, 2))
    engine = ExperimentEngine(max_workers=1, cache_dir=tmp_path / "cache")
    first = engine.run(jobs)
    assert first.metrics.result_cache_hits == 0
    assert first.metrics.traces_generated == 2
    second = engine.run(jobs)
    assert second.metrics.result_cache_hits == len(jobs)
    assert second.metrics.jobs_done == 0
    for left, right in zip(first.results, second.results):
        assert left.cycles == right.cycles
        assert left.extra == right.extra


# -- trace locality -----------------------------------------------------

def test_matrix_order_is_already_grouped_by_trace():
    jobs = matrix_jobs(benchmarks=["gcc", "mcf"], seeds=[1, 2],
                       machines=["single", "fgstp"],
                       configs=("medium",), trace_length=LENGTH,
                       warmup=WARMUP)
    assert _grouped_by_trace(jobs, range(len(jobs))) == \
        list(range(len(jobs)))


@pytest.mark.parametrize("workers", [1, 2])
def test_each_worker_loads_each_trace_once(workers, tmp_path):
    # Benchmarks innermost, as in run_suites and the E4/E5/E9 sweeps, over
    # more traces than a DiskTraceCache keeps in memory.
    names = ("gcc", "mcf", "milc")
    assert len(names) > DISK_CACHE_MEMORY_TRACES
    config = ExperimentConfig(trace_length=300, warmup=100)
    jobs = [make_job(machine, name, core_config("medium"), config)
            for machine in ("single", "fgstp", "corefusion")
            for name in names]
    outcome = ExperimentEngine(max_workers=workers,
                               cache_dir=tmp_path / "cache",
                               result_cache=False).run(
        jobs, job_fn=_trace_loads_fn)
    assert outcome.ok
    touched, loads = {}, {}
    for job, result in zip(jobs, outcome.results):
        pid = result.extra["pid"]
        touched.setdefault(pid, set()).add(job.benchmark)
        loads[pid] = max(loads.get(pid, 0), result.extra["loads"])
    assert loads == {pid: len(seen) for pid, seen in touched.items()}


# -- robustness ---------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_poisoned_job_is_retried_then_skipped(workers, tmp_path):
    jobs = small_matrix(benchmarks=("gcc",), seeds=(1,)) + [poison_job()]
    engine = ExperimentEngine(max_workers=workers, retries=2,
                              backoff=0.01,
                              cache_dir=tmp_path / "cache")
    outcome = engine.run(jobs, job_fn=_raising_fn)
    assert len(outcome.failures) == 1
    failure = outcome.failures[0]
    assert failure.kind == "error"
    assert failure.attempts == 3  # 1 + 2 retries
    assert "injected failure" in failure.error
    assert outcome.metrics.retries == 2
    assert outcome.metrics.jobs_failed == 1
    # The healthy jobs still completed.
    healthy = [result for job, result in zip(jobs, outcome.results)
               if job.benchmark != "BOOM"]
    assert all(result is not None for result in healthy)
    assert outcome.results[-1] is None


def test_timeout_job_is_retried_then_skipped_parallel():
    jobs = small_matrix(benchmarks=("gcc",), seeds=(1,)) \
        + [poison_job("SLEEP")]
    engine = ExperimentEngine(max_workers=2, timeout=0.4, retries=1,
                              backoff=0.01)
    started = time.monotonic()
    outcome = engine.run(jobs, job_fn=_sleepy_fn)
    elapsed = time.monotonic() - started
    assert len(outcome.failures) == 1
    assert outcome.failures[0].kind == "timeout"
    assert outcome.failures[0].attempts == 2
    healthy = [result for job, result in zip(jobs, outcome.results)
               if job.benchmark != "SLEEP"]
    assert all(result is not None for result in healthy)
    # Two 0.4s attempts must not degenerate into two full 3s sleeps.
    assert elapsed < 3.0


@pytest.mark.skipif(not hasattr(__import__("signal"), "setitimer"),
                    reason="serial timeouts need POSIX setitimer")
def test_timeout_job_is_retried_then_skipped_serial():
    jobs = [poison_job("SLEEP")] + small_matrix(benchmarks=("gcc",),
                                                seeds=(1,))
    engine = ExperimentEngine(max_workers=1, timeout=0.2, retries=1,
                              backoff=0.01)
    outcome = engine.run(jobs, job_fn=_sleepy_fn)
    assert len(outcome.failures) == 1
    assert outcome.failures[0].kind == "timeout"
    assert outcome.results[0] is None
    assert all(result is not None for result in outcome.results[1:])


def test_transient_failure_recovers_after_retry(tmp_path):
    marker = tmp_path / "flaky-marker"
    job = small_matrix(benchmarks=("gcc",), seeds=(1,))[0]
    flaky = SweepJob(machine=job.machine, benchmark="BOOM", base=job.base,
                     config=job.config)

    def transient_fn(j):
        if j.benchmark == "BOOM":
            if not marker.exists():
                marker.write_text("poisoned once")
                raise RuntimeError("injected transient failure")
            j = job  # recovered: run the real benchmark
        return execute_job(j)

    engine = ExperimentEngine(max_workers=1, retries=1, backoff=0.01)
    outcome = engine.run([flaky], job_fn=transient_fn)
    assert outcome.ok
    assert outcome.metrics.retries == 1
    assert outcome.results[0].cycles > 0


@pytest.mark.skipif(not _FORK, reason="needs the fork start method")
def test_broken_pool_degrades_to_serial():
    jobs = small_matrix(benchmarks=("gcc",), seeds=(1, 2))
    engine = ExperimentEngine(max_workers=2, retries=0)
    outcome = engine.run(jobs, job_fn=_crashing_fn)
    # Workers died; the parent drained every job serially.
    assert outcome.metrics.mode == "degraded"
    assert outcome.ok
    assert all(result is not None for result in outcome.results)
    reference = ExperimentEngine(max_workers=1).run(jobs)
    assert [r.cycles for r in outcome.results] \
        == [r.cycles for r in reference.results]


def test_run_jobs_strict_raises_on_failure():
    with pytest.raises(SweepError) as excinfo:
        run_jobs([poison_job()],
                 engine=ExperimentEngine(max_workers=1, retries=0))
    assert "BOOM" in str(excinfo.value)


# -- speedup (the acceptance criterion; needs real cores) ---------------

@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup assertion needs >= 4 cores")
def test_parallel_sweep_is_2x_faster_on_4_cores(tmp_path):
    jobs = matrix_jobs(benchmarks=["gcc", "mcf", "hmmer"],
                       seeds=[1, 2, 3], machines=["single", "fgstp"],
                       configs=("medium",), trace_length=6000,
                       warmup=2000)
    started = time.monotonic()
    serial = ExperimentEngine(max_workers=1).run(jobs)
    serial_wall = time.monotonic() - started
    started = time.monotonic()
    parallel = ExperimentEngine(max_workers=4,
                                cache_dir=tmp_path / "cache").run(jobs)
    parallel_wall = time.monotonic() - started
    assert serial.ok and parallel.ok
    assert [r.cycles for r in serial.results] \
        == [r.cycles for r in parallel.results]
    assert parallel_wall * 2.0 <= serial_wall, \
        f"parallel {parallel_wall:.2f}s vs serial {serial_wall:.2f}s"


# -- cache schema versioning --------------------------------------------

def test_schema_bump_regenerates_stale_cached_results(tmp_path,
                                                      monkeypatch):
    """Results cached by older code must be re-run, not served stale.

    Simulates a pre-upgrade cache by writing entries under schema
    version 1, then checks that the current version ignores them and
    regenerates results that carry the new ``cpistack`` payload.
    """
    import repro.harness.parallel as parallel_mod

    jobs = small_matrix(benchmarks=("gcc",), seeds=(1,),
                        machines=("single",))
    cache_dir = tmp_path / "cache"

    monkeypatch.setattr(parallel_mod, "_RESULT_CACHE_VERSION", 1)
    stale_key = jobs[0].key()
    old = ExperimentEngine(max_workers=1, cache_dir=cache_dir).run(jobs)
    assert old.ok and old.metrics.result_cache_hits == 0

    monkeypatch.undo()
    assert jobs[0].key() != stale_key  # the version is part of the key
    fresh = ExperimentEngine(max_workers=1, cache_dir=cache_dir).run(jobs)
    assert fresh.ok
    # Old entries are orphaned: nothing was served from the cache.
    assert fresh.metrics.result_cache_hits == 0
    assert fresh.metrics.jobs_done == len(jobs)
    assert "cpistack" in fresh.results[0].extra

    # And the regenerated entries are served on the next run.
    again = ExperimentEngine(max_workers=1, cache_dir=cache_dir).run(jobs)
    assert again.metrics.result_cache_hits == len(jobs)
    assert "cpistack" in again.results[0].extra


# -- job identity -------------------------------------------------------

def test_job_keys_separate_every_axis():
    base = core_config("medium")
    config = ExperimentConfig(trace_length=LENGTH, warmup=WARMUP)
    job = make_job("fgstp", "gcc", base, config)
    assert job.key() == make_job("fgstp", "gcc", base, config).key()
    variants = [
        make_job("single", "gcc", base, config),
        make_job("fgstp", "mcf", base, config),
        make_job("fgstp", "gcc", core_config("small"), config),
        make_job("fgstp", "gcc", base, config.with_(seed=2)),
        make_job("fgstp", "gcc", base, config.with_(warmup=WARMUP - 1)),
        make_job("fgstp", "gcc", base, config, frontend_overhead=2),
    ]
    keys = {variant.key() for variant in variants}
    assert job.key() not in keys
    assert len(keys) == len(variants)
