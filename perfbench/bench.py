"""Workloads, timed passes, output checks and metrics of the benchmark.

Three workloads, all driven through the simulator's public entry points
(``build_machine`` + ``Machine.run``, ``generate_trace``,
``ExperimentEngine.run`` / ``matrix_jobs``):

* ``fgstp`` -- the paper's machine (``fgstp``, ``fgstp-adaptive``) on
  gcc / mcf / milc, serially in this process;
* ``baseline`` -- ``single`` and ``corefusion`` on the same cells: the
  shared core, caches and predictor without the Fg-STP front end;
* ``sweep`` -- a two-worker sweep over all four machines and eight suite
  benchmarks with short traces: a cold pass into a fresh disk cache,
  then a warm pass of the same jobs served from it.

A run simulates a sample of trace seeds drawn by its ``--seed`` from a
fixed pool, so one run covers several generated programs per benchmark
(see :func:`trace_seeds`).  It repeats *passes* (every cell of the
workload once) until its time is up.  Every cell of every pass is
checked against the outputs recorded in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from hostclock import HostClock
from spans import (ENGINE_RUN, PASS_SPAN, SETUP_SPAN, SpanRecorder,
                   layer_metrics)

from repro.fgstp.params import FgStpParams
from repro.harness import parallel
from repro.harness.runners import MACHINES, build_machine
from repro.stats.cpistack import CAUSES
from repro.uarch.params import core_config
from repro.workloads import generator

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: Trace seeds whose outputs are recorded; each run samples from them.
#: 42 is the ``repro bench`` pinned seed.
SEED_POOL = tuple(range(42, 54))

CONFIG = "medium"
SIM_BENCHMARKS = ("gcc", "mcf", "milc")
SWEEP_BENCHMARKS = ("bzip2", "hmmer", "libquantum", "astar",
                    "bwaves", "milc", "namd", "lbm")

#: Workload name -> sizing; ``seeds`` is how many trace seeds a run
#: samples.  The seed picks the generated program's whole skeleton, so
#: one cell's cycle count can differ twofold between seeds: a run
#: averages several to keep its figures comparable with the next run's.
WORKLOADS: Dict[str, dict] = {
    "fgstp": {"machines": ("fgstp", "fgstp-adaptive"),
              "benchmarks": SIM_BENCHMARKS, "length": 8_000,
              "warmup": 3_000, "seeds": 8},
    "baseline": {"machines": ("single", "corefusion"),
                 "benchmarks": SIM_BENCHMARKS, "length": 8_000,
                 "warmup": 3_000, "seeds": 8},
    "sweep": {"machines": MACHINES, "benchmarks": SWEEP_BENCHMARKS,
              "length": 4_000, "warmup": 1_500, "seeds": 5, "workers": 2},
}

#: Set-up is repeated this many times per run; the median is reported.
#: Importing is timed more often: it is short, and noisier.
SETUP_REPS = 3
IMPORT_REPS = 5

def trace_seeds(workload: str, seed: int) -> List[int]:
    """The trace seeds a ``--seed`` value selects for *workload*."""
    count = WORKLOADS[workload]["seeds"]
    return sorted(random.Random(seed).sample(SEED_POOL, count))


def label(machine: str, benchmark: str, tseed: int) -> str:
    return f"{machine}/{benchmark}/s{tseed}"


# ----------------------------------------------------------------------
# Outputs and their check
# ----------------------------------------------------------------------

class CommitDigest:
    """``commit_hook`` hashing the commit stream (seq, cycle, core)."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def __call__(self, uop, cycle: int) -> None:
        self._hash.update(b"%d,%d,%d;" % (uop.seq, cycle, uop.core_id))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def cell_output(result, commits: Optional[str] = None) -> dict:
    """The recorded form of one cell's simulated result."""
    slots = result.extra["cpistack"]["slots"]
    out = {"cycles": result.cycles, "instructions": result.instructions,
           "slots": [slots.get(cause, 0) for cause in CAUSES]}
    if commits is not None:
        out["commits_sha256"] = commits
    return out


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with path.open() as stream:
        return json.load(stream)


def expected_cells(table: dict, workload: str, tseeds: Sequence[int]
                   ) -> dict:
    """Recorded outputs of *workload* at *tseeds*, keyed by :func:`label`.

    Raises:
        ValueError: when the table was recorded at another sizing or
            lacks a seed -- the check would be meaningless.
    """
    if table.get("sizing", {}).get(workload) != recorded_sizing(workload):
        raise ValueError(f"expected.json was recorded at another "
                         f"{workload} sizing; re-record it (record.py)")
    out = {}
    for tseed in tseeds:
        cells = table.get("workloads", {}).get(workload, {}).get(str(tseed))
        if cells is None:
            raise ValueError(f"no recorded outputs for {workload} at "
                             f"trace seed {tseed}; re-record (record.py)")
        out.update({f"{cell}/s{tseed}": value
                    for cell, value in cells.items()})
    return out


def recorded_sizing(workload: str) -> dict:
    """The part of *workload*'s sizing that determines each cell's outputs."""
    spec = WORKLOADS[workload]
    return {key: list(spec[key]) if isinstance(spec[key], tuple)
            else spec[key]
            for key in ("machines", "benchmarks", "length", "warmup")}


def mismatches(outputs: Dict[str, dict], expected: dict) -> List[str]:
    """Cells whose outputs differ from *expected* (missing ones too).

    Only the keys present in an output are compared, so an untraced
    run (no commit digest) is checked on cycles, instructions and the
    CPI-stack slot vector.
    """
    bad = []
    for cell, out in outputs.items():
        want = expected.get(cell)
        if want is None or any(want.get(key) != value
                               for key, value in out.items()):
            bad.append(cell)
    return bad


# ----------------------------------------------------------------------
# Simulation workloads (fgstp, baseline)
# ----------------------------------------------------------------------

@dataclass
class CellRun:
    """One cell of one pass; *calibrated* is in :mod:`hostclock` seconds."""

    cell: str
    seconds: float
    calibrated: float
    result: object
    skipped: Optional[int]


def sim_cells(workload: str, tseeds: Sequence[int]
              ) -> List[Tuple[str, str, int]]:
    spec = WORKLOADS[workload]
    return [(machine, benchmark, tseed) for tseed in tseeds
            for benchmark in spec["benchmarks"]
            for machine in spec["machines"]]


def sim_setup(workload: str, tseeds: Sequence[int]) -> Tuple[dict, list]:
    """Generate the workload's traces and build one machine per cell.

    The machines only time construction; every pass builds its own.
    """
    spec = WORKLOADS[workload]
    base = core_config(CONFIG)
    traces = {(name, tseed): generator.generate_trace(name, spec["length"],
                                                      tseed)
              for tseed in tseeds for name in spec["benchmarks"]}
    models = [build_machine(machine, base, FgStpParams())
              for machine, _, _ in sim_cells(workload, tseeds)]
    return traces, models


def sim_pass(workload: str, tseeds: Sequence[int], traces: dict,
             digest: bool = False, clock: Optional[HostClock] = None
             ) -> Tuple[List[CellRun], Dict[str, dict]]:
    """Run every cell once on a fresh machine, timing ``Machine.run``.

    With a *clock*, a calibration job runs before the first cell and
    after each cell, and each cell's time is calibrated by the two
    around it.  A cell whose run raises has no :class:`CellRun`; its
    output names the exception, so the check counts it as failed.
    """
    spec = WORKLOADS[workload]
    base = core_config(CONFIG)
    runs, outputs = [], {}
    before = clock.sample() if clock else 0.0
    for machine, benchmark, tseed in sim_cells(workload, tseeds):
        hook = CommitDigest() if digest else None
        overrides = {"commit_hook": hook} if digest else {}
        cell = label(machine, benchmark, tseed)
        try:
            model = build_machine(machine, base, FgStpParams(), **overrides)
            start = time.perf_counter()
            result = model.run(traces[benchmark, tseed], workload=benchmark,
                               warmup=spec["warmup"])
            seconds = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - a crash is a failed cell
            outputs[cell] = {"error": f"{type(exc).__name__}: {exc}"}
            before = clock.sample() if clock else 0.0
            continue
        calibrated = seconds
        if clock:
            after = clock.sample()
            calibrated = clock.calibrated(seconds, (before + after) / 2)
            before = after
        runs.append(CellRun(cell, seconds, calibrated, result,
                            getattr(model, "skipped_cycles", None)))
        outputs[cell] = cell_output(result,
                                    hook.hexdigest() if digest else None)
    return runs, outputs


# ----------------------------------------------------------------------
# Sweep workload
# ----------------------------------------------------------------------

def sweep_jobs(tseeds: Sequence[int]) -> list:
    spec = WORKLOADS["sweep"]
    return parallel.matrix_jobs(spec["benchmarks"], list(tseeds),
                                spec["machines"], configs=(CONFIG,),
                                trace_length=spec["length"],
                                warmup=spec["warmup"])


def sweep_setup(tseeds: Sequence[int], cache_dir: Path):
    """A two-worker engine on a fresh disk cache, and the job matrix."""
    shutil.rmtree(cache_dir, ignore_errors=True)
    engine = parallel.ExperimentEngine(
        max_workers=WORKLOADS["sweep"]["workers"], cache_dir=cache_dir)
    return engine, sweep_jobs(tseeds)


def sweep_outputs(outcome) -> Tuple[Dict[str, dict], int]:
    """Cell outputs of a sweep outcome, and how many jobs failed."""
    outputs = {label(job.machine, job.benchmark, job.config.seed):
               cell_output(result)
               for job, result in zip(outcome.jobs, outcome.results)
               if result is not None}
    return outputs, len(outcome.failures)


@dataclass(frozen=True)
class CalibratedJob:
    """Sweep job function: the engine's own ``execute_job``, preceded by
    one calibration job.

    The cold pass runs in pool workers on both cores, so its host speed
    is sampled where the jobs run.  Each job appends the calibration
    job's time and the whole time spent before ``execute_job`` (the
    calibration job and writing the line) to
    ``<spill_dir>/calibration-<pid>.txt``, so the pass can take its own
    work back out of the interval it times.
    """

    spill_dir: str

    def __call__(self, job):
        start = time.perf_counter()
        seconds = HostClock().sample()
        path = Path(self.spill_dir) / f"calibration-{os.getpid()}.txt"
        with path.open("a") as stream:
            stream.write(f"{seconds!r} {time.perf_counter() - start!r}\n")
        return parallel.execute_job(job)


def collect_calibration(spill_dir: Path) -> Tuple[List[float], float]:
    """Read and delete what :class:`CalibratedJob` wrote: the calibration
    samples, and the summed time the jobs spent before ``execute_job``."""
    samples, overhead = [], 0.0
    for path in sorted(spill_dir.glob("calibration-*.txt")):
        for line in path.read_text().splitlines():
            sample, spent = line.split()
            samples.append(float(sample))
            overhead += float(spent)
        path.unlink()
    return samples, overhead


@dataclass
class SweepPass:
    """One sweep pass.  *cold_s* is the cold pass's wall time less the
    workers' calibration share, *calibration_s*."""

    cold_s: float
    cold_calibrated: float
    calibration_s: float
    warm_s: float
    cold: object
    warm: object


#: Calibration jobs run before and after each timed set-up step.
BRACKET_SAMPLES = 6


def sweep_pass(engine, jobs, cache_dir: Path, spill_dir: Path,
               clock: HostClock) -> SweepPass:
    """Cold pass into an emptied cache, then a warm pass of the same jobs.

    The cold pass is calibrated by the samples its workers took.  The
    time the workers spent on those samples, spread over the workers,
    is taken out of the pass's wall time first.
    """
    shutil.rmtree(cache_dir, ignore_errors=True)
    collect_calibration(spill_dir)
    start = time.perf_counter()
    cold = engine.run(jobs, CalibratedJob(str(spill_dir)))
    wall_s = time.perf_counter() - start
    samples, overhead = collect_calibration(spill_dir)
    clock.samples += samples
    calibration_s = overhead / WORKLOADS["sweep"]["workers"]
    cold_s = wall_s - calibration_s
    start = time.perf_counter()
    warm = engine.run(jobs)
    calibrated = (clock.calibrated(cold_s, sum(samples) / len(samples))
                  if samples else cold_s)
    return SweepPass(cold_s, calibrated, calibration_s,
                     time.perf_counter() - start, cold, warm)


# ----------------------------------------------------------------------
# Set-up time, memory, provenance
# ----------------------------------------------------------------------

_IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                 "import repro.harness.parallel, repro.harness.runners, "
                 "repro.workloads.generator; "
                 "print(time.perf_counter() - t)")


def import_seconds(root: Path, clock: HostClock, reps: int) -> float:
    """Median calibrated time to import the simulator, each time in a
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(reps):
        before = clock.sample(BRACKET_SAMPLES)
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                              cwd=root, env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        seconds = float(done.stdout.strip().splitlines()[-1])
        after = clock.sample(BRACKET_SAMPLES)
        times.append(clock.calibrated(seconds, (before + after) / 2))
    return statistics.median(times)


def peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process, plus its largest child's if asked."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def knobs() -> Dict[str, Optional[str]]:
    """The resolved ``REPRO_*`` knobs the program runs under."""
    from repro.ckpt.manager import resolve_interval
    from repro.integrity.watchdog import window_from_env
    from repro.stats.cpistack import debug_checks_enabled
    from repro.uarch.pipeline.core import skip_ahead_enabled
    return {
        "REPRO_SKIP_AHEAD": skip_ahead_enabled(),
        "REPRO_CPISTACK_CHECK": debug_checks_enabled(),
        "REPRO_WATCHDOG_WINDOW": window_from_env(),
        "REPRO_CHECKPOINT_INTERVAL": resolve_interval(None),
        "REPRO_CHAOS": os.environ.get("REPRO_CHAOS", "").strip() or None,
    }


def refusal(resolved: dict) -> Optional[str]:
    """Why the benchmark must not measure under *resolved*, or None."""
    if resolved["REPRO_CHAOS"]:
        return "REPRO_CHAOS is set: fault injection changes the program"
    if resolved["REPRO_CHECKPOINT_INTERVAL"] > 0:
        return ("REPRO_CHECKPOINT_INTERVAL is set: checkpointing adds "
                "work to every run")
    return None


def provenance(root: Path) -> dict:
    """Git revision (when there is one), source digest, host, knobs."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except OSError:
        git_rev = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"git_rev": git_rev, "src_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "knobs": knobs()}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def model_metrics(results: Sequence) -> Dict[str, float]:
    """Modelled-design shares and rates over one pass's results."""
    slots = {cause: 0 for cause in CAUSES}
    assigned = replicated = sends = instructions = 0
    l1d = [0, 0]
    branch = [0, 0]
    for result in results:
        instructions += result.instructions
        for cause, count in result.extra["cpistack"]["slots"].items():
            slots[cause] += count
        partition = result.extra.get("partition")
        if partition:
            assigned += partition["assigned"]
            replicated += partition["replicated"]
        for queue in result.extra.get("queues", {}).values():
            sends += queue["sends"]
        caches = result.extra.get("caches", {})
        for level in ([caches] if "l1d" in caches
                      else list(caches.values())):
            l1d[0] += level["l1d"]["misses"]
            l1d[1] += level["l1d"]["accesses"]
        if "branch" in result.extra:
            branch[0] += result.extra["branch"]["mispredictions"]
            branch[1] += result.extra["branch"]["lookups"]
    total = sum(slots.values())
    out = {f"model.cpistack.{cause}": slots[cause] / total
           for cause in CAUSES}
    out["model.partition.replicated_frac"] = _ratio(replicated, assigned)
    out["model.queues.sends_per_kinstr"] = _ratio(1000 * sends,
                                                  instructions)
    out["model.caches.l1d_miss_rate"] = _ratio(*l1d)
    out["model.branch.mispredict_rate"] = _ratio(*branch)
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


SWEEP_LAYERS = ("harness.parallel.cache_probe_s", "harness.parallel.execute_s",
                "harness.parallel.warm_pass_s",
                "harness.parallel.result_cache_hits",
                "harness.parallel.traces_generated",
                "harness.parallel.retries")


@dataclass
class Measurement:
    """Everything one run measured, before it is printed."""

    attempted: int
    failed: int
    failures: List[str]
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    passes: int
    raw_kcps: float
    #: Traced runs: calls per round of each (parent, child) span pair.
    span_edges: Dict[Tuple[str, str], float] = field(default_factory=dict)


@dataclass
class Pass:
    """One timed pass: the workload-specific record, the checked results,
    and the timed span in measured and calibrated seconds."""

    record: object
    results: list
    seconds: float
    calibrated: float


class Runner:
    """Runs one workload at one seed; see :meth:`measure`.

    Args:
        root: Checkout root (holds ``src/``).
        workload: A :data:`WORKLOADS` name.
        seed: The ``--seed`` value.
        expected: Recorded outputs table (``expected.json`` contents).
        work_dir: Working directory for the sweep cache and span files.
    """

    def __init__(self, root: Path, workload: str, seed: int,
                 expected: dict, work_dir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; "
                             f"known: {sorted(WORKLOADS)}")
        self.root = root
        self.workload = workload
        self.tseeds = trace_seeds(workload, seed)
        self.expected = expected_cells(expected, workload, self.tseeds)
        self.work_dir = work_dir
        self.cache_dir = work_dir / "sweep-cache"
        self.clock = HostClock()
        self.attempted = 0
        self.failures: List[str] = []
        self.span_edges: Dict[Tuple[str, str], float] = {}

    # -- shared pieces -------------------------------------------------

    def _check(self, outputs: Dict[str, dict], attempted: int,
               failed_jobs: int = 0, prefix: str = "") -> None:
        bad = mismatches(outputs, self.expected)
        self.attempted += attempted
        self.failures += [f"{prefix}{cell} {outputs[cell].get('error', '')}"
                          .rstrip() for cell in bad]
        self.failures += [f"{prefix}job-failure"] * failed_jobs

    def _setup(self):
        if self.workload == "sweep":
            return sweep_setup(self.tseeds, self.cache_dir)
        return sim_setup(self.workload, self.tseeds)

    def setup_seconds(self) -> Tuple[float, object]:
        """Calibrated set-up time, and the state of the last set-up.

        The sum of two medians over :data:`SETUP_REPS`: importing the
        simulator in a fresh interpreter, and :meth:`_setup`.
        """
        times, state = [], None
        for _ in range(SETUP_REPS):
            before = self.clock.sample(BRACKET_SAMPLES)
            start = time.perf_counter()
            state = self._setup()
            seconds = time.perf_counter() - start
            after = self.clock.sample(BRACKET_SAMPLES)
            times.append(self.clock.calibrated(seconds,
                                               (before + after) / 2))
        return (import_seconds(self.root, self.clock, IMPORT_REPS)
                + statistics.median(times)), state

    def _one_pass(self, state, digest: bool = False) -> Pass:
        if self.workload == "sweep":
            engine, jobs = state
            record = sweep_pass(engine, jobs, self.cache_dir, self.work_dir,
                                self.clock)
            for prefix, outcome in (("cold:", record.cold),
                                    ("warm:", record.warm)):
                outputs, failed = sweep_outputs(outcome)
                self._check(outputs, len(jobs), failed, prefix)
            results = [r for r in record.cold.results if r is not None]
            return Pass(record, results, record.cold_s,
                        record.cold_calibrated)
        traces, _ = state
        runs, outputs = sim_pass(self.workload, self.tseeds, traces, digest,
                                 self.clock)
        self._check(outputs, len(outputs))
        return Pass(runs, [run.result for run in runs],
                    sum(run.seconds for run in runs),
                    sum(run.calibrated for run in runs))

    def _passes(self, state, seconds: float) -> List[Pass]:
        """Passes until *seconds* would be exceeded (at least one)."""
        passes: List[Pass] = []
        started = time.perf_counter()
        last = 0.0
        while not passes or time.perf_counter() - started + last <= seconds:
            begin = time.perf_counter()
            passes.append(self._one_pass(state))
            last = time.perf_counter() - begin
        return passes

    # -- end-to-end ------------------------------------------------------

    def _timed_seconds(self, passes: List[Pass], calibrated: bool) -> float:
        """Timed seconds of one pass: for the simulation workloads the
        per-cell medians over the passes, summed; for the sweep the
        median cold pass."""
        if self.workload == "sweep":
            return statistics.median(
                p.calibrated if calibrated else p.seconds for p in passes)
        cells: Dict[str, List[float]] = {}
        for run in (run for p in passes for run in p.record):
            cells.setdefault(run.cell, []).append(
                run.calibrated if calibrated else run.seconds)
        return sum(statistics.median(times) for times in cells.values())

    def measure(self, seconds: float, trace: bool) -> Measurement:
        """Set up, then time passes for *seconds*; with *trace*, spend
        the second half of the time on traced rounds."""
        setup_s, state = self.setup_seconds()
        budget = seconds / 2.0 if trace else seconds
        passes = self._passes(state, budget)
        results = passes[0].results
        cycles = sum(r.cycles for r in results)
        instructions = sum(r.instructions for r in results)
        timed = self._timed_seconds(passes, calibrated=True)
        raw_kcps = cycles / self._timed_seconds(passes, False) / 1000.0
        end_to_end = {
            "sim_kcps": cycles / timed / 1000.0,
            "sim_kips": instructions / timed / 1000.0,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(self.workload == "sweep"),
            "sim_ipc": instructions / cycles,
        }
        per_layer = {}
        if trace:
            per_layer = self._per_layer(passes, seconds - budget)
            per_layer["host.raw_sim_kcps"] = raw_kcps
            per_layer["host.speed_factor"] = self.clock.speed()
        end_to_end["ok_frac"] = 1.0 - len(self.failures) / self.attempted
        return Measurement(self.attempted, len(self.failures),
                           self.failures, end_to_end, per_layer,
                           len(passes), raw_kcps, self.span_edges)

    # -- per-layer -------------------------------------------------------

    def _per_layer(self, passes: List[Pass], seconds: float
                   ) -> Dict[str, float]:
        out = model_metrics(passes[0].results)
        untraced_s = statistics.median(p.calibrated for p in passes)
        if self.workload == "sweep":
            out.update(self._sweep_layers([p.record for p in passes]))
            out["uarch.pipeline.skipped_frac"] = 0.0
        else:
            out.update(dict.fromkeys(SWEEP_LAYERS, 0.0))
            runs = [run for run in passes[0].record
                    if run.skipped is not None]
            out["uarch.pipeline.skipped_frac"] = _ratio(
                sum(run.skipped for run in runs),
                sum(run.result.cycles for run in runs))
        recorder = SpanRecorder(self.work_dir)
        rounds, traced_s = self._traced_rounds(recorder, seconds)
        out.update(layer_metrics(recorder, rounds))
        self.span_edges = {edge: count / rounds
                           for edge, count in recorder.edges.items()}
        adaptive = "fgstp.adaptive.AdaptiveFgStpMachine.run"
        out["fgstp.adaptive.resim_ratio"] = _ratio(
            recorder.instructions_under(adaptive),
            recorder.instructions_of(adaptive))
        out["trace.root_s"] = recorder.root_s / rounds
        out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        return out

    def _traced_rounds(self, recorder: SpanRecorder, seconds: float
                       ) -> Tuple[int, float]:
        """Traced set-up + pass rounds for about *seconds*; returns the
        round count and the median calibrated pass time.

        The simulation workloads also hash each cell's commit stream
        through ``commit_hook`` and check it against the recorded one.
        The sweep's engine waits for its workers' calibration jobs; that
        share is taken out of the engine's self time.
        """
        pass_times = []
        started = time.perf_counter()
        last = 0.0
        with recorder.installed():
            while (not pass_times
                   or time.perf_counter() - started + last <= seconds):
                begin = time.perf_counter()
                with recorder.span(SETUP_SPAN):
                    state = self._setup()
                with recorder.span(PASS_SPAN):
                    timed = self._one_pass(state, digest=True)
                recorder.collect_spills()
                if self.workload == "sweep":
                    recorder.exclude(ENGINE_RUN, timed.record.calibration_s)
                last = time.perf_counter() - begin
                pass_times.append(timed.calibrated)
        return len(pass_times), statistics.median(pass_times)

    def _sweep_layers(self, passes: List[SweepPass]) -> Dict[str, float]:
        def median(values):
            return statistics.median(list(values))
        return {
            "harness.parallel.cache_probe_s": median(
                p.cold.metrics.stage_seconds["cache_probe"] for p in passes),
            "harness.parallel.execute_s": median(
                p.cold.metrics.stage_seconds["execute"] - p.calibration_s
                for p in passes),
            "harness.parallel.warm_pass_s": median(p.warm_s for p in passes),
            "harness.parallel.result_cache_hits": median(
                p.warm.metrics.result_cache_hits for p in passes),
            "harness.parallel.traces_generated": median(
                p.cold.metrics.traces_generated for p in passes),
            "harness.parallel.retries": median(
                p.cold.metrics.retries + p.warm.metrics.retries
                for p in passes),
        }
