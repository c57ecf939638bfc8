"""Per-function spans for the benchmark's traced run.

The simulator is not instrumented; this module wraps its public
functions from the outside, for the duration of a traced run only, and
restores them afterwards.  Every call of a wrapped function is a span.
A span's *self time* is its duration minus the durations of the spans
it directly encloses, so the self times of all spans add up exactly to
the durations of the root spans (spans with no enclosing span).

Spans are aggregated as they close rather than stored one by one: a
traced fgstp pass makes millions of cache calls.  Per span name the
recorder keeps the call count and the summed self time; per
(parent, child) pair it keeps the call count, and for machine ``run``
calls the simulated instructions they returned.

Sweep jobs run in forked pool workers.  A worker starts with an empty
recorder (its spans are roots of their own) and writes what it
recorded to ``<spill_dir>/spans-<pid>.json`` when it exits; the parent
merges those files after the pool has shut down.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

#: (module, attribute path, metric prefix) of every wrapped function.
#: ``generate_trace`` is wrapped under both module names that call it:
#: ``repro.workloads.suite`` imported the name at import time.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.fgstp.orchestrator", "FgStpMachine.run",
     "fgstp.orchestrator.FgStpMachine.run"),
    ("repro.fgstp.partitioner", "Partitioner.partition",
     "fgstp.partitioner.Partitioner.partition"),
    ("repro.fgstp.comm", "InterCoreQueue.send",
     "fgstp.comm.InterCoreQueue.send"),
    ("repro.fgstp.comm", "InterCoreQueue.deliver",
     "fgstp.comm.InterCoreQueue.deliver"),
    ("repro.fgstp.adaptive", "AdaptiveFgStpMachine.run",
     "fgstp.adaptive.AdaptiveFgStpMachine.run"),
    ("repro.uarch.pipeline.core", "CycleCore.phase_commit",
     "uarch.pipeline.CycleCore.phase_commit"),
    ("repro.uarch.pipeline.core", "CycleCore.phase_complete",
     "uarch.pipeline.CycleCore.phase_complete"),
    ("repro.uarch.pipeline.core", "CycleCore.phase_issue",
     "uarch.pipeline.CycleCore.phase_issue"),
    ("repro.uarch.pipeline.core", "CycleCore.phase_dispatch",
     "uarch.pipeline.CycleCore.phase_dispatch"),
    ("repro.uarch.pipeline.core", "CycleCore.attribute_cycle",
     "uarch.pipeline.CycleCore.attribute_cycle"),
    ("repro.uarch.pipeline.core", "CycleCore.charge_idle_cycles",
     "uarch.pipeline.CycleCore.charge_idle_cycles"),
    ("repro.uarch.pipeline.fetch", "SelfFetchUnit.phase_fetch",
     "uarch.pipeline.SelfFetchUnit.phase_fetch"),
    ("repro.uarch.pipeline.machine", "SingleCoreMachine.run",
     "uarch.pipeline.SingleCoreMachine.run"),
    ("repro.corefusion.machine", "CoreFusionMachine.run",
     "corefusion.CoreFusionMachine.run"),
    ("repro.uarch.cache.hierarchy", "CacheHierarchy.load",
     "uarch.cache.CacheHierarchy.load"),
    ("repro.uarch.cache.hierarchy", "CacheHierarchy.store",
     "uarch.cache.CacheHierarchy.store"),
    ("repro.uarch.cache.hierarchy", "CacheHierarchy.fetch",
     "uarch.cache.CacheHierarchy.fetch"),
    ("repro.uarch.branch.btb", "FrontEndPredictor.predict",
     "uarch.branch.FrontEndPredictor.predict"),
    ("repro.uarch.branch.btb", "FrontEndPredictor.update",
     "uarch.branch.FrontEndPredictor.update"),
    ("repro.workloads.generator", "generate_trace",
     "workloads.generate_trace"),
    ("repro.workloads.suite", "generate_trace",
     "workloads.generate_trace"),
    ("repro.harness.parallel", "ExperimentEngine.run",
     "harness.parallel.ExperimentEngine.run"),
)

#: Metric prefixes of the wrapped functions, without duplicates.
FUNCTIONS: Tuple[str, ...] = tuple(dict.fromkeys(t[2] for t in TARGETS))

#: Machine ``run`` methods: their spans also tally returned instructions.
MACHINE_RUNS = frozenset(name for name in FUNCTIONS
                         if name.endswith("Machine.run"))

#: The sweep engine's ``run``; see :meth:`SpanRecorder.exclude`.
ENGINE_RUN = "harness.parallel.ExperimentEngine.run"

#: Spans opened by the benchmark itself around set-up and each pass.
SETUP_SPAN = "perfbench.setup"
PASS_SPAN = "perfbench.pass"


class SpanRecorder:
    """Aggregated spans of one traced run (see the module docstring).

    Args:
        spill_dir: Where forked workers write their spans on exit.
    """

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.active = False
        self._stack: List[list] = []  # open spans: [name, child seconds]
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.edges: Dict[Tuple[str, str], int] = {}
        #: Simulated instructions returned by machine ``run`` calls,
        #: per (parent, child) span pair.
        self.instructions: Dict[Tuple[str, str], int] = {}
        self.root_s = 0.0
        # Runs in each forked pool worker after multiprocessing has
        # cleared the finalizers inherited from this process.
        mp_util.register_after_fork(self, SpanRecorder._after_fork)

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, duration: float) -> None:
        stack = self._stack
        stack.pop()
        name = frame[0]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
        if stack:
            parent = stack[-1]
            parent[1] += duration
            edge = (parent[0], name)
        else:
            self.root_s += duration
            edge = ("", name)
        self.edges[edge] = self.edges.get(edge, 0) + 1

    def exclude(self, name: str, seconds: float) -> None:
        """Take *seconds* that were not the program's own work out of
        *name*'s self time and out of the root total, so the self times
        still add up to it."""
        self.self_s[name] = self.self_s.get(name, 0.0) - seconds
        self.root_s -= seconds

    def wrap(self, name: str, function: Callable) -> Callable:
        """*function* recording one span named *name* per call."""
        enter, leave, clock = self._enter, self._exit, time.perf_counter
        count_instructions = name in MACHINE_RUNS

        def traced(*args, **kwargs):
            frame = enter(name)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                leave(frame, clock() - start)
            if count_instructions:
                edge = (self._stack[-1][0] if self._stack else "", name)
                self.instructions[edge] = (self.instructions.get(edge, 0)
                                           + result.instructions)
            return result

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span named *name*."""
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, time.perf_counter() - start)

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every :data:`TARGETS` function while the block runs."""
        saved = []
        try:
            for module_name, path, name in TARGETS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            self.active = True
            yield self
        finally:
            self.active = False
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- forked workers -------------------------------------------------

    def _after_fork(self) -> None:
        if not self.active:
            return
        self._stack = []
        self.calls, self.self_s = {}, {}
        self.edges, self.instructions = {}, {}
        self.root_s = 0.0
        mp_util.Finalize(None, self._spill, exitpriority=100)

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{os.getpid()}.json"
        with path.open("w") as stream:
            json.dump(self.as_dict(), stream)

    def collect_spills(self) -> None:
        """Merge and delete the span files of workers that have exited."""
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            with path.open() as stream:
                self.merge(json.load(stream))
            path.unlink()

    # -- (de)serialisation ---------------------------------------------

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "instructions": [[p, c, n]
                             for (p, c), n in self.instructions.items()],
            "root_s": self.root_s,
        }

    def merge(self, record: dict) -> None:
        for name, count in record["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + count
        for name, seconds in record["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + seconds
        for parent, child, count in record["edges"]:
            self.edges[(parent, child)] = \
                self.edges.get((parent, child), 0) + count
        for parent, child, count in record["instructions"]:
            self.instructions[(parent, child)] = \
                self.instructions.get((parent, child), 0) + count
        self.root_s += record["root_s"]

    def instructions_under(self, parent: str) -> int:
        """Instructions returned by machine runs directly under *parent*."""
        return sum(count for (p, _), count in self.instructions.items()
                   if p == parent)

    def instructions_of(self, name: str) -> int:
        """Instructions returned by every *name* span."""
        return sum(count for (_, c), count in self.instructions.items()
                   if c == name)


def layer_metrics(recorder: SpanRecorder, rounds: int) -> Dict[str, float]:
    """Per-round calls and self time of every function and own span."""
    out: Dict[str, float] = {}
    for prefix in FUNCTIONS + (SETUP_SPAN, PASS_SPAN):
        out[f"{prefix}.calls"] = recorder.calls.get(prefix, 0) / rounds
        out[f"{prefix}.self_s"] = recorder.self_s.get(prefix, 0.0) / rounds
    return out
