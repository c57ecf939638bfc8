"""One cycle loop for every timing machine.

:class:`MachineKernel` owns what the single-core, Core Fusion and Fg-STP
machines share: the run prologue, the checkpoint cadence, the
``max_cycles`` ceiling, the watchdog, idle-cycle skip-ahead, the drain
check and the failure payloads.  A machine subclasses it and supplies
the policy.  ``_make_step()`` returns the per-cycle closure
``step(cycle) -> progress``, built once per run over the bound phase
methods; it advances ``self.committed``, the only attribute written per
cycle, and a falsy return means the cycle replayed an idle one exactly.
``_next_event`` and ``_charge_idle`` serve the skip-ahead; ``_start``,
``_warm``, ``_pickle_state`` and ``_adopt_state`` the run state;
``_fetch_position`` and ``_lookahead`` the in-memory :class:`Snapshot`;
and ``_busy``, ``_cpi_stack``, ``_partial_extra``, ``_snapshot_parts``,
``_drain_check``, ``_ingest_metrics`` and ``_result`` what failures and
results report.  Each machine class still defines its own ``run``,
delegating to :meth:`MachineKernel.run`, so a per-machine profile can
wrap it by name.  Every run executes under :func:`collector_policy`, the
simulator's one garbage-collector setting.
"""

from __future__ import annotations

import gc
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Optional, Sequence, Union

from ...ckpt.manager import Checkpointer
from ...ckpt.state import (CheckpointCorruption, CheckpointMismatch,
                           MachineCheckpoint, loads_state, trace_fingerprint)
from ...integrity.errors import (SimulationError, SimulationHang,
                                 SimulationLimit)
from ...integrity.forensics import uop_brief
from ...integrity.watchdog import Watchdog
from ...stats.result import SimResult
from ...trace.record import TraceRecord
from ..warmup import split_warmup
from .core import skip_ahead_enabled
from .uop import Uop

#: Committed uops remembered for crash forensics ("what retired last").
RECENT_COMMITS = 16

#: Layout version of the pickled state in a checkpoint, part of every
#: kernel machine's :meth:`MachineKernel.checkpoint_params_key`.  Bump
#: it whenever a machine's pickled shape changes, so an older checkpoint
#: is refused as a mismatch instead of being half-unpickled.  (v2:
#: slotted partitioner writer entries; v3: the shared kernel -- Fg-STP's
#: ``_global_next`` became ``committed`` and its unread ``_now`` went
#: away; the single-core and Core Fusion keys carry the version too;
#: v4: cache sets are plain insertion-ordered dicts, not OrderedDicts;
#: v5: uops lost their unread ``produce_tags`` slot.)
CHECKPOINT_STATE_VERSION = 5

#: Young-generation collection threshold every simulation runs under
#: (see :func:`collector_policy`).  An Fg-STP window keeps ~512
#: instructions in flight for hundreds of cycles, each with its uops,
#: replicas, value tags, writer entries and journal tuples; under
#: CPython's default of 700 allocations most of them survive two young
#: collections, get promoted, and drive repeated full collections over
#: the whole heap.  The measured shares are in docs/architecture.md.
GC_YOUNG_THRESHOLD = 50_000


@contextmanager
def collector_policy():
    """Run the enclosed simulation under :data:`GC_YOUNG_THRESHOLD`.

    The young-generation threshold is raised only while automatic
    collection is enabled and the caller's threshold is positive and
    below the constant; a disabled collector, a threshold of 0 and a
    higher caller setting are left alone.  On exit, normal or by an
    exception, the caller's ``gc.get_threshold()`` is restored exactly,
    so nested runs (the adaptive machine's region runs) leave the
    outermost setting in place.  Applied as ``@collector_policy()`` to
    :meth:`MachineKernel.run` and to the adaptive machine's ``run``.
    """
    saved = gc.get_threshold()
    raised = gc.isenabled() and 0 < saved[0] < GC_YOUNG_THRESHOLD
    if raised:
        gc.set_threshold(GC_YOUNG_THRESHOLD, *saved[1:])
    try:
        yield
    finally:
        if raised:
            gc.set_threshold(*saved)


class Snapshot:
    """A run's state, held in memory, to resume over a longer trace.

    :meth:`MachineKernel.request_snapshot` asks the next run for one.
    The run takes it in its loop's checkpointer slot, at the first loop
    top where ``committed >= at``, pickling the same payload a disk
    checkpoint carries.  ``run(longer, warmup=w, resume_from=snapshot)``
    on a machine of the same kind and configuration then carries on from
    there, with no store and no trace fingerprint: the caller vouches
    that *longer* extends the snapshotted trace record for record.  That
    resume is exact only while the snapshotted run's front end had not
    yet reached its trace's end, which :meth:`MachineKernel.snapshot_point`
    bounds and :meth:`take` checks.

    Attributes:
        at: The requested commit count.
        committed: The commit count the snapshot was taken at.
        payload: The pickled state; ``None`` until taken.
    """

    __slots__ = ("at", "machine", "warmup", "params_key", "committed",
                 "payload", "_end", "_position")

    def __init__(self, at: int, machine: str, params_key: str):
        self.at = at
        self.machine = machine
        self.params_key = params_key
        self.warmup = 0
        self.committed = 0
        self.payload: Optional[bytes] = None
        self._end = 0
        self._position: Optional[Callable[[], int]] = None

    def due(self, committed: int) -> bool:
        return committed >= self.at and self.payload is None

    def take(self, cycle: int, committed: int,
             payload_fn: Callable[[], bytes]) -> None:
        position = self._position()
        if position >= self._end:
            raise RuntimeError(
                f"{self.machine}: snapshot at {committed} commits, but the "
                f"front end has reached record {position} of {self._end}")
        self.committed = committed
        self.payload = payload_fn()
        self._position = None

    def anchor(self, error) -> None:
        """Nothing to attach: an in-memory snapshot is not replayable."""

    def validate_for(self, machine: str, warmup: int,
                     params_key: str) -> None:
        """Raise :class:`CheckpointMismatch` unless this snapshot was
        taken, by the given machine, warm-up and configuration."""
        if self.payload is None:
            raise CheckpointMismatch(
                f"{self.machine}: the snapshot at {self.at} commits was "
                f"never taken")
        if (self.machine, self.warmup, self.params_key) != (
                machine, warmup, params_key):
            raise CheckpointMismatch(
                f"snapshot of {self.machine} (warmup {self.warmup}) does "
                f"not belong to this {machine} run (warmup {warmup})")


class MachineKernel:
    """Shared run loop and run-time services (see the module docstring).

    Args:
        machine_label: Name recorded in results, errors and checkpoints.
        config_name: Configuration name recorded in the result.
        max_cycles: Safety valve -- a run exceeding this raises
            :class:`SimulationLimit` rather than spinning forever on a
            model bug.
        watchdog_window: Forward-progress hang window in cycles
            (``None`` = environment default, ``0`` = disabled; see
            :mod:`repro.integrity.watchdog`).
        skip_ahead: Idle-cycle skip-ahead: when a cycle makes no
            progress anywhere, jump the clock straight to the next
            scheduled event (machine event, watchdog expiry,
            ``max_cycles``), charging the skipped cycles to the same
            CPI-stack bucket the naive loop would have -- results are
            bit-identical either way.  ``None`` (default) follows the
            ``REPRO_SKIP_AHEAD`` environment variable (on unless ``0``).
        commit_hook: Optional observer called as ``hook(uop, cycle)``
            once per architectural retirement, in retirement order.
            ``None`` costs nothing on the hot path; the commit-stream
            oracle (:mod:`repro.oracle`) attaches here.
        tracer: Optional :class:`~repro.obs.tracer.PipelineTracer`.
            Same zero-cost contract as ``commit_hook``: an attached
            tracer never changes the :class:`SimResult`.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            the machine's cache hierarchies register into; its single
            ``reset()`` runs after functional warm-up, and it is filled
            with run statistics at the end.
        checkpoint_interval: Committed-instruction checkpoint cadence
            (``None`` = follow ``REPRO_CHECKPOINT_INTERVAL``; 0 = off).
        checkpoint_sink: Store the snapshots land in (``None`` = the
            default on-disk store).
    """

    #: ``detail`` of a watchdog hang while work is in flight.
    hang_detail = "core"

    def __init__(self, machine_label: str, config_name: str,
                 max_cycles: int = 200_000_000,
                 watchdog_window: Optional[int] = None,
                 skip_ahead: Optional[bool] = None,
                 commit_hook: Optional[Callable[[Uop, int], None]] = None,
                 tracer=None, metrics=None,
                 checkpoint_interval: Optional[int] = None,
                 checkpoint_sink=None):
        self.machine_label = machine_label
        self.config_name = config_name
        self.max_cycles = max_cycles
        self.commit_hook = commit_hook
        self.tracer = tracer
        self.metrics = metrics
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_sink = checkpoint_sink
        self.skip_ahead = skip_ahead_enabled(skip_ahead)
        #: Diagnostic: cycles the last run bridged via skip-ahead
        #: (deliberately *not* part of the :class:`SimResult`, which
        #: must be bit-identical with and without the fast path).
        self.skipped_cycles = 0
        #: Instructions the current run has committed (architecturally).
        self.committed = 0
        self.watchdog = Watchdog(watchdog_window)
        self._recent_commits: Deque[Uop] = deque(maxlen=RECENT_COMMITS)
        self._snapshot_request: Optional[Snapshot] = None

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    @collector_policy()
    def run(self, trace: Sequence[TraceRecord], workload: str = "trace",
            warmup: int = 0,
            resume_from: Union[MachineCheckpoint, Snapshot, None] = None,
            ) -> SimResult:
        """Simulate *trace* to completion and return the result.

        Args:
            trace: The dynamic instruction stream (dense ``seq`` from 0).
            workload: Name recorded in the result.
            warmup: Number of leading instructions used to functionally
                warm caches and the branch predictor; only the remainder
                is timed (see :mod:`repro.uarch.warmup`).
            resume_from: Optional :class:`MachineCheckpoint` taken by an
                earlier run over the *same* trace/warmup/configuration,
                or a :class:`Snapshot` of a run over a prefix of it;
                simulation restarts from the snapshot and the final
                result is bit-identical to a straight-through run.

        Raises:
            SimulationLimit: if the run exceeds ``max_cycles``.
            SimulationHang: if the watchdog sees no commit for a whole
                window while the run is incomplete.
            PipelineDrainError: if the run ends with uops in flight.
            CheckpointMismatch / CheckpointCorruption: if *resume_from*
                does not belong to this run or fails to deserialize.
            ValueError: if a requested snapshot lies past
                :meth:`snapshot_point`.
            (All but the checkpoint errors are ``SimulationError``/
            ``RuntimeError`` subclasses and carry partial statistics
            plus a pipeline snapshot.)
        """
        snapshot, self._snapshot_request = self._snapshot_request, None
        if not trace:
            return SimResult(self.machine_label, self.config_name,
                             workload, 0, 0)
        original_trace = trace
        if warmup:
            prefix, trace = split_warmup(trace, warmup)
            if resume_from is None:
                self._warm(prefix)
                if self.metrics is not None:
                    # Warm-up must not leak into measured metrics -- the
                    # one reset covers registry metrics AND attached
                    # components.
                    self.metrics.reset()
        if resume_from is None:
            cycle = 0
            self.committed = 0
            self.skipped_cycles = 0
            self.watchdog.reset()
            self._recent_commits.clear()
            self._start(trace)
        else:
            cycle = self._install_checkpoint(resume_from, trace,
                                             original_trace, warmup)
        if snapshot is not None:
            ckpt = self._arm_snapshot(snapshot, len(trace), warmup)
        else:
            ckpt = Checkpointer.maybe(self, self.machine_label, workload,
                                      original_trace, warmup,
                                      start=self.committed)
        try:
            cycle = self._run_loop(cycle, len(trace), ckpt)
            self._finish(cycle, len(trace))
            if self.metrics is not None:
                self._fill_metrics(cycle)
            return self._result(workload, cycle)
        except SimulationError as error:
            if ckpt is not None:
                ckpt.anchor(error)
            raise

    def _run_loop(self, cycle: int, total: int,
                  ckpt: Optional[Checkpointer]) -> int:
        """Simulate until *total* instructions committed; the end cycle."""
        step = self._make_step()
        next_event = self._next_event
        charge_idle = self._charge_idle
        watchdog = self.watchdog
        skip = self.skip_ahead
        max_cycles = self.max_cycles
        while True:
            committed = self.committed
            if committed >= total:
                return cycle
            if ckpt is not None and ckpt.due(committed):
                ckpt.take(cycle, committed,
                          lambda c=cycle: self._checkpoint_payload(c))
            if cycle > max_cycles:
                raise self._stop(
                    SimulationLimit, cycle, total,
                    f"max_cycles {max_cycles} exceeded",
                    f"exceeded {max_cycles} cycles", self._limit_context())
            if watchdog.expired(cycle, committed):
                stalled = watchdog.stalled_for(cycle)
                busy = self._busy()
                raise self._stop(
                    SimulationHang, cycle, total,
                    f"no commit for {stalled} cycles",
                    f"no commit for {stalled} cycles at cycle {cycle}",
                    f" ({'work in flight' if busy else 'frontend'})",
                    detail=self.hang_detail if busy else "frontend")
            progress = step(cycle)
            cycle += 1
            if skip and not progress:
                # Stalled everywhere: every cycle until the next
                # scheduled event replays this one exactly, so charge
                # them in bulk and jump the clock (bit-identical to the
                # naive loop by construction -- see _next_event).
                target = next_event(cycle - 1)
                bound = watchdog.next_expiry()
                if bound < target:
                    target = bound
                if max_cycles + 1 < target:
                    target = max_cycles + 1
                if target > cycle:
                    count = target - cycle
                    charge_idle(cycle, count)
                    self.skipped_cycles += count
                    cycle = target

    def _finish(self, cycle: int, total: int) -> None:
        """Drain check: a completed run must leave nothing in flight."""
        try:
            self._drain_check()
        except SimulationError as error:
            error.attach(machine=self.machine_label, cycles=cycle,
                         total=total, partial=self._partial_stats(cycle),
                         snapshot=self.failure_snapshot(cycle))
            raise

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------

    def _stop(self, error_class, cycle: int, total: int, event: str,
              what: str, context: str, **fields) -> SimulationError:
        """The run loop's *error_class* failure at *cycle*: a watchdog
        instant on the tracer, then the error with its payload."""
        if self.tracer is not None:
            self.tracer.instant("watchdog", cycle, detail=event)
        return error_class(
            f"{self.machine_label}: {what} with {self.committed}/{total} "
            f"committed{context}",
            machine=self.machine_label, cycles=cycle,
            instructions=self.committed, total=total,
            partial=self._partial_stats(cycle),
            snapshot=self.failure_snapshot(cycle), **fields)

    def _limit_context(self) -> str:
        """Extra text for the ``max_cycles`` error message."""
        return ""

    def _partial_stats(self, cycles: int) -> dict:
        """Statistics accumulated up to a failure point (not validated --
        the ledger is only complete for fully attributed cycles)."""
        return {
            "cycles": cycles,
            "instructions": self.committed,
            "cpistack": self._cpi_stack(cycles).as_dict(),
            **self._partial_extra(),
        }

    def failure_snapshot(self, cycle: int) -> dict:
        """JSON-able pipeline snapshot for crash forensics."""
        snapshot = {
            "machine": self.machine_label,
            "cycle": cycle,
            **self._snapshot_parts(),
            "last_committed": [uop_brief(u) for u in self._recent_commits],
        }
        if self.tracer is not None:
            snapshot["trace_events"] = self.tracer.tail()
        return snapshot

    def _fill_metrics(self, cycles: int) -> None:
        """Publish the run's statistics into the attached registry."""
        metrics = self.metrics
        committed = self.committed
        metrics.gauge("sim.cycles").set(cycles)
        metrics.gauge("sim.instructions").set(committed)
        metrics.gauge("sim.ipc").set(committed / cycles if cycles else 0.0)
        self._ingest_metrics(metrics)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint_params_key(self) -> str:
        """Configuration identity for checkpoint compatibility checks."""
        return f"{self._config_key()}|state=v{CHECKPOINT_STATE_VERSION}"

    def _checkpoint_payload(self, cycle: int) -> bytes:
        """Pickle the machine's dynamic state in one blob."""
        return self._pickle_state({
            "watchdog": self.watchdog,
            "recent_commits": self._recent_commits,
            "skipped_cycles": self.skipped_cycles,
            "cycle": cycle,
            "committed": self.committed,
        })

    def request_snapshot(self, at: int) -> Snapshot:
        """Have the next run take an in-memory :class:`Snapshot` once
        *at* instructions have committed; it is filled in by that run."""
        self._snapshot_request = Snapshot(at, self.machine_label,
                                          self.checkpoint_params_key())
        return self._snapshot_request

    def snapshot_point(self, length: int) -> int:
        """The last commit count at which a run over *length* measured
        records can be snapshotted to resume over a longer trace.

        Until then the front end cannot have reached the trace's end, so
        the run has behaved exactly as it would on any trace extending
        this one: by the first loop top with ``committed >= at`` it has
        read fewer than ``at + _lookahead()`` records (see the machines'
        ``_lookahead``).  Not positive when the trace is too short for
        any snapshot.
        """
        return length - self._lookahead()

    def _arm_snapshot(self, snapshot: Snapshot, length: int,
                      warmup: int) -> Snapshot:
        limit = self.snapshot_point(length)
        if snapshot.at > limit:
            raise ValueError(
                f"{self.machine_label}: a snapshot at {snapshot.at} commits "
                f"is past the safe point {limit} of a {length}-record trace")
        snapshot.warmup = warmup
        snapshot._end = length
        snapshot._position = self._fetch_position
        return snapshot

    def _install_checkpoint(self, checkpoint, measured_trace,
                            original_trace, warmup: int) -> int:
        """Adopt a checkpoint's state; returns the resume cycle.

        Validates that the checkpoint (or :class:`Snapshot`) belongs to
        this machine, trace, and configuration before touching anything.
        """
        if isinstance(checkpoint, Snapshot):
            checkpoint.validate_for(self.machine_label, warmup,
                                    self.checkpoint_params_key())
        else:
            checkpoint.validate_for(
                self.machine_label, trace_fingerprint(original_trace),
                warmup, self.checkpoint_params_key())
        state = loads_state(checkpoint.payload)
        try:
            self.watchdog = state["watchdog"]
            self._recent_commits = state["recent_commits"]
            self.skipped_cycles = state["skipped_cycles"]
            self.committed = state["committed"]
            cycle = state["cycle"]
            self._adopt_state(state, measured_trace)
        except KeyError as exc:
            raise CheckpointCorruption(
                f"checkpoint state is missing {exc}") from exc
        return cycle
