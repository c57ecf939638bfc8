"""Single-core machine: one self-fetching out-of-order core.

This is both the paper's single-core baseline and the machine Core
Fusion subclasses (a fused machine is a single *wider* clustered core
from the timing model's perspective).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ...ckpt.state import MachineCheckpoint, dumps_state
from ...stats.cpistack import CPIStack, maybe_validate
from ...stats.result import SimResult
from ...trace.record import TraceRecord
from ..branch.btb import FrontEndPredictor
from ..cache.hierarchy import CacheHierarchy
from ..params import CoreParams
from ..warmup import warm_state
from .core import CycleCore, fetch_buffer_capacity
from .fetch import SelfFetchUnit
from .kernel import MachineKernel, Snapshot


class SingleCoreMachine(MachineKernel):
    """One out-of-order core running one trace to completion.

    Args:
        params: Core configuration.
        num_clusters / cross_cluster_latency / cluster_issue_width:
            Clustering knobs forwarded to :class:`CycleCore` (used by the
            Core Fusion machine; leave at defaults for a plain core).
        machine_label: Name recorded in the :class:`SimResult`.
        **run_options: ``max_cycles``, ``watchdog_window``,
            ``skip_ahead``, ``commit_hook``, ``tracer``, ``metrics``,
            ``checkpoint_interval`` and ``checkpoint_sink``; see
            :class:`~repro.uarch.pipeline.kernel.MachineKernel`.
    """

    def __init__(self, params: CoreParams,
                 num_clusters: int = 1,
                 cross_cluster_latency: int = 0,
                 cluster_issue_width: Optional[int] = None,
                 machine_label: str = "single",
                 **run_options):
        super().__init__(machine_label, params.name, **run_options)
        self.params = params
        self._cluster_key = (num_clusters, cross_cluster_latency,
                             cluster_issue_width)
        self.hierarchy = CacheHierarchy(params)
        if self.metrics is not None:
            self.metrics.attach(self.hierarchy)
        self.core = CycleCore(
            params, self.hierarchy, name=machine_label,
            num_clusters=num_clusters,
            cross_cluster_latency=cross_cluster_latency,
            cluster_issue_width=cluster_issue_width)
        self.predictor = FrontEndPredictor(params.branch)
        self._fetch: Optional[SelfFetchUnit] = None

    def run(self, trace: Sequence[TraceRecord], workload: str = "trace",
            warmup: int = 0,
            resume_from: Union[MachineCheckpoint, Snapshot, None] = None,
            ) -> SimResult:
        """Simulate *trace* on the core (see :meth:`MachineKernel.run`)."""
        return super().run(trace, workload, warmup, resume_from)

    # ------------------------------------------------------------------
    # Cycle policy
    # ------------------------------------------------------------------

    def _start(self, trace: Sequence[TraceRecord]) -> None:
        self._fetch = SelfFetchUnit(self.core, trace, self.predictor,
                                    line_bytes=self.params.l1i.line_bytes)

    def _warm(self, prefix: Sequence[TraceRecord]) -> None:
        warm_state(prefix, self.hierarchy, self.predictor,
                   line_bytes=self.params.l1i.line_bytes)

    def _make_step(self):
        core = self.core
        fetch = self._fetch
        commit = core.phase_commit
        complete = core.phase_complete
        issue = core.phase_issue
        dispatch = core.phase_dispatch
        fetch_phase = fetch.phase_fetch
        stall_cause = fetch.stall_cause
        attribute = core.attribute_cycle
        remember = self._recent_commits.extend
        hook = self.commit_hook
        tracer = self.tracer

        def step(cycle: int) -> bool:
            retired_uops = commit(cycle)
            retired = len(retired_uops)
            if retired:
                self.committed += retired
                remember(retired_uops)
                if hook is not None:
                    for uop in retired_uops:
                        hook(uop, cycle)
                if tracer is not None:
                    tracer.commits(retired_uops, cycle)
            completed = complete(cycle)
            issued = issue(cycle)
            dispatched = dispatch(cycle)
            fetched = fetch_phase(cycle)
            attribute(cycle, retired, frontend_cause=stall_cause(cycle))
            return retired or completed or issued or dispatched or fetched

        return step

    def _next_event(self, now: int) -> int:
        target = self.core.next_event(now)
        bound = self._fetch.next_event(now)
        return bound if bound < target else target

    def _charge_idle(self, first: int, count: int) -> None:
        fetch = self._fetch
        self.core.charge_idle_cycles(first, count,
                                     frontend_cause=fetch.stall_cause(first))
        fetch.charge_idle_cycles(count)

    def _fetch_position(self) -> int:
        return self._fetch._cursor

    def _lookahead(self) -> int:
        return self.lookahead(self.params)

    @staticmethod
    def lookahead(params: CoreParams) -> int:
        """The ``_lookahead`` of a machine on *params*: fetched but
        uncommitted uops sit in the ROB or the fetch buffer, and one
        cycle commits at most ``commit_width``."""
        return (params.rob_entries + fetch_buffer_capacity(params)
                + params.commit_width)

    def _busy(self) -> bool:
        return self.core.busy()

    def _drain_check(self) -> None:
        self.core.drain_check()

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def _config_key(self) -> str:
        clusters, latency, width = self._cluster_key
        return (f"{self.params!r}|clusters={clusters}"
                f"|xlat={latency}|cwidth={width}")

    def _pickle_state(self, state: dict) -> bytes:
        """The trace itself is detached first -- it is reproducible from
        the workload/seed, dominates the snapshot size, and its
        fingerprint already rides in the checkpoint metadata."""
        fetch = self._fetch
        saved_trace = fetch.trace
        fetch.trace = ()
        try:
            state.update(hierarchy=self.hierarchy, core=self.core,
                         predictor=self.predictor, fetch=fetch)
            return dumps_state(state)
        finally:
            fetch.trace = saved_trace

    def _adopt_state(self, state: dict, measured_trace) -> None:
        self.hierarchy = state["hierarchy"]
        self.core = state["core"]
        self.predictor = state["predictor"]
        self._fetch = state["fetch"]
        self._fetch.trace = measured_trace
        if self.metrics is not None:
            self.metrics.attach(self.hierarchy)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _cpi_stack(self, cycles: int) -> CPIStack:
        return CPIStack(machine=self.machine_label, cycles=cycles,
                        instructions=self.committed,
                        width=self.params.commit_width,
                        slots=dict(self.core.stats.commit_slots))

    def _partial_extra(self) -> dict:
        return {"core": self.core.stats.as_dict()}

    def _snapshot_parts(self) -> dict:
        fetch = self._fetch
        return {"core": self.core.snapshot(),
                "fetch": fetch.snapshot() if fetch is not None else None}

    def _fetch_stats(self) -> dict:
        return {"fetched": self._fetch.fetched,
                "mispredict_stall_cycles": self._fetch.mispredict_stalls}

    def _ingest_metrics(self, metrics) -> None:
        metrics.ingest("core", self.core.stats.as_dict())
        metrics.ingest("caches", self.hierarchy.stats())
        metrics.ingest("branch", self.predictor.stats())
        metrics.ingest("fetch", self._fetch_stats())

    def _result(self, workload: str, cycles: int) -> SimResult:
        stack = maybe_validate(self._cpi_stack(cycles))
        return SimResult(
            machine=self.machine_label,
            config=self.config_name,
            workload=workload,
            cycles=cycles,
            instructions=self.committed,
            extra={
                "core": self.core.stats.as_dict(),
                "branch": self.predictor.stats(),
                "caches": self.hierarchy.stats(),
                "fetch": self._fetch_stats(),
                "cpistack": stack.as_dict(),
            },
        )


def simulate_single_core(trace: Sequence[TraceRecord], params: CoreParams,
                         workload: str = "trace",
                         warmup: int = 0) -> SimResult:
    """Convenience wrapper: build a fresh machine and run *trace*."""
    return SingleCoreMachine(params).run(trace, workload=workload,
                                         warmup=warmup)
