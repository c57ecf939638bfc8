"""Adaptive Fg-STP: engage partitioned mode only when it pays.

The paper's scheme *reconfigures* two cores at coarse boundaries — the
second core is borrowed for single-thread execution only while that
helps.  This module models the mode decision: a short sampling window is
simulated in both modes (single core vs. Fg-STP pair) and the faster
mode runs the remainder of the region.

Sampling cost is charged explicitly: the sampled instructions execute
once in the chosen mode's timing (the losing mode's sample run is the
hardware's performance-counter experiment, modelled as overlapped with
execution, plus a fixed reconfiguration penalty per switch).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ckpt.manager import Checkpointer
from ..ckpt.state import (CheckpointCorruption, MachineCheckpoint,
                          dumps_state, loads_state, trace_fingerprint)
from ..integrity.errors import SimulationError
from ..stats.cpistack import CPIStack, cpistack_of, maybe_validate
from ..stats.result import SimResult
from ..trace.record import TraceRecord
from ..uarch.params import CoreParams
from ..uarch.pipeline.kernel import Snapshot
from ..uarch.pipeline.machine import SingleCoreMachine
from ..uarch.warmup import check_warmup, reseq
from .orchestrator import FgStpMachine
from .params import FgStpParams


class _OffsetUop:
    """Read-only uop view whose ``seq`` is shifted into the global
    measured stream.

    Region machines run re-sequenced slices (each region's measured
    suffix restarts at seq 0), so a commit hook attached to the adaptive
    machine would otherwise see the same seq repeatedly.  This proxy
    presents ``local seq + region offset`` while forwarding every other
    attribute to the real uop.
    """

    __slots__ = ("_uop", "seq")

    def __init__(self, uop, seq: int):
        self._uop = uop
        self.seq = seq

    def __getattr__(self, name):
        return getattr(self._uop, name)

    def __repr__(self) -> str:
        return f"<OffsetUop seq={self.seq} of {self._uop!r}>"


class _Recorder:
    """Stands in for the commit hook and tracer of one sample run.

    Attached only when the winner can replay it: it keeps the calls the
    run makes until its snapshot is taken, or all of them when the
    sample is the whole region (``snapshot`` stays ``None``).  The
    winner replays them into the real observers and resumes after them,
    so the observers see exactly what a from-scratch run of the region
    would show them.  The calls are
    kept in flat lists, hook calls apart from tracer calls (each
    observer still sees its own calls in order): a tuple per call would
    be garbage the collector has to scan for the rest of the region.
    """

    def __init__(self):
        self.hooked: list = []   # uop, cycle, uop, cycle, ...
        self.traced: list = []   # method name, then its two arguments
        self.snapshot: Optional[Snapshot] = None

    def _open(self) -> bool:
        snapshot = self.snapshot
        return snapshot is None or snapshot.payload is None

    def hook(self, uop, cycle: int) -> None:
        if self._open():
            self.hooked += (uop, cycle)

    def commit(self, uop, cycle: int) -> None:
        if self._open():
            self.traced += ("commit", uop, cycle)

    def commits(self, uops, cycle: int) -> None:
        if self._open():
            self.traced += ("commits", list(uops), cycle)

    def instant(self, *args, **kwargs) -> None:
        if self._open():
            self.traced += ("instant", args, kwargs)

    def tail(self, count: int = 32) -> list:
        return []

    def replay(self, hook, tracer) -> None:
        hooked = self.hooked
        for index in range(0, len(hooked), 2):
            hook(hooked[index], hooked[index + 1])
        traced = self.traced
        for index in range(0, len(traced), 3):
            name, first, second = traced[index:index + 3]
            if name == "instant":
                tracer.instant(*first, **second)
            else:
                getattr(tracer, name)(first, second)


class AdaptiveFgStpMachine:
    """Fg-STP with coarse-grain engage/disengage decisions.

    Args:
        base: Per-core configuration.
        fgstp: Fg-STP mechanism parameters.
        sample_instructions: Length of the decision sample at the start
            of each region.
        region_instructions: Re-evaluation granularity (a mode decision
            holds for one region).
        reconfigure_penalty: Cycles charged at every mode switch (cache
            quiescing, fetch redirect to the partition unit).
        watchdog_window: Forward-progress hang window forwarded to every
            region machine (``None`` = environment default).
        commit_hook: Optional observer called as ``hook(uop, cycle)``
            once per architecturally retired measured instruction, with
            ``uop.seq`` global across regions (0-based over the whole
            measured stream).  Only the chosen mode's run of the region
            is observed — the losing probe models performance counters
            and retires nothing architecturally.  Cycles restart at every
            region boundary; when the hook object exposes
            ``new_epoch()`` it is invoked at each boundary so stream
            checkers can reset per-region clock expectations.
        tracer: Optional :class:`~repro.obs.tracer.PipelineTracer`.
            Sees each region's *winning* run (the losing probe stays
            invisible, like the commit hook) with epoch
            offsets shifting region-local cycles/seqs into the global
            timeline; mode switches appear as ``reconfig`` instants
            spanning the reconfiguration penalty.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            filled with region/switch statistics at the end of the run
            (not forwarded to region machines — their per-region
            warm-up resets would wipe earlier regions' metrics).
    """

    def __init__(self, base: CoreParams,
                 fgstp: Optional[FgStpParams] = None,
                 sample_instructions: int = 4000,
                 region_instructions: int = 20000,
                 reconfigure_penalty: int = 200,
                 watchdog_window: Optional[int] = None,
                 skip_ahead: Optional[bool] = None,
                 commit_hook=None, tracer=None, metrics=None,
                 checkpoint_interval: Optional[int] = None,
                 checkpoint_sink=None):
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_sink = checkpoint_sink
        self.commit_hook = commit_hook
        self.tracer = tracer
        self.metrics = metrics
        if sample_instructions <= 0:
            raise ValueError("sample_instructions must be positive")
        if region_instructions < sample_instructions:
            raise ValueError(
                "region_instructions must be >= sample_instructions")
        self.base = base
        self.fgstp = fgstp or FgStpParams()
        self.sample_instructions = sample_instructions
        self.region_instructions = region_instructions
        self.reconfigure_penalty = reconfigure_penalty
        self.watchdog_window = watchdog_window
        #: Records each mode's front end may read past its commit count
        #: (``MachineKernel.snapshot_point``), known before a sample
        #: machine is built.
        self._lookahead = {
            "single": SingleCoreMachine.lookahead(base),
            "fgstp": FgStpMachine.lookahead(base, self.fgstp),
        }
        #: Forwarded to every region machine (sample and full runs);
        #: ``None`` lets each follow the REPRO_SKIP_AHEAD environment.
        self.skip_ahead = skip_ahead

    def run(self, trace: Sequence[TraceRecord], workload: str = "trace",
            warmup: int = 0,
            resume_from: Optional[MachineCheckpoint] = None) -> SimResult:
        """Simulate *trace*, choosing the better mode per region.

        Checkpoints are taken at *region boundaries* (regions run on
        fresh sub-machines, so between regions the only live state is
        the accumulator set) and ``resume_from`` restarts the region
        loop there — bit-identical to a straight-through run because
        :meth:`_regions` is deterministic.

        Raises:
            ValueError: when *warmup* leaves no instructions to measure,
                as for the other machines.
        """
        if trace:
            check_warmup(len(trace), warmup)
        # The run-level warm-up is folded into the first region's.
        regions = self._regions(trace, warmup)
        total_cycles = 0
        total_instructions = 0
        switches = 0
        modes = []
        stacks = []
        previous_mode = None
        measured_offset = 0
        first_region = 0
        if resume_from is not None:
            state = self._install_checkpoint(resume_from, trace, warmup)
            first_region = state["region_index"]
            total_cycles = state["total_cycles"]
            total_instructions = state["total_instructions"]
            switches = state["switches"]
            modes = state["modes"]
            stacks = state["stacks"]
            previous_mode = state["previous_mode"]
            measured_offset = state["measured_offset"]
        ckpt = Checkpointer.maybe(self, "fgstp-adaptive", workload, trace,
                                  warmup, start=total_instructions)
        try:
            for index in range(first_region, len(regions)):
                if ckpt is not None and ckpt.due(total_instructions):
                    ckpt.take(total_cycles, total_instructions,
                              lambda s={
                                  "region_index": index,
                                  "total_cycles": total_cycles,
                                  "total_instructions": total_instructions,
                                  "switches": switches,
                                  "modes": list(modes),
                                  "stacks": list(stacks),
                                  "previous_mode": previous_mode,
                                  "measured_offset": measured_offset,
                              }: dumps_state(s))
                region_trace, region_warmup = regions[index]
                mode, region_result = self._run_region(
                    region_trace, region_warmup, workload, measured_offset,
                    cycle_offset=total_cycles, previous_mode=previous_mode)
                measured_offset += len(region_trace) - region_warmup
                cycles = region_result.cycles
                stack = cpistack_of(region_result)
                if previous_mode is not None and mode != previous_mode:
                    switches += 1
                    cycles += self.reconfigure_penalty
                    if stack is not None:
                        stack = stack.with_overhead(
                            "reconfig", self.reconfigure_penalty)
                if stack is not None:
                    stacks.append(stack)
                previous_mode = mode
                modes.append(mode)
                total_cycles += cycles
                total_instructions += len(region_trace) - region_warmup
        except SimulationError as error:
            if ckpt is not None:
                ckpt.anchor(error)
            raise
        extra = {
            "modes": modes,
            "switches": switches,
            "fgstp_regions": modes.count("fgstp"),
            "single_regions": modes.count("single"),
        }
        if stacks:
            extra["cpistack"] = maybe_validate(
                CPIStack.concat(stacks, machine="fgstp-adaptive")).as_dict()
        if self.metrics is not None:
            metrics = self.metrics
            metrics.gauge("sim.cycles").set(total_cycles)
            metrics.gauge("sim.instructions").set(total_instructions)
            metrics.gauge("sim.ipc").set(
                total_instructions / total_cycles if total_cycles else 0.0)
            metrics.counter("adaptive.regions").value = len(modes)
            metrics.counter("adaptive.switches").value = switches
            metrics.counter("adaptive.fgstp_regions").value = \
                modes.count("fgstp")
            metrics.counter("adaptive.single_regions").value = \
                modes.count("single")
            metrics.counter("adaptive.reconfig_cycles").value = \
                switches * self.reconfigure_penalty
        return SimResult(
            machine="fgstp-adaptive",
            config=self.base.name,
            workload=workload,
            cycles=total_cycles,
            instructions=total_instructions,
            extra=extra,
        )

    def checkpoint_params_key(self) -> str:
        """Configuration identity for checkpoint compatibility checks."""
        return (f"{self.base!r}|{self.fgstp!r}"
                f"|sample={self.sample_instructions}"
                f"|region={self.region_instructions}"
                f"|reconfig={self.reconfigure_penalty}")

    def _install_checkpoint(self, checkpoint: MachineCheckpoint,
                            trace, warmup: int) -> dict:
        """Validate and unpack a region-boundary accumulator snapshot."""
        checkpoint.validate_for(
            "fgstp-adaptive", trace_fingerprint(trace), warmup,
            self.checkpoint_params_key())
        state = loads_state(checkpoint.payload)
        missing = [key for key in
                   ("region_index", "total_cycles", "total_instructions",
                    "switches", "modes", "stacks", "previous_mode",
                    "measured_offset") if key not in state]
        if missing:
            raise CheckpointCorruption(
                f"checkpoint state is missing {missing}")
        return state

    def _regions(self, trace: Sequence[TraceRecord], warmup: int):
        """Split the trace into regions, each carrying its warmup prefix.

        The first region absorbs the run-level warmup; later regions use
        the preceding region's tail as their (shorter) warm-up so caches
        and predictors stay trained across boundaries.
        """
        region = self.region_instructions
        carry = min(4000, region // 4)
        regions = []
        start = 0
        first = True
        n = len(trace)
        while start < n:
            if first:
                # run() has checked that the warm-up leaves instructions
                # to measure.
                end = min(n, warmup + region)
                head = trace[:end]
                if not _dense(head):
                    head = reseq(head)
                regions.append((head, warmup))
                start = end
                first = False
            else:
                lead = max(0, start - carry)
                end = min(n, start + region)
                region_warmup = start - lead
                if end - lead <= region_warmup:
                    break
                regions.append((reseq(trace[lead:end]), region_warmup))
                start = end
        return regions

    def _region_hook(self, offset: int):
        """Shim translating a region machine's local commit stream into
        the global one: shifts seq by *offset* and announces the region
        boundary (cycles restart) to epoch-aware hooks."""
        user_hook = self.commit_hook
        if user_hook is None:
            return None
        new_epoch = getattr(user_hook, "new_epoch", None)
        if new_epoch is not None:
            new_epoch()

        def shim(uop, cycle: int) -> None:
            user_hook(_OffsetUop(uop, uop.seq + offset), cycle)

        return shim

    def _run_region(self, region_trace, region_warmup, workload,
                    offset: int = 0, cycle_offset: int = 0,
                    previous_mode: Optional[str] = None):
        """Sample the region's head in both modes; run it in the faster.

        The winning mode's sample run is the head of its region run: it
        snapshots itself at the last safe commit count, and the winner
        resumes from that snapshot over the whole region (or simply is
        the region run when the sample covers the region).  Observers
        see only the winner; what its sample showed them up to the
        snapshot is recorded and replayed.
        """
        sample_end = min(len(region_trace),
                         region_warmup + self.sample_instructions)
        whole = sample_end == len(region_trace)
        # Regions are dense from seq 0, so a prefix slice is a valid trace.
        sample = region_trace if whole else region_trace[:sample_end]
        observed = self.commit_hook is not None or self.tracer is not None
        runs = {}
        for mode in ("single", "fgstp"):
            # The machine's snapshot_point, worked out before it is built
            # so that observers are recorded only when they can be
            # replayed.
            at = sample_end - region_warmup - self._lookahead[mode]
            resumable = not whole and at > 0
            recorder = (_Recorder() if observed and (whole or resumable)
                        else None)
            machine = self._machine(
                mode,
                commit_hook=(recorder.hook if recorder is not None
                             and self.commit_hook is not None else None),
                tracer=(recorder if recorder is not None
                        and self.tracer is not None else None))
            snapshot = machine.request_snapshot(at) if resumable else None
            if recorder is not None:
                recorder.snapshot = snapshot
            result = machine.run(sample, workload=workload,
                                 warmup=region_warmup)
            runs[mode] = result, snapshot, recorder
        mode = ("fgstp" if runs["fgstp"][0].cycles <= runs["single"][0].cycles
                else "single")
        result, snapshot, recorder = runs[mode]
        hook = self._region_hook(offset)
        tracer = self.tracer
        if tracer is not None:
            if previous_mode is not None and mode != previous_mode:
                # The switch penalty occupies the global timeline before
                # the region's first cycle (matching run()'s accounting
                # of cycles += reconfigure_penalty for this region).
                tracer.instant("reconfig", cycle_offset,
                               detail=f"{previous_mode}->{mode}",
                               dur=self.reconfigure_penalty)
                cycle_offset += self.reconfigure_penalty
            tracer.begin_epoch(cycle_offset, offset)
        if recorder is not None:
            recorder.replay(hook, tracer)
        if whole:
            return mode, result
        return mode, self._machine(mode, commit_hook=hook,
                                   tracer=tracer).run(
            region_trace, workload=workload, warmup=region_warmup,
            resume_from=snapshot)

    def _machine(self, mode: str, **observers):
        """A fresh region machine for *mode*.

        Checkpointing is pinned off: the adaptive machine checkpoints at
        region boundaries itself, and env-driven inner checkpoints would
        be both redundant and taken under region-local (re-sequenced)
        traces.
        """
        options = dict(watchdog_window=self.watchdog_window,
                       skip_ahead=self.skip_ahead, checkpoint_interval=0,
                       **observers)
        if mode == "fgstp":
            return FgStpMachine(self.base, self.fgstp, **options)
        return SingleCoreMachine(self.base, **options)


def _dense(trace: Sequence[TraceRecord]) -> bool:
    """True when *trace* is numbered 0, 1, 2, ... already."""
    return all(record.seq == index for index, record in enumerate(trace))


def simulate_fgstp_adaptive(trace: Sequence[TraceRecord], base: CoreParams,
                            fgstp: Optional[FgStpParams] = None,
                            workload: str = "trace",
                            warmup: int = 0) -> SimResult:
    """Convenience wrapper around :class:`AdaptiveFgStpMachine`."""
    return AdaptiveFgStpMachine(base, fgstp).run(trace, workload=workload,
                                                 warmup=warmup)
