"""The Fg-STP machine: two cores collaborating on one thread.

This module glues every Fg-STP mechanism together:

* a **global front end** (one branch predictor + core 0's L1I, fetching
  at the two cores' combined width) fills the partition unit's batch
  buffer, bounded by the lookahead *window*;
* the **partition unit** (:class:`repro.fgstp.partitioner.Partitioner`)
  assigns each fetched instruction to core 0 / core 1, replicating cheap
  instructions needed on both;
* **value queues** (:class:`repro.fgstp.comm.InterCoreQueue`) carry
  cross-core register values, with latency and bandwidth;
* **memory-dependence speculation** lets loads issue before cross-core
  stores they (probably) do not depend on; violations squash both cores
  from the offending load and train the predictor
  (:class:`repro.fgstp.specdep.DependencePredictor`);
* a **global in-order commit gate** retires the single thread's
  instructions in sequence-number order across both cores (replicated
  pairs retire as one architectural instruction).

Modelling notes (documented simplifications, consistent with the
paper-family methodology):

* Committed values are architecturally visible on both cores (the merged
  commit stage broadcasts state); only in-flight values use the queues.
* A speculated load whose conflicting store completes *before* the load
  issues pays the queue latency as a forwarding delay instead of
  squashing.
* Cross-core WAR/WAW memory orderings never stall: stores write the
  cache at commit, which the global gate already serialises.
* Instruction fetch is charged to core 0's L1I (the cores collaborate on
  fetch; modelling both L1Is adds capacity the fused baseline also gets
  via its doubled L1I, so the comparison stays fair).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ckpt.state import MachineCheckpoint, dumps_state
from ..isa.opcodes import OpClass
from ..isa.program import INSTRUCTION_BYTES
from ..stats.cpistack import CPIStack, maybe_validate
from ..stats.result import SimResult
from ..trace.record import TraceRecord
from ..uarch.branch.btb import FrontEndPredictor
from ..uarch.cache.hierarchy import CacheHierarchy, make_shared_l2
from ..uarch.params import CoreParams
from ..uarch.pipeline.core import CycleCore
from ..uarch.pipeline.kernel import (  # noqa: F401 (re-exported)
    CHECKPOINT_STATE_VERSION, MachineKernel, Snapshot)
from ..uarch.pipeline.uop import (
    COMMITTED,
    COMPLETED,
    DISPATCHED,
    FETCHED,
    ISSUED,
    SQUASHED,
    Uop,
    ValueTag,
)
from ..uarch.warmup import warm_state
from .comm import InterCoreQueue
from .params import FgStpParams
from .partitioner import Assignment, Partitioner
from .specdep import DependencePredictor

#: The state a checkpoint captures besides the kernel's own: the
#: stateful components, then the dynamic (per-run) scalars and
#: containers.  A change here changes the pickled layout: bump
#: ``CHECKPOINT_STATE_VERSION``.
_FGSTP_STATE = (
    "hierarchies", "cores", "predictor", "partitioner", "dep_predictor",
    "queues", "_fetch_cursor", "_next_uid", "_batch", "_feed",
    "_live", "_copies", "_comm_tags", "_send_map", "_watch",
    "_last_store", "_stall_seq", "_fetch_resume_at", "_icache_line",
    "_icache_ready", "_pending_violations", "_violation_store_pc",
    "_last_retire_prune", "squashes", "squashed_uops",
    "mispredict_stall_cycles", "window_stall_cycles",
)

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_JUMP = OpClass.JUMP


class FgStpMachine(MachineKernel):
    """Two *base* cores reconfigured for Fg-STP execution.

    Args:
        base: Configuration of each constituent core (identical to the
            single-core baseline and to each half of Core Fusion).
        fgstp: Mechanism parameters (window, queues, speculation, ...).
        policy: Partition policy name (default ``chain``; see
            :mod:`repro.fgstp.policies`).
        **run_options: ``max_cycles``, ``watchdog_window``,
            ``skip_ahead``, ``commit_hook``, ``tracer``, ``metrics``,
            ``checkpoint_interval`` and ``checkpoint_sink``; see
            :class:`~repro.uarch.pipeline.kernel.MachineKernel`.  Here
            the commit hook fires once per *architectural* retirement,
            in global sequence order -- for a replicated instruction
            when the last replica clears the commit gate.  The tracer
            records every retired uop (replicas included, each tagged
            with its core), squash/steal/watchdog instants, and -- via
            the value queues -- inter-core send/recv events.  Both cache
            hierarchies register into the metrics registry.
    """

    hang_detail = "intercore"

    def __init__(self, base: CoreParams,
                 fgstp: Optional[FgStpParams] = None,
                 policy: Optional[str] = None,
                 **run_options):
        super().__init__("fgstp", base.name, **run_options)
        self.base = base
        self.fgstp = fgstp or FgStpParams()
        self.policy_name = policy or "chain"

        shared_l2 = make_shared_l2(base)
        self.hierarchies = (CacheHierarchy(base, shared_l2),
                            CacheHierarchy(base, shared_l2))
        self.cores = (
            CycleCore(base, self.hierarchies[0], name="fgstp-core0"),
            CycleCore(base, self.hierarchies[1], name="fgstp-core1"),
        )
        self.predictor = FrontEndPredictor(base.branch)
        self.partitioner = Partitioner(self.fgstp)
        self.dep_predictor = DependencePredictor()
        self.queues = (
            InterCoreQueue(self.fgstp.queue_latency,
                           self.fgstp.queue_bandwidth, name="q0to1"),
            InterCoreQueue(self.fgstp.queue_latency,
                           self.fgstp.queue_bandwidth, name="q1to0"),
        )
        self._attach()

        # Dynamic state (reset per run).
        self._trace: Sequence[TraceRecord] = ()
        self._fetch_cursor = 0
        self._next_uid = 0
        self._batch: List[TraceRecord] = []
        self._feed: Tuple[deque, deque] = (deque(), deque())
        self._live: Dict[int, List[Uop]] = {}
        self._copies: Dict[int, int] = {}
        self._comm_tags: Dict[Tuple[int, int], ValueTag] = {}
        self._send_map: Dict[int, List[ValueTag]] = {}
        self._watch: Dict[int, List[Uop]] = {}
        self._last_store: List[Optional[Uop]] = [None, None]
        self._stall_seq: Optional[int] = None
        self._fetch_resume_at = 0
        self._icache_line = -1
        self._icache_ready = 0
        self._pending_violations: List[Uop] = []
        self._violation_store_pc: Dict[int, int] = {}
        self._last_retire_prune = 0
        # Counters.
        self.squashes = 0
        self.squashed_uops = 0
        self.mispredict_stall_cycles = 0
        self.window_stall_cycles = 0

    # ------------------------------------------------------------------
    # Cycle policy
    # ------------------------------------------------------------------

    def run(self, trace: Sequence[TraceRecord], workload: str = "trace",
            warmup: int = 0,
            resume_from: Union[MachineCheckpoint, Snapshot, None] = None,
            ) -> SimResult:
        """Simulate *trace* on the Fg-STP pair (see
        :meth:`MachineKernel.run`).  A machine runs once: ``_start``
        resets neither the cores nor the partitioner."""
        try:
            return super().run(trace, workload, warmup, resume_from)
        finally:
            # The cores' callbacks are bound methods of this machine;
            # dropping them leaves the finished machine acyclic, so
            # reference counting frees it (trace, caches, predictor) as
            # soon as the caller lets go, not at a full collection.
            for core in self.cores:
                core.on_complete = None
                core.on_commit = None
            self._drop_committed_tags()

    def _start(self, trace: Sequence[TraceRecord]) -> None:
        self._trace = trace

    def _warm(self, prefix: Sequence[TraceRecord]) -> None:
        warm_state(prefix, self.hierarchies[0], self.predictor,
                   line_bytes=self.base.l1i.line_bytes)
        warm_state(prefix, self.hierarchies[1], None,
                   line_bytes=self.base.l1i.line_bytes)

    def _make_step(self):
        return self._cycle

    def _fetch_position(self) -> int:
        return self._fetch_cursor

    def _lookahead(self) -> int:
        return self.lookahead(self.base, self.fgstp)

    @staticmethod
    def lookahead(base: CoreParams, fgstp: FgStpParams) -> int:
        """The ``_lookahead`` of a machine on *base* and *fgstp*: global
        fetch stops at ``committed + window_size``, and one cycle commits
        at most ``commit_width`` on each core."""
        return fgstp.window_size + 2 * base.commit_width

    def _busy(self) -> bool:
        return any(core.busy() for core in self.cores)

    def _limit_context(self) -> str:
        return (f" (heads: {self.cores[0].rob_head!r}, "
                f"{self.cores[1].rob_head!r})")

    def _drain_check(self) -> None:
        for core in self.cores:
            core.drain_check()

    def _cycle(self, now: int) -> bool:
        """Simulate one cycle; True when anything made progress.

        A False return means the whole machine replayed an idle cycle
        (no delivery, commit, completion, issue, dispatch, feed push or
        front-end activity) — the precondition for the skip-ahead fast
        path of the kernel's run loop.
        """
        cores = self.cores
        core0, core1 = cores
        # 1. Queue deliveries wake consumers on the destination core.
        #    Progress is detected via the delivery counters: an entry
        #    can be delivered without waking anyone (no consumers yet),
        #    and that still changes queue state.
        q0, q1 = self.queues
        delivered = q0.deliveries + q1.deliveries
        for uop in q0.deliver(now):
            cores[uop.core_id].wake(uop)
        for uop in q1.deliver(now):
            cores[uop.core_id].wake(uop)
        delivered = q0.deliveries + q1.deliveries - delivered
        # 2. Global in-order commit (multi-pass so replicas and the
        #    cross-core retirement order resolve within one cycle).
        width = self.base.commit_width
        remaining = [width, width]
        gate = self._commit_gate
        progress = True
        while progress and (remaining[0] > 0 or remaining[1] > 0):
            progress = False
            for index, core in enumerate(cores):
                if remaining[index] <= 0:
                    continue
                committed = core.phase_commit(now, gate,
                                              budget=remaining[index])
                if committed:
                    remaining[index] -= len(committed)
                    progress = True
        retired = 2 * width - remaining[0] - remaining[1]
        # 3. Execution completion (fires sends and violation watches).
        completed = len(core0.phase_complete(now))
        completed += len(core1.phase_complete(now))
        if self._pending_violations:
            self._process_violations(now)
        # 4. Issue.
        issued = core0.phase_issue(now) + core1.phase_issue(now)
        # 5. Dispatch.
        dispatched = core0.phase_dispatch(now) + core1.phase_dispatch(now)
        # 6. Feed partitioned uops into the cores' fetch buffers.
        fed = self._feed_cores(now)
        # 7. Global fetch + partition.
        fetched = self._global_fetch(now)
        # 8. Cycle accounting: every commit slot of both cores is
        #    charged to exactly one cause this cycle.
        cause = self._frontend_cause(now)
        core0.attribute_cycle(now, width - remaining[0],
                              frontend_cause=cause)
        core1.attribute_cycle(now, width - remaining[1],
                              frontend_cause=cause)
        self._maybe_prune()
        return bool(delivered or retired or completed or issued
                    or dispatched or fed or fetched)

    def _frontend_cause(self, now: int) -> str:
        """The global front end's stall cause at *now* (CPI accounting).

        Mirrors :meth:`_global_fetch`'s gating order: redirect
        (unresolved mispredict or squash-recovery penalty) dominates,
        then I-cache fill, then the lookahead window limit; trace
        exhaustion is ``drain``; anything else — e.g. partition/feed
        latency while a core starves — is plain ``fetch``.
        """
        if self._stall_seq is not None:
            return "redirect"
        if self._fetch_cursor >= len(self._trace):
            return "drain"
        if now < self._fetch_resume_at:
            return "redirect"
        if now < self._icache_ready:
            return "fetch"
        if self._fetch_cursor - self.committed >= self.fgstp.window_size:
            return "window"
        return "fetch"

    # ------------------------------------------------------------------
    # Idle-cycle skip-ahead
    # ------------------------------------------------------------------

    def _next_event(self, now: int) -> int:
        """Earliest cycle after *now* at which anything can change.

        Computed only after a zero-progress cycle, so every pending
        wake-up is on a scheduled timetable: core completion / ready
        heaps and blame-flip boundaries (:meth:`CycleCore.next_event`),
        queue-head eligibility, feed-head partition latency, the
        redirect resume and I-cache fill cycles (both also
        ``_frontend_cause`` boundaries).  The kernel adds the watchdog
        expiry and the ``max_cycles`` ceiling; chains that bottom out in
        none of these (a genuine deadlock) are bounded by the watchdog,
        which then fires at exactly the same cycle as under the naive
        loop.
        """
        nxt = self.cores[0].next_event(now)
        bound = self.cores[1].next_event(now)
        if bound < nxt:
            nxt = bound
        for queue in self.queues:
            fifo = queue._fifo
            if fifo and fifo[0][0] < nxt:
                nxt = fifo[0][0]
        for feed in self._feed:
            if feed:
                available_at = feed[0][0]
                if now < available_at < nxt:
                    nxt = available_at
        resume = self._fetch_resume_at
        if now < resume < nxt:
            nxt = resume
        fill = self._icache_ready
        if now < fill < nxt:
            nxt = fill
        return nxt

    def _charge_idle(self, first: int, count: int) -> None:
        """Replay *count* skipped cycles from *first* on both cores and
        the front end's stall counters.

        The front end mirrors :meth:`_global_fetch`'s gating order
        exactly; the branch taken is constant across the skipped range
        because every flip boundary is a :meth:`_next_event` bound.
        """
        cause = self._frontend_cause(first)
        for core in self.cores:
            core.charge_idle_cycles(first, count, frontend_cause=cause)
        if self._fetch_cursor >= len(self._trace):
            return
        if self._stall_seq is not None:
            self.mispredict_stall_cycles += count
            return
        if first < self._fetch_resume_at or first < self._icache_ready:
            return
        if self._fetch_cursor - self.committed >= self.fgstp.window_size:
            self.window_stall_cycles += count

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _commit_gate(self, uop: Uop) -> bool:
        return uop.seq == self.committed

    def _on_commit(self, uop: Uop, cycle: int) -> None:
        if self.tracer is not None:
            # Every retired uop (replicas included), so the event stream
            # reconciles with the per-core retire-slot ledger.
            self.tracer.commit(uop, cycle)
        self._recent_commits.append(uop)
        seq = uop.seq
        count = self._copies.get(seq, 1) - 1
        if count <= 0:
            self._copies.pop(seq, None)
            self._live.pop(seq, None)
            self.committed = seq + 1
            if self.commit_hook is not None:
                self.commit_hook(uop, cycle)
        else:
            self._copies[seq] = count

    # ------------------------------------------------------------------
    # Completion callbacks: communication sends, violations, stalls
    # ------------------------------------------------------------------

    def _on_complete(self, uop: Uop, cycle: int) -> None:
        if self._stall_seq is not None and uop.seq == self._stall_seq:
            self._stall_seq = None
            self._fetch_resume_at = max(
                self._fetch_resume_at,
                cycle + self.base.mispredict_penalty)
        tags = self._send_map.pop(uop.uid, None)
        if tags:
            queue = self.queues[uop.core_id]
            for tag in tags:
                if tag.ready_cycle is None:
                    queue.send(tag, cycle)
        if uop.record.op_class is _STORE:
            watchers = self._watch.pop(uop.uid, None)
            if watchers:
                self._check_watchers(uop, watchers, cycle)

    def _check_watchers(self, store: Uop, watchers: List[Uop],
                        cycle: int) -> None:
        forward_at = cycle + self.fgstp.queue_latency
        for load in watchers:
            state = load.state
            if state == SQUASHED:
                continue
            if state in (ISSUED, COMPLETED):
                # The load consumed stale data: dependence violation.
                self._pending_violations.append(load)
                self._violation_store_pc[load.uid] = store.record.pc
            elif state == DISPATCHED:
                # Not issued yet: charge cross-core forwarding delay.
                self.cores[load.core_id].delay_uop(load, forward_at)
            elif state == FETCHED:
                tag = ValueTag(label=f"fwd@{store.seq}")
                tag.ready_cycle = forward_at
                load.extra_deps.append(tag)
            elif state == COMMITTED:  # pragma: no cover - gate forbids it
                raise RuntimeError(
                    f"load {load!r} committed before its producer store "
                    f"{store!r} completed")

    # ------------------------------------------------------------------
    # Violation handling (squash + recovery)
    # ------------------------------------------------------------------

    def _process_violations(self, now: int) -> None:
        if not self._pending_violations:
            return
        victim = min(self._pending_violations, key=lambda u: u.seq)
        self._pending_violations.clear()
        store_pc = self._violation_store_pc.pop(victim.uid, None)
        # The other pending loads are no older than the victim, so they
        # are squashed with it.
        self._violation_store_pc.clear()
        if victim.state in (SQUASHED, COMMITTED):
            return
        squash_seq = victim.seq
        self.dep_predictor.train_violation(victim.record.pc)
        if store_pc is not None:
            # Teach the partitioner to co-locate this pair in future
            # (violations train with extra weight).
            self.partitioner.learn_pair(victim.record.pc, store_pc,
                                        weight=4)
        self.squashes += 1
        squashed = 0
        for core in self.cores:
            squashed += core.squash_from(squash_seq)
        self.squashed_uops += squashed
        if self.tracer is not None:
            self.tracer.instant(
                "squash", now, seq=squash_seq, core=victim.core_id,
                detail=f"{squashed} uops from seq {squash_seq} "
                       f"(memory-dependence violation)")
        self.partitioner.rewind(squash_seq)
        for feed in self._feed:
            while feed and feed[-1][1].seq >= squash_seq:
                feed.pop()
        self._batch = [r for r in self._batch if r.seq < squash_seq]
        self._fetch_cursor = squash_seq
        send_map = self._send_map
        watch = self._watch
        for seq in [s for s in self._live if s >= squash_seq]:
            # A squashed uop never completes, so its pending sends and
            # watchers would never be popped; their consumers are younger
            # and squashed too.
            for uop in self._live.pop(seq):
                send_map.pop(uop.uid, None)
                watch.pop(uop.uid, None)
            self._copies.pop(seq, None)
        for key in [k for k in self._comm_tags if k[0] >= squash_seq]:
            del self._comm_tags[key]
        if self._stall_seq is not None and self._stall_seq >= squash_seq:
            self._stall_seq = None
        self._fetch_resume_at = max(self._fetch_resume_at,
                                    now + self.fgstp.recovery_penalty)
        self._icache_line = -1
        for queue in self.queues:
            queue.drop_squashed()

    # ------------------------------------------------------------------
    # Feeding partitioned uops into the cores
    # ------------------------------------------------------------------

    def _feed_cores(self, now: int) -> int:
        pushed = 0
        for index, core in enumerate(self.cores):
            feed = self._feed[index]
            budget = self.base.fetch_width
            while feed and budget > 0 and core.fetch_space() > 0:
                available_at, uop = feed[0]
                if available_at > now:
                    break
                feed.popleft()
                core.push_fetched(uop, now)
                budget -= 1
                pushed += 1
        return pushed

    # ------------------------------------------------------------------
    # Global fetch + partitioning
    # ------------------------------------------------------------------

    def _global_fetch(self, now: int) -> bool:
        """Fetch/partition at *now*; True when the front end did work.

        A False return is a pure stall replay (mispredict redirect,
        redirect/I-cache wait, or a full lookahead window) whose only
        side effect is the matching stall counter — exactly what
        :meth:`_charge_idle` bulk-replays for skipped cycles.
        """
        trace = self._trace
        cursor = self._fetch_cursor
        if cursor >= len(trace):
            if self._batch:
                self._partition_batch(now)
                return True
            return False
        if self._stall_seq is not None:
            self.mispredict_stall_cycles += 1
            return False
        if now < self._fetch_resume_at or now < self._icache_ready:
            return False
        if cursor - self.committed >= self.fgstp.window_size:
            self.window_stall_cycles += 1
            return False

        # Fetch stops at the fetch width, the window limit (the commit
        # frontier cannot move while fetching) or the trace end.
        limit = min(len(trace), cursor + 2 * self.base.fetch_width,
                    self.committed + self.fgstp.window_size)
        taken_budget = 2
        line_bytes = self.base.l1i.line_bytes
        hit_latency = self.base.l1i.hit_latency
        icache_line = self._icache_line
        batch = self._batch
        predictor = self.predictor
        while cursor < limit:
            record = trace[cursor]
            line = (record.pc * INSTRUCTION_BYTES) // line_bytes
            if line != icache_line:
                latency = self.hierarchies[0].fetch(
                    record.pc * INSTRUCTION_BYTES)
                icache_line = line
                if latency > hit_latency:
                    self._icache_ready = now + latency
                    break
            batch.append(record)
            cursor += 1
            op = record.op_class
            if op is _BRANCH or op is _JUMP:
                correct = predictor.predict(record)
                predictor.update(record)
                if not correct:
                    self._stall_seq = record.seq
                    break
                if record.taken:
                    icache_line = -1
                    taken_budget -= 1
                    if taken_budget == 0:
                        break
        self._icache_line = icache_line
        self._fetch_cursor = cursor

        if (len(batch) >= self.fgstp.batch_size
                or self._stall_seq is not None
                or cursor >= len(trace)
                or self._cores_starving()):
            self._partition_batch(now)
        # The fetch loop body ran at least once (the pure-stall paths
        # all returned above): either instructions entered the batch or
        # an I-cache miss was initiated — both are front-end activity.
        return True

    def _cores_starving(self) -> bool:
        """True when both feed queues are empty (partition-unit bubble).

        The partition unit processes whatever its buffer holds each cycle
        — ``batch_size`` is a maximum, not a minimum — so when the cores
        have nothing left to dispatch (e.g. right after a misprediction
        redirect) a partial batch flows immediately instead of waiting to
        fill.
        """
        return not self._feed[0] and not self._feed[1]

    def _partition_batch(self, now: int) -> None:
        batch = self._batch
        if not batch:
            return
        self._batch = []
        assignments = self.partitioner.partition(
            batch, committed_seq=self.committed)
        available_at = now + self.fgstp.partition_latency
        tracer = self.tracer
        live = self._live
        copies = self._copies
        feed = self._feed
        uid = self._next_uid
        for record, assignment in zip(batch, assignments):
            seq = record.seq
            cores = assignment.cores
            if len(cores) == 1:
                uops = [Uop(record, uid, False, cores[0])]
                uid += 1
            else:
                uops = [Uop(record, uid, True, 0),
                        Uop(record, uid + 1, True, 1)]
                uid += 2
            live[seq] = uops
            copies[seq] = len(uops)
            if tracer is not None and assignment.stolen:
                tracer.instant(
                    "steal", now, seq=seq, core=cores[0],
                    detail=f"balance override -> core {cores[0]}")
            op = record.op_class
            if assignment.comm_srcs or op is _LOAD or op is _STORE:
                self._wire_dependences(record, assignment, uops, now)
            for uop in uops:
                feed[uop.core_id].append((available_at, uop))
        self._next_uid = uid

    def _wire_dependences(self, record: TraceRecord,
                          assignment: Assignment, uops: List[Uop],
                          now: int) -> None:
        # Register values crossing the fabric.
        for producer_seq, dest_core in assignment.comm_srcs:
            tag = self._get_comm_tag(producer_seq, dest_core, now)
            if tag is not None:
                for uop in uops:
                    if uop.core_id == dest_core:
                        uop.extra_deps.append(tag)
        op = record.op_class
        if op is _STORE:
            self._last_store[uops[0].core_id] = uops[0]
        if op is not _LOAD:
            return
        if not self.fgstp.speculation:
            # Without dependence speculation a load cannot issue until the
            # other core's most recent older store has executed — the
            # hardware has no way to know their addresses differ.  This
            # conservative ordering is exactly what speculation removes.
            self._wire_conservative_load(uops[0], now)
        elif assignment.mem_dep is not None:
            # Cross-core memory dependence of a load.
            self._wire_mem_dep(record, assignment, uops[0], now)

    def _get_comm_tag(self, producer_seq: int, dest_core: int,
                      now: int) -> Optional[ValueTag]:
        key = (producer_seq, dest_core)
        tag = self._comm_tags.get(key)
        if tag is not None:
            return tag
        producers = self._live.get(producer_seq)
        if not producers:
            return None  # producer already committed: globally visible
        producer = producers[0]
        if producer.state == COMMITTED:
            return None
        tag = ValueTag(label=f"r@{producer_seq}->c{dest_core}")
        self._comm_tags[key] = tag
        if producer.state in (ISSUED, COMPLETED) \
                and producer.complete_cycle is not None \
                and producer.complete_cycle <= now:
            # Value already produced: send it now.
            self.queues[producer.core_id].send(tag, now)
        else:
            self._send_map.setdefault(producer.uid, []).append(tag)
        return tag

    def _wire_conservative_load(self, load_uop: Uop, now: int) -> None:
        store = self._last_store[1 - load_uop.core_id]
        if store is None or store.state in (COMMITTED, SQUASHED):
            return
        if store.complete_cycle is not None and store.complete_cycle <= now:
            return
        tag = ValueTag(label=f"cons@{store.seq}")
        self._send_map.setdefault(store.uid, []).append(tag)
        load_uop.extra_deps.append(tag)

    def _wire_mem_dep(self, record: TraceRecord, assignment: Assignment,
                      load_uop: Uop, now: int) -> None:
        store_seq, store_pc = assignment.mem_dep
        # The hardware observes this dependence when the pair executes;
        # training the partitioner's pair table here models that
        # commit-time learning (it only affects *future* instances).
        self.partitioner.learn_pair(record.pc, store_pc)
        stores = self._live.get(store_seq)
        if not stores:
            return  # store committed: data is in the cache hierarchy
        store = stores[0]
        if store.state == COMMITTED:
            return
        if self.fgstp.speculation \
                and not self.dep_predictor.predicts_sync(record.pc):
            # Watchers fire when the store completes; a completed store
            # has nothing left to check.
            if store.state != COMPLETED:
                self._watch.setdefault(store.uid, []).append(load_uop)
            return
        # Synchronise: the load waits for the store's data to cross.
        if store.complete_cycle is not None \
                and store.complete_cycle <= now:
            self.dep_predictor.train_unnecessary_sync(record.pc)
            tag = ValueTag(label=f"m@{store_seq}")
            self.queues[store.core_id].send(tag, now)
        else:
            tag = ValueTag(label=f"m@{store_seq}")
            self._send_map.setdefault(store.uid, []).append(tag)
        load_uop.extra_deps.append(tag)

    # ------------------------------------------------------------------
    # Housekeeping & results
    # ------------------------------------------------------------------

    def _maybe_prune(self) -> None:
        if self.committed - self._last_retire_prune >= 1024:
            self.partitioner.retire(self.committed)
            self._last_retire_prune = self.committed
            self._drop_committed_tags()

    def _drop_committed_tags(self) -> None:
        """Forget the value tags of committed producers: the partitioner
        names only uncommitted ones in ``comm_srcs``, so they are never
        looked up again."""
        tags = self._comm_tags
        committed = self.committed
        for key in [k for k in tags if k[0] < committed]:
            del tags[key]

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def _config_key(self) -> str:
        return f"{self.base!r}|{self.fgstp!r}|{self.policy_name}"

    def _detach_observers(self) -> dict:
        """Strip the unpicklable observer hooks before serialization.

        The cores' completion/commit callbacks are bound methods of this
        machine (pickling them would drag the whole machine, trace and
        observers into the blob); queue tracer attachments and a
        non-default partition policy are closures.  All are reinstalled
        by :meth:`_reattach_observers` / :meth:`_attach`.
        """
        saved = {"callbacks": [], "queues": [], "assign": None}
        for core in self.cores:
            saved["callbacks"].append((core.on_complete, core.on_commit))
            core.on_complete = None
            core.on_commit = None
        for queue in self.queues:
            entry = {}
            for attr in ("tracer", "trace_core"):
                if attr in queue.__dict__:
                    entry[attr] = queue.__dict__.pop(attr)
            saved["queues"].append(entry)
        if "_assign_pass" in self.partitioner.__dict__:
            saved["assign"] = self.partitioner.__dict__.pop("_assign_pass")
        return saved

    def _reattach_observers(self, saved: dict) -> None:
        for core, (on_complete, on_commit) in zip(self.cores,
                                                  saved["callbacks"]):
            core.on_complete = on_complete
            core.on_commit = on_commit
        for queue, entry in zip(self.queues, saved["queues"]):
            for attr, value in entry.items():
                setattr(queue, attr, value)
        if saved["assign"] is not None:
            self.partitioner._assign_pass = saved["assign"]

    def _pickle_state(self, state: dict) -> bytes:
        """Shared object identity -- cores<->hierarchies, uop graphs,
        queue entries -- survives because everything rides in one
        dict."""
        saved_trace = self._trace
        saved = self._detach_observers()
        self._trace = ()
        try:
            state.update({name: getattr(self, name) for name in _FGSTP_STATE})
            return dumps_state(state)
        finally:
            self._trace = saved_trace
            self._reattach_observers(saved)

    def _adopt_state(self, state: dict, measured_trace) -> None:
        for name in _FGSTP_STATE:
            setattr(self, name, state[name])
        self._trace = measured_trace
        self._attach()

    def _attach(self) -> None:
        """Install what a checkpoint does not carry: the cores' callbacks,
        a non-default partition policy, and the observers."""
        for core in self.cores:
            core.on_complete = self._on_complete
            core.on_commit = self._on_commit
        if self.policy_name != "chain":
            from .policies import policy_by_name, set_policy
            set_policy(self.partitioner, policy_by_name(self.policy_name))
        if self.tracer is not None:
            for src_core, queue in enumerate(self.queues):
                queue.tracer = self.tracer
                queue.trace_core = src_core
        if self.metrics is not None:
            for hierarchy in self.hierarchies:
                self.metrics.attach(hierarchy)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _cpi_stack(self, cycles: int) -> CPIStack:
        return CPIStack.merge_cores(
            (CPIStack(machine=core.name, cycles=cycles,
                      instructions=core.stats.committed,
                      width=self.base.commit_width,
                      slots=dict(core.stats.commit_slots))
             for core in self.cores),
            machine="fgstp", instructions=self.committed)

    def _partial_extra(self) -> dict:
        return {"cores": [core.stats.as_dict() for core in self.cores],
                "squashes": self.squashes}

    def _snapshot_parts(self) -> dict:
        """Both cores, both value queues and the partitioner/front-end
        state."""
        return {
            "cores": [core.snapshot() for core in self.cores],
            "queues": [queue.snapshot() for queue in self.queues],
            "frontend": {
                "fetch_cursor": self._fetch_cursor,
                "global_next": self.committed,
                "trace_length": len(self._trace),
                "window_size": self.fgstp.window_size,
                "batch_pending": len(self._batch),
                "feed_pending": [len(feed) for feed in self._feed],
                "stall_seq": self._stall_seq,
                "fetch_resume_at": self._fetch_resume_at,
                "icache_ready": self._icache_ready,
            },
            "partitioner": self.partitioner.stats.as_dict(),
            "dep_predictor": self.dep_predictor.stats(),
            "live_seqs": len(self._live),
            "pending_sends": len(self._send_map),
        }

    def _ingest_metrics(self, metrics) -> None:
        metrics.ingest("partition", self.partitioner.stats.as_dict())
        for queue in self.queues:
            metrics.ingest(f"queues.{queue.name}", queue.stats())
        metrics.counter("squashes").value = self.squashes
        metrics.counter("squashed_uops").value = self.squashed_uops
        metrics.ingest("branch", self.predictor.stats())
        for index, (core, hierarchy) in enumerate(
                zip(self.cores, self.hierarchies)):
            metrics.ingest(f"core{index}", core.stats.as_dict())
            metrics.ingest(f"caches.core{index}", hierarchy.stats())

    def _result(self, workload: str, cycles: int) -> SimResult:
        caches = {
            "core0": self.hierarchies[0].stats(),
            "core1": self.hierarchies[1].stats(),
        }
        stack = maybe_validate(self._cpi_stack(cycles))
        return SimResult(
            machine=self.machine_label,
            config=self.config_name,
            workload=workload,
            cycles=cycles,
            instructions=self.committed,
            extra={
                "partition": self.partitioner.stats.as_dict(),
                "dep_predictor": self.dep_predictor.stats(),
                "queues": {q.name: q.stats() for q in self.queues},
                "squashes": self.squashes,
                "squashed_uops": self.squashed_uops,
                "branch": self.predictor.stats(),
                "caches": caches,
                "cores": [core.stats.as_dict() for core in self.cores],
                "stalls": {
                    "mispredict_cycles": self.mispredict_stall_cycles,
                    "window_cycles": self.window_stall_cycles,
                },
                "cpistack": stack.as_dict(),
                "fgstp_params": {
                    "window_size": self.fgstp.window_size,
                    "batch_size": self.fgstp.batch_size,
                    "queue_latency": self.fgstp.queue_latency,
                    "queue_bandwidth": self.fgstp.queue_bandwidth,
                    "speculation": self.fgstp.speculation,
                    "replication": self.fgstp.replication,
                },
            },
        )


def simulate_fgstp(trace: Sequence[TraceRecord], base: CoreParams,
                   fgstp: Optional[FgStpParams] = None,
                   workload: str = "trace", warmup: int = 0) -> SimResult:
    """Convenience wrapper: build a fresh Fg-STP machine and run *trace*."""
    return FgStpMachine(base, fgstp).run(trace, workload=workload,
                                         warmup=warmup)
