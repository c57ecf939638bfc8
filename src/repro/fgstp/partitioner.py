"""The Fg-STP instruction partitioner.

The partition unit examines one *batch* of fetched instructions at a time
(a sliding slice of the large lookahead window) and decides, per dynamic
instruction, which of the two cores executes it.  Three mechanisms from
the paper are implemented here:

1. **Affinity / balance assignment** — each instruction is pulled toward
   the core(s) producing its source operands (cutting a tight dependence
   chain costs a queue round-trip) and pushed toward the less-loaded core
   (idle resources are the whole point of using the second core).  A
   single score per core combines both terms.

2. **Replication** — a cheap instruction whose value is needed on both
   cores, and whose own sources are already available on both cores, is
   executed twice instead of communicated.  This is what keeps loop
   induction variables and address arithmetic from ping-ponging between
   the cores.

3. **Dependence bookkeeping for communication and speculation** — the
   partitioner maintains the global register last-writer and memory
   last-store maps (with an undo journal so squashes can rewind) and
   reports, per instruction, which source values must cross the fabric
   and which loads face a cross-core memory dependence.

The partitioner is purely *decisional*: it never touches timing state.
The orchestrator turns its decisions into uops, value tags and queue
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..isa.opcodes import OpClass
from ..trace.record import TraceRecord
from .params import DEFAULT_OP_WEIGHTS, FgStpParams

#: Marker for "value is architecturally visible everywhere" (produced by
#: an instruction that committed before the current window).
BOTH_CORES = frozenset((0, 1))
#: The core set of a value produced on core 0 / core 1 only.  Every
#: writer entry shares one of these three sets.
_CORE_SET = (frozenset((0,)), frozenset((1,)))
#: ``Assignment.cores`` values, likewise shared.
_ONE_CORE = ((0,), (1,))
_TWO_CORES = (0, 1)

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_JUMP = OpClass.JUMP


class WriterEntry:
    """Partition-time knowledge about a register/memory value's producer.

    Attributes:
        seq: Producing instruction's dynamic sequence number.
        cores: Cores the value is (or will become) natively available on
            — ``{c}`` for a normal assignment, ``{0, 1}`` for replicas.
        pc: Producer's static PC (for predictor training).
    """

    __slots__ = ("seq", "cores", "pc")

    def __init__(self, seq: int, cores: frozenset, pc: int):
        self.seq = seq
        self.cores = cores
        self.pc = pc

    def __repr__(self) -> str:
        return (f"WriterEntry(seq={self.seq}, cores={set(self.cores)}, "
                f"pc={self.pc})")


class Assignment:
    """Partitioning decision for one dynamic instruction.

    Attributes:
        seq: Dynamic sequence number.
        cores: Execution cores (one entry, or two when replicated).
        comm_srcs: Source register values that must be communicated,
            as ``(producer_seq, dest_core)`` pairs (deduplicated by the
            orchestrator's per-(producer, core) tag map).
        mem_dep: For loads with a cross-core in-flight producer store:
            ``(store_seq, store_pc)``; ``None`` otherwise.
        stolen: True when load balance overrode producer affinity (the
            instruction was "stolen" by the lighter core; surfaced as a
            trace event, never part of the result).
        replicated: Convenience flag (``len(cores) == 2``).
    """

    __slots__ = ("seq", "cores", "comm_srcs", "mem_dep", "stolen")

    def __init__(self, seq: int, cores: Tuple[int, ...],
                 comm_srcs: Optional[List[Tuple[int, int]]] = None,
                 mem_dep: Optional[Tuple[int, int]] = None,
                 stolen: bool = False):
        self.seq = seq
        self.cores = cores
        self.comm_srcs = [] if comm_srcs is None else comm_srcs
        self.mem_dep = mem_dep
        self.stolen = stolen

    @property
    def replicated(self) -> bool:
        return len(self.cores) == 2

    def __repr__(self) -> str:
        return (f"Assignment(seq={self.seq}, cores={self.cores}, "
                f"comm_srcs={self.comm_srcs}, mem_dep={self.mem_dep}, "
                f"stolen={self.stolen})")


@dataclass
class PartitionStats:
    """Aggregate partitioner counters over a run."""

    assigned: int = 0
    on_core: List[int] = field(default_factory=lambda: [0, 0])
    replicated: int = 0
    comm_values: int = 0
    cross_mem_deps: int = 0

    def as_dict(self) -> dict:
        total = max(self.assigned, 1)
        return {
            "assigned": self.assigned,
            "on_core0": self.on_core[0],
            "on_core1": self.on_core[1],
            "replicated": self.replicated,
            "replication_rate": self.replicated / total,
            "comm_values": self.comm_values,
            "comm_per_100_instr": 100.0 * self.comm_values / total,
            "cross_mem_deps": self.cross_mem_deps,
        }


class Partitioner:
    """Stateful instruction partitioner (see module docstring).

    The partitioner carries state across batches: register/memory writer
    maps, running per-core load, and an undo journal keyed by sequence
    number so :meth:`rewind` can restore the exact pre-squash state.
    """

    def __init__(self, params: FgStpParams):
        self.params = params
        self.weights = dict(DEFAULT_OP_WEIGHTS)
        self.stats = PartitionStats()
        self._reg_writer: Dict[int, WriterEntry] = {}
        self._mem_writer: Dict[int, WriterEntry] = {}
        self._load = [0.0, 0.0]
        self._committed_seq = 0
        # Predictor-style steering state (PC-indexed; addresses are NOT
        # available at partition time — the partition unit sees decoded
        # instructions, not computed addresses).  Deliberately not
        # rolled back on squashes, like any predictor.
        #
        # _mem_pc_core: last core each static memory instruction went to
        # (locality stickiness: keeps a site's line in one L1D).
        self._mem_pc_core: Dict[int, int] = {}
        # _pair_map: load PC -> {store PC: confidence} — the store sites
        # this load has been observed depending on (store-set style).
        # Trained by the orchestrator from executed dependences and from
        # violations; steering follows the highest-confidence store.
        self._pair_map: Dict[int, Dict[int, int]] = {}
        # _store_pc_core: last core each static store went to.
        self._store_pc_core: Dict[int, int] = {}
        # Undo journal: (map_kind, seq, key, previous entry or None).
        self._journal: List[Tuple[str, int, int, Optional[WriterEntry]]] = []
        # Batch offsets where balance overrode affinity (trace events
        # only; cleared every partition() call).
        self._last_steals: Set[int] = set()

    # ------------------------------------------------------------------
    # Batch partitioning
    # ------------------------------------------------------------------

    def partition(self, batch: Sequence[TraceRecord],
                  committed_seq: int = 0) -> List[Assignment]:
        """Assign every instruction in *batch* and update global state.

        Two passes: the pluggable :meth:`_assign_pass` picks one core
        per instruction, then :meth:`_replicate_emit_pass` decides
        replication, works out communication and memory dependences,
        and updates the writer maps, in one forward walk.

        Args:
            batch: Records to partition, in dynamic order.  None of them
                may have committed (every ``seq >= committed_seq``).
            committed_seq: The global commit frontier — values produced
                by instructions older than this are architecturally
                visible on both cores and never need communication.

        Returns one :class:`Assignment` per record, in order.
        """
        if not batch:
            return []
        self._committed_seq = committed_seq
        self._last_steals.clear()
        cores = self._assign_pass(batch)
        return self._replicate_emit_pass(batch, cores)

    # -- pass 1: core assignment --------------------------------------

    def _assign_pass(self, batch: Sequence[TraceRecord]) -> List[int]:
        """Slice-growth assignment.

        Tight dependence chains are the worst thing to cut — a cross-core
        edge inside a chain adds a full queue latency to the critical
        path — so an instruction whose most recent producer is *close*
        (within ``affinity_recent`` dynamic instructions) always follows
        that producer's core.  Instructions with only distant producers
        (slack edges: the queue latency hides under the existing gap) or
        no in-flight producers at all are the balancing points: they seed
        new slices on the less-loaded core.
        """
        params = self.params
        weights = self.weights
        recent = params.affinity_recent
        threshold = params.balance_factor * 40.0
        load = self._load
        reg_writer = self._reg_writer
        mem_pc_core = self._mem_pc_core
        store_pc_core = self._store_pc_core
        pair_map = self._pair_map
        committed = self._committed_seq
        steals = self._last_steals
        cores: List[int] = []
        # Intra-batch overlay of writer knowledge (reg -> (core, seq)).
        local_writer: Dict[int, Tuple[int, int]] = {}

        for offset, record in enumerate(batch):
            seq = record.seq
            op = record.op_class
            # Closest in-flight producer (register chain); -1: none.
            closest_core = closest_seq = -1
            for src in record.srcs:
                producer = local_writer.get(src)
                if producer is not None:
                    producer_core, producer_seq = producer
                else:
                    entry = reg_writer.get(src)
                    if entry is None or entry.seq < committed:
                        continue
                    entry_cores = entry.cores
                    if len(entry_cores) != 1:
                        continue
                    producer_core = 0 if 0 in entry_cores else 1
                    producer_seq = entry.seq
                if producer_seq > closest_seq:
                    closest_core = producer_core
                    closest_seq = producer_seq
            # Learned memory pairing: a load previously caught depending
            # on some store PC follows that store's core (addresses are
            # unknown at partition time; this PC pair table is trained
            # by dependence violations).
            pair_core: Optional[int] = None
            if op is _LOAD:
                partners = pair_map.get(record.pc)
                if partners:
                    for store_pc, _confidence in sorted(
                            partners.items(), key=lambda kv: -kv[1]):
                        pair_core = store_pc_core.get(store_pc)
                        if pair_core is not None:
                            break

            is_memory = op is _LOAD or op is _STORE
            imbalance = load[0] - load[1]  # positive: core 0 overloaded
            lighter = 0 if imbalance <= 0 else 1
            if pair_core is not None:
                core = pair_core
            elif closest_seq >= 0 and seq - closest_seq <= recent:
                core = closest_core
            else:
                sticky = mem_pc_core.get(record.pc) if is_memory else None
                if sticky is not None:
                    # Keep each static memory site next to the L1D that
                    # holds its lines.
                    core = sticky
                elif closest_seq >= 0:
                    # Distant producer: slack edge — balance decides
                    # unless the system is already even.
                    if abs(imbalance) < threshold:
                        core = closest_core
                    else:
                        core = lighter
                        if core != closest_core:
                            steals.add(offset)
                else:
                    core = lighter

            cores.append(core)
            load[core] += weights[op]
            if record.dst is not None:
                local_writer[record.dst] = (core, seq)
            if is_memory:
                mem_pc_core[record.pc] = core
                if op is _STORE:
                    store_pc_core[record.pc] = core
        # Decay the running load so ancient history does not swamp the
        # balance signal.
        load[0] *= 0.9
        load[1] *= 0.9
        return cores

    # -- pass 2: replication + emission --------------------------------

    def _replicate_emit_pass(self, batch: Sequence[TraceRecord],
                             cores: List[int]) -> List[Assignment]:
        """Replicate, wire and record each instruction, in order.

        A cheap instruction whose value is read on both cores, and which
        needs at most one of its own source values seeded across the
        fabric, runs on both cores.  Whether a source is free (committed,
        or produced by a replica) is read straight from the register
        writer map: in a forward walk the map holds, for every source,
        the latest producer before the current instruction — the batch's
        own, once emitted, else the one from an earlier batch.
        """
        params = self.params
        committed = self._committed_seq
        reg_writer = self._reg_writer
        mem_writer = self._mem_writer
        journal_append = self._journal.append
        steals = self._last_steals
        count = len(batch)

        # Consumer cores per batch offset, as a mask (bit c: the value
        # is read on core c).  Only replication needs them.
        consumers = [0] * count
        replicable: Set[OpClass] = set()
        if params.replication:
            max_weight = params.replication_max_weight
            replicable = {op for op, weight in self.weights.items()
                          if weight <= max_weight
                          and op not in (_LOAD, _STORE, _BRANCH, _JUMP)}
            latest: Dict[int, int] = {}   # reg -> batch offset
            for offset, record in enumerate(batch):
                bit = 1 << cores[offset]
                for src in record.srcs:
                    producer = latest.get(src)
                    if producer is not None:
                        consumers[producer] |= bit
                if record.dst is not None:
                    latest[record.dst] = offset

        assignments: List[Assignment] = []
        append = assignments.append
        on_core = [0, 0]
        replicated = comm_values = cross_mem_deps = 0
        for offset, record in enumerate(batch):
            seq = record.seq
            op = record.op_class
            srcs = record.srcs
            core = cores[offset]
            replicate = False
            if consumers[offset] == 3 and op in replicable:
                # Replication is profitable when at most one source value
                # has to be *seeded* across the fabric: the replica then
                # saves the (repeated) communication of this
                # instruction's own value.
                seed_cost = 0
                for src in srcs:
                    entry = reg_writer.get(src)
                    if entry is not None and entry.seq >= committed \
                            and entry.cores != BOTH_CORES:
                        seed_cost += 1
                replicate = seed_cost <= 1
            if replicate:
                my_cores = _TWO_CORES
                core_set = BOTH_CORES
                replicated += 1
            else:
                my_cores = _ONE_CORE[core]
                core_set = _CORE_SET[core]
                on_core[core] += 1

            # Source communication needs (committed values are visible
            # everywhere and never cross the fabric).  Wiring follows
            # set order, so a repeated source is communicated once.
            comm_srcs: List[Tuple[int, int]] = []
            for src in (set(srcs) if len(srcs) > 1 else srcs):
                entry = reg_writer.get(src)
                if entry is None or entry.seq < committed:
                    continue
                entry_cores = entry.cores
                for dest in my_cores:
                    if dest not in entry_cores:
                        comm_srcs.append((entry.seq, dest))
            comm_values += len(comm_srcs)
            # Cross-core memory dependence (loads only, never replicated;
            # same-core pairs are handled by the core's own store
            # forwarding).
            mem_dep = None
            if op is _LOAD:
                entry = mem_writer.get(record.mem_addr)
                if entry is not None and entry.seq >= committed \
                        and core not in entry.cores:
                    mem_dep = (entry.seq, entry.pc)
                    cross_mem_deps += 1

            # Update writer maps (journaled for rewind).
            dst = record.dst
            if dst is not None:
                journal_append(("reg", seq, dst, reg_writer.get(dst)))
                reg_writer[dst] = WriterEntry(seq, core_set, record.pc)
            if op is _STORE:
                addr = record.mem_addr
                journal_append(("mem", seq, addr, mem_writer.get(addr)))
                mem_writer[addr] = WriterEntry(seq, core_set, record.pc)
            append(Assignment(seq, my_cores, comm_srcs, mem_dep,
                              offset in steals))

        stats = self.stats
        stats.assigned += count
        stats.on_core[0] += on_core[0] + replicated
        stats.on_core[1] += on_core[1] + replicated
        stats.replicated += replicated
        stats.comm_values += comm_values
        stats.cross_mem_deps += cross_mem_deps
        return assignments

    # ------------------------------------------------------------------
    # Squash support
    # ------------------------------------------------------------------

    def learn_pair(self, load_pc: int, store_pc: int,
                   weight: int = 1) -> None:
        """Train the memory-pair table with an observed dependence.

        Called by the orchestrator both when a cross-core dependence is
        detected at execution (weight 1) and on a violation squash
        (higher weight).  Future instances of the load are steered to
        the highest-confidence partner store's core, removing the
        cross-core dependence entirely where possible.
        """
        partners = self._pair_map.setdefault(load_pc, {})
        partners[store_pc] = min(partners.get(store_pc, 0) + weight, 64)
        if len(partners) > 4:
            # Keep the strongest partners only (store-set capacity).
            weakest = min(partners, key=partners.get)
            del partners[weakest]

    def rewind(self, seq: int) -> None:
        """Undo all writer-map updates made by instructions >= *seq*."""
        journal = self._journal
        while journal and journal[-1][1] >= seq:
            kind, _entry_seq, key, previous = journal.pop()
            target = self._reg_writer if kind == "reg" else self._mem_writer
            if previous is None:
                target.pop(key, None)
            else:
                target[key] = previous

    def retire(self, seq: int) -> None:
        """Forget journal entries for instructions older than *seq*.

        Also drops writer-map entries whose producers have committed —
        committed values are architecturally visible on both cores (the
        merged commit stage broadcasts state), so they no longer need
        communication.
        """
        journal = self._journal
        keep_from = 0
        for index, (_kind, entry_seq, _key, _previous) in enumerate(journal):
            if entry_seq >= seq:
                keep_from = index
                break
        else:
            keep_from = len(journal)
        del journal[:keep_from]
        for target in (self._reg_writer, self._mem_writer):
            stale = [key for key, entry in target.items() if entry.seq < seq]
            for key in stale:
                del target[key]

