"""Edge-case tests for the Fg-STP orchestrator internals."""

import pytest

from repro.fgstp.orchestrator import FgStpMachine, simulate_fgstp
from repro.fgstp.params import FgStpParams
from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord
from repro.uarch.params import medium_core_config, small_core_config
from repro.workloads.generator import generate_trace


def alu(seq, dst=1, srcs=()):
    return TraceRecord(seq, seq, OpClass.IALU, dst, tuple(srcs))


def test_single_instruction_trace():
    result = simulate_fgstp([alu(0)], small_core_config())
    assert result.instructions == 1
    assert result.cycles > 0


def test_trace_of_only_branches():
    records = []
    for seq in range(30):
        taken = seq % 3 == 0
        records.append(TraceRecord(seq, seq % 5, OpClass.BRANCH, None,
                                   (1, 2), taken=taken,
                                   target=(seq + 1) % 5 if taken else None))
    result = simulate_fgstp(records, small_core_config())
    assert result.instructions == 30


def test_trace_of_only_memory_ops():
    records = []
    for seq in range(40):
        if seq % 2 == 0:
            records.append(TraceRecord(seq, 10, OpClass.STORE, None,
                                       (1, 2), mem_addr=0x100 + 8 * seq,
                                       mem_size=8))
        else:
            records.append(TraceRecord(seq, 11, OpClass.LOAD, 3, (1,),
                                       mem_addr=0x100 + 8 * (seq - 1),
                                       mem_size=8))
    result = simulate_fgstp(records, small_core_config())
    assert result.instructions == 40


def test_minimal_window_and_batch():
    trace = generate_trace("gcc", 1500)
    params = FgStpParams(window_size=8, batch_size=4)
    result = simulate_fgstp(trace, small_core_config(), params)
    assert result.instructions == 1500


def test_bandwidth_one_queue():
    trace = generate_trace("hmmer", 2000)
    params = FgStpParams(queue_bandwidth=1)
    result = simulate_fgstp(trace, small_core_config(), params)
    assert result.instructions == 2000


def test_zero_partition_latency():
    trace = generate_trace("gcc", 1000)
    params = FgStpParams(partition_latency=0)
    result = simulate_fgstp(trace, small_core_config(), params)
    assert result.instructions == 1000


def test_machine_not_reusable_state_isolated():
    """Two runs on one machine object are not supported; two machines
    on the same trace must agree exactly."""
    trace = generate_trace("sjeng", 1500)
    base = small_core_config()
    a = FgStpMachine(base).run(trace)
    b = FgStpMachine(base).run(trace)
    assert a.cycles == b.cycles


def test_replica_commit_counts_once():
    """Replicated uops must not inflate the architectural count."""
    trace = generate_trace("hmmer", 3000)
    result = simulate_fgstp(trace, small_core_config())
    assert result.instructions == 3000
    partition = result.extra["partition"]
    # Total executed uops can exceed the trace; retired work cannot.
    assert partition["on_core0"] + partition["on_core1"] >= 3000


def test_huge_recovery_penalty_still_terminates():
    trace = generate_trace("omnetpp", 2500)
    params = FgStpParams(recovery_penalty=500)
    result = simulate_fgstp(trace, small_core_config(), params)
    assert result.instructions == 2500


def test_commit_monotonic_seq():
    """Global retirement must be in strict sequence order."""
    base = small_core_config()
    machine = FgStpMachine(base)
    committed = []
    originals = [core.on_commit for core in machine.cores]

    def recording(uop, cycle, original=None):
        committed.append(uop.seq)
        machine._on_commit(uop, cycle)

    for core in machine.cores:
        core.on_commit = recording
    trace = generate_trace("gcc", 1200)
    machine.run(trace)
    non_replica = []
    for seq in committed:
        if not non_replica or seq != non_replica[-1]:
            non_replica.append(seq)
    assert non_replica
    assert non_replica == sorted(non_replica)


def test_bookkeeping_holds_no_committed_or_squashed_uop():
    """The value-tag, send, watch and violation maps forget committed
    producers and squashed uops instead of growing with the run."""
    machine = FgStpMachine(medium_core_config())
    checks = []

    def check(_uop, _cycle):
        if machine.committed % 500:
            return
        live = {uop.uid for uops in machine._live.values() for uop in uops}
        checks.append(machine.committed)
        assert set(machine._send_map) <= live
        assert set(machine._watch) <= live
        assert not machine._violation_store_pc
        assert all(seq >= machine._last_retire_prune
                   for seq, _core in machine._comm_tags)

    machine.commit_hook = check
    result = machine.run(generate_trace("milc", 30000), warmup=10000)
    assert result.instructions == 20000
    assert machine.squashes > 0 and len(checks) == 40
    assert not machine._comm_tags
    assert not machine._send_map
    assert not machine._watch
    assert not machine._violation_store_pc
