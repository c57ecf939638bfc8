"""Pinned partitioner decisions.

The partitioner's output decides every Fg-STP timing result, so any
change to it that is meant to be behaviour-preserving (a refactor or a
speed-up) must leave its decisions bit-identical.  These tests drive
:meth:`Partitioner.partition` the way the orchestrator does — fetch-sized
batches under an advancing commit frontier, with squash rewinds and
retirement pruning — for every registered policy over fixed generated
traces, and compare a digest of every decision against a pinned value.

A deliberate change to partitioning behaviour is a model change: update
the digests below in the same change and name it in CHANGES.md.
"""

import hashlib

import pytest

from repro.fgstp.params import FgStpParams
from repro.fgstp.partitioner import Partitioner
from repro.fgstp.policies import POLICIES, set_policy
from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord
from repro.workloads.generator import generate_trace

TRACE_LENGTH = 3000
TRACE_SEED = 42
#: Batch sizes cycled through, like the orchestrator's partial batches
#: (a full fetch group, a taken-branch cut, a starving-core flush, ...).
BATCH_SIZES = (8, 3, 16, 1, 12, 64, 5)
#: How far the commit frontier trails the batch start.
COMMIT_LAG = 40

#: sha256 of every decision plus the final stats, per (policy, workload).
PINNED = {
    ("chain", "gcc"):
        "22759588c4c724d11b0b77a1fa5da99e89a222e445de48f51c958266fa351555",
    ("chain", "mcf"):
        "bbaa4a8b451bec28ecee34c8efafa7566e58e895affdf7c940a7e4780ae7e1e7",
    ("chain", "milc"):
        "2cd0db2d734465468c35848842a59ea90215f4f388ac361dd29cf28e8f529140",
    ("decoupled", "gcc"):
        "88d9235d38f9e26ca34e2d91d5f5d0a794e80116f9a295e929ee9e8f3ef0eb4e",
    ("decoupled", "mcf"):
        "a14b18f5007b8c34f785b09074ffd7bbd8ca8e95a41b436615e43775f0ceafa9",
    ("decoupled", "milc"):
        "4b33dd16edfdec3830775862c2622d44df479af673ba91c49db42fc21fe46a02",
    ("modulo16", "gcc"):
        "a9fb53a62eabb35aa79f1a64dcd6c9c6a213b82c01ec19ca7d99e3a613a5023a",
    ("modulo16", "mcf"):
        "af4314f9159cb7b0c77665ab93684fa660b83d6dbf41a21320ecc92987b36d57",
    ("modulo16", "milc"):
        "ef4e32efa52b734f3e446b2284ba11b28969fbe9113829a5e98c8810c6e885f0",
    ("modulo64", "gcc"):
        "62a1f7fb4266e2b65b5e7471c90e3176c0442f674fd267b06c86fd161f0ecd19",
    ("modulo64", "mcf"):
        "2f9544301442ccd6c0e0b2681fe71d374540c1a9d0e15ef7709f979bc3a66563",
    ("modulo64", "milc"):
        "26c278e7c6b243f32bf37965ba4d5bbd2e1357735d532711c782cf08b5392a59",
    ("roundrobin", "gcc"):
        "32e912eae03efc9df0d76e9f515d735f2ec1de3108fd5cba3536574f465c4dc6",
    ("roundrobin", "mcf"):
        "2ad971533b6cc44bc96f8a1b06abe11e373db159524fade6218ca437c6d14601",
    ("roundrobin", "milc"):
        "92d5932a586a441c358e5721c26e90c0852b59a52c3416b2301d0592c7ae991c",
    ("single", "gcc"):
        "ab58c8ab43af597e53260ef378b9aea7137097f52ce902c01880351fbb23b6ea",
    ("single", "mcf"):
        "ab58c8ab43af597e53260ef378b9aea7137097f52ce902c01880351fbb23b6ea",
    ("single", "milc"):
        "ab58c8ab43af597e53260ef378b9aea7137097f52ce902c01880351fbb23b6ea",
}


def _drive(policy_name: str, workload: str) -> str:
    trace = generate_trace(workload, TRACE_LENGTH, TRACE_SEED)
    partitioner = Partitioner(FgStpParams())
    set_policy(partitioner, POLICIES[policy_name])
    digest = hashlib.sha256()
    cursor = 0
    batches = 0
    rewound = set()
    while cursor < len(trace):
        size = BATCH_SIZES[batches % len(BATCH_SIZES)]
        batch = trace[cursor:cursor + size]
        committed = max(0, cursor - COMMIT_LAG)
        for record, assignment in zip(
                batch, partitioner.partition(batch, committed_seq=committed)):
            assert assignment.seq == record.seq
            digest.update(repr((assignment.seq, assignment.cores,
                                tuple(assignment.comm_srcs),
                                assignment.mem_dep,
                                assignment.stolen)).encode())
            if assignment.mem_dep is not None:
                # The orchestrator trains the pair table from every
                # cross-core dependence it wires.
                partitioner.learn_pair(record.pc, assignment.mem_dep[1])
        batches += 1
        cursor += len(batch)
        if batches % 41 == 40 and len(batch) > 1 and cursor not in rewound:
            # A squash: undo the newest half of the batch and re-fetch it.
            rewound.add(cursor)
            cursor -= len(batch) // 2
            partitioner.rewind(cursor)
        if batches % 29 == 0:
            partitioner.retire(committed)
    digest.update(repr(sorted(partitioner.stats.as_dict().items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", ["gcc", "mcf", "milc"])
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_partition_decisions_are_pinned(policy_name, workload):
    assert _drive(policy_name, workload) == PINNED[(policy_name, workload)]


def _fixed_policy(cores_by_seq):
    """A policy that places each record on a given core."""
    return lambda partitioner, batch: [cores_by_seq[r.seq] for r in batch]


def alu(seq, dst, srcs=()):
    return TraceRecord(seq, seq, OpClass.IALU, dst, tuple(srcs))


def test_repeated_source_is_communicated_once():
    partitioner = Partitioner(FgStpParams())
    set_policy(partitioner, _fixed_policy({0: 0, 1: 1}))
    partitioner.partition([alu(0, dst=5)])
    (consumer,) = partitioner.partition([alu(1, dst=6, srcs=(5, 5))])
    assert consumer.cores == (1,)
    assert consumer.comm_srcs == [(0, 1)]
    assert partitioner.stats.comm_values == 1


def test_repeated_unavailable_source_costs_two_seeds():
    # Both reads of r5 would have to be seeded across the fabric, so the
    # instruction is not cheap enough to replicate even though its value
    # is consumed on both cores.
    partitioner = Partitioner(FgStpParams())
    set_policy(partitioner, _fixed_policy({0: 0, 1: 1, 2: 0, 3: 1}))
    partitioner.partition([alu(0, dst=5)])
    result = partitioner.partition([alu(1, dst=6, srcs=(5, 5)),
                                    alu(2, dst=7, srcs=(6,)),
                                    alu(3, dst=8, srcs=(6,))])
    assert result[0].cores == (1,)


def test_replication_sees_the_producer_before_it_not_a_later_one():
    # r2 is written at seq 1 (core 0, not replicated) and overwritten at
    # seq 3 by a replica.  The candidate at seq 2 reads r2 from seq 1, so
    # with r4 also in flight on one core it must seed two sources and is
    # not replicated.  Reading r2 from the later replica would make it
    # look like a one-seed candidate.
    cores = {0: 0, 1: 0, 2: 1, 3: 0, 4: 0, 5: 1}
    partitioner = Partitioner(FgStpParams())
    set_policy(partitioner, _fixed_policy(cores))
    partitioner.partition([alu(0, dst=4)])
    result = partitioner.partition([
        alu(1, dst=2),
        alu(2, dst=3, srcs=(2, 4)),
        alu(3, dst=2),
        alu(4, dst=5, srcs=(2, 3)),
        alu(5, dst=6, srcs=(2, 3)),
    ])
    assert [a.cores for a in result] \
        == [(0,), (1,), (0, 1), (0,), (1,)]
    assert result[1].comm_srcs == [(1, 1), (0, 1)]
    # The consumers read r2 from the replica: only r3 crosses.
    assert result[3].comm_srcs == [(2, 0)]
    assert result[4].comm_srcs == []


def test_self_overwrite_reads_the_previous_value():
    # seq 3 reads and writes r7.  Its r7 comes from the replica at seq 1,
    # which is free, so with r4 seeded from core 0 it is a one-seed
    # candidate and replicates.  Treating seq 3 as its own producer would
    # count two seeds.
    cores = {0: 0, 1: 0, 2: 1, 3: 0, 4: 0, 5: 1}
    partitioner = Partitioner(FgStpParams())
    set_policy(partitioner, _fixed_policy(cores))
    partitioner.partition([alu(0, dst=4)])
    result = partitioner.partition([
        alu(1, dst=7),
        alu(2, dst=8, srcs=(7,)),
        alu(3, dst=7, srcs=(7, 4)),
        alu(4, dst=9, srcs=(7,)),
        alu(5, dst=10, srcs=(7,)),
    ])
    assert [a.cores for a in result] \
        == [(0, 1), (1,), (0, 1), (0,), (1,)]
    assert [a.comm_srcs for a in result] == [[], [], [(0, 1)], [], []]
