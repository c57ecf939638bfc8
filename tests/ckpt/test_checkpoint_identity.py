"""The checkpoint/restore hard invariant: resume is bit-identical.

For every machine, over random programs:

* taking checkpoints is invisible — a checkpointing run produces
  exactly the result of a plain run;
* restoring any snapshot into a *fresh* machine and resuming produces
  exactly the result of the straight-through run;
* both hold with skip-ahead on and off, and under the commit-stream
  oracle (the whole suite already runs with ``REPRO_CPISTACK_CHECK``).
"""

import dataclasses

import pytest

from repro.corefusion.machine import CoreFusionMachine
from repro.fgstp.adaptive import AdaptiveFgStpMachine
from repro.fgstp.orchestrator import CHECKPOINT_STATE_VERSION, FgStpMachine
from repro.uarch.params import core_config
from repro.uarch.pipeline.machine import SingleCoreMachine
from repro.workloads.generator import generate_trace

MACHINES = ("single", "corefusion", "fgstp", "fgstp-adaptive")


class CapturingSink:
    """In-memory checkpoint sink: keeps every snapshot, in order."""

    def __init__(self):
        self.saved = []

    def save(self, key, checkpoint):
        self.saved.append((key, checkpoint))
        return None


def build(name, base, **kwargs):
    if name == "single":
        return SingleCoreMachine(base, **kwargs)
    if name == "corefusion":
        return CoreFusionMachine(base, **kwargs)
    if name == "fgstp":
        return FgStpMachine(base, None, **kwargs)
    if name == "fgstp-adaptive":
        # Small regions so a short trace still crosses several
        # checkpointable region boundaries.
        return AdaptiveFgStpMachine(base, None, sample_instructions=400,
                                    region_instructions=1200, **kwargs)
    raise ValueError(name)


@pytest.mark.parametrize("name", MACHINES)
@pytest.mark.parametrize("seed", (1, 5))
def test_restore_and_resume_is_bit_identical(name, seed):
    base = core_config("small")
    trace = generate_trace("gcc", 3000, seed)

    plain = build(name, base).run(trace, workload="gcc", warmup=600)

    sink = CapturingSink()
    straight = build(name, base, checkpoint_interval=700,
                     checkpoint_sink=sink) \
        .run(trace, workload="gcc", warmup=600)
    # Taking checkpoints must not perturb timing in any way.
    assert straight.as_dict() == plain.as_dict()
    assert sink.saved, f"{name} took no checkpoints"

    # Resume from the earliest and the latest snapshot: both must
    # replay the remainder into exactly the straight-through result.
    for _, checkpoint in (sink.saved[0], sink.saved[-1]):
        resumed = build(name, base).run(trace, workload="gcc", warmup=600,
                                        resume_from=checkpoint)
        assert resumed.as_dict() == straight.as_dict()


@pytest.mark.parametrize("name", MACHINES)
def test_every_intermediate_checkpoint_resumes_identically(name):
    """Property over the whole snapshot sequence of one run."""
    base = core_config("small")
    trace = generate_trace("mcf", 2600, 9)
    sink = CapturingSink()
    straight = build(name, base, checkpoint_interval=500,
                     checkpoint_sink=sink) \
        .run(trace, workload="mcf", warmup=400)
    assert sink.saved
    committed_marks = [ckpt.committed for _, ckpt in sink.saved]
    assert committed_marks == sorted(committed_marks)
    for _, checkpoint in sink.saved:
        resumed = build(name, base).run(trace, workload="mcf", warmup=400,
                                        resume_from=checkpoint)
        assert resumed.as_dict() == straight.as_dict()


@pytest.mark.parametrize("skip", (False, True))
def test_identity_holds_with_skip_ahead_toggled(skip):
    base = core_config("small")
    trace = generate_trace("libquantum", 3000, 4)
    sink = CapturingSink()
    machine = build("single", base, checkpoint_interval=600,
                    checkpoint_sink=sink)
    machine.skip_ahead = skip
    straight = machine.run(trace, workload="libquantum", warmup=500)
    assert sink.saved
    resumed_machine = build("single", base)
    resumed_machine.skip_ahead = skip
    resumed = resumed_machine.run(trace, workload="libquantum", warmup=500,
                                  resume_from=sink.saved[-1][1])
    assert resumed.as_dict() == straight.as_dict()


@pytest.mark.parametrize("name", ("single", "fgstp"))
def test_checkpointing_run_is_clean_under_oracle(name):
    """Snapshot writes must not perturb the retirement stream: a
    checkpointing run under the commit-stream oracle retires exactly
    the trace (any divergence raises)."""
    from repro.oracle.attach import run_trace_under_oracle

    base = core_config("small")
    trace = generate_trace("gcc", 2500, 2)
    sink = CapturingSink()
    checked = run_trace_under_oracle(name, trace, base, workload="gcc",
                                     warmup=500, checkpoint_interval=600,
                                     checkpoint_sink=sink)
    assert sink.saved, "oracle run took no checkpoints"
    plain = run_trace_under_oracle(name, trace, base, workload="gcc",
                                   warmup=500)
    checked_d, plain_d = checked.as_dict(), plain.as_dict()
    # The oracle block reports bookkeeping (e.g. checked counts), which
    # is identical anyway; compare everything.
    assert checked_d == plain_d


def test_resume_rejects_foreign_checkpoint():
    from repro.ckpt.state import CheckpointMismatch

    base = core_config("small")
    trace = generate_trace("gcc", 2000, 1)
    sink = CapturingSink()
    build("single", base, checkpoint_interval=500, checkpoint_sink=sink) \
        .run(trace, workload="gcc", warmup=400)
    assert sink.saved
    checkpoint = sink.saved[-1][1]
    other = generate_trace("gcc", 2000, 2)
    with pytest.raises(CheckpointMismatch):
        build("single", base).run(other, workload="gcc", warmup=400,
                                  resume_from=checkpoint)
    with pytest.raises(CheckpointMismatch):
        build("single", base).run(trace, workload="gcc", warmup=300,
                                  resume_from=checkpoint)


@pytest.mark.parametrize("stale_suffix", (
    "",                                          # written before versions
    # every older layout
    *(f"|state=v{version}" for version in range(2, CHECKPOINT_STATE_VERSION)),
))
def test_fgstp_resume_rejects_another_state_layout(stale_suffix):
    """A checkpoint pickled under another layout of the Fg-STP state is
    refused before anything is unpickled, so the run falls back to a
    cold start instead of resuming from half-restored state."""
    from repro.ckpt.state import CheckpointMismatch

    base = core_config("small")
    trace = generate_trace("gcc", 2000, 1)
    sink = CapturingSink()
    build("fgstp", base, checkpoint_interval=500, checkpoint_sink=sink) \
        .run(trace, workload="gcc", warmup=400)
    assert sink.saved
    checkpoint = sink.saved[-1][1]
    current = build("fgstp", base).checkpoint_params_key()
    assert checkpoint.params_key == current
    assert current.endswith(f"|state=v{CHECKPOINT_STATE_VERSION}")
    stale = dataclasses.replace(
        checkpoint,
        params_key=current.rsplit("|state=", 1)[0] + stale_suffix)
    with pytest.raises(CheckpointMismatch):
        build("fgstp", base).run(trace, workload="gcc", warmup=400,
                                 resume_from=stale)


@pytest.mark.parametrize("name", ("single", "corefusion"))
def test_single_core_resume_rejects_unversioned_layout(name):
    """Single-core and Core Fusion keys carry the state version too: a
    checkpoint written before they did (no ``|state=`` suffix) is
    refused as a mismatch, not half-restored."""
    from repro.ckpt.state import CheckpointMismatch

    base = core_config("small")
    trace = generate_trace("gcc", 2000, 1)
    sink = CapturingSink()
    build(name, base, checkpoint_interval=500, checkpoint_sink=sink) \
        .run(trace, workload="gcc", warmup=400)
    assert sink.saved
    checkpoint = sink.saved[-1][1]
    current = build(name, base).checkpoint_params_key()
    assert checkpoint.params_key == current
    assert current.endswith(f"|state=v{CHECKPOINT_STATE_VERSION}")
    unversioned = dataclasses.replace(
        checkpoint, params_key=current.rsplit("|state=", 1)[0])
    with pytest.raises(CheckpointMismatch):
        build(name, base).run(trace, workload="gcc", warmup=400,
                              resume_from=unversioned)
