"""The adaptive machine's winner resumes from its own sample run.

Each region is sampled on a single core and on the Fg-STP pair, and the
faster mode runs the region.  The winner does not re-simulate the
sample: it resumes from a snapshot its sample run took at the last safe
commit count (or *is* its sample run when the sample covers the region),
and the commit-hook and tracer calls the sample made before the
snapshot are replayed.  These tests pin that against a local copy of the
re-simulating policy -- fresh sample runs, then a fresh winner run of
the whole region -- on every observable: cycles, instructions, modes,
CPI slots, the commit stream and the tracer's event list.
"""

import hashlib

import pytest

from repro.ckpt.state import CheckpointMismatch
from repro.corefusion.machine import CoreFusionMachine
from repro.fgstp.adaptive import AdaptiveFgStpMachine
from repro.fgstp.orchestrator import FgStpMachine
from repro.isa.interpreter import run_program
from repro.obs.tracer import PipelineTracer
from repro.oracle import ProgramFuzzer
from repro.uarch.cache.cache import Cache
from repro.uarch.params import CacheParams, core_config
from repro.uarch.pipeline.machine import SingleCoreMachine
from repro.workloads.generator import generate_trace


class ResimulatingAdaptive(AdaptiveFgStpMachine):
    """The policy before snapshots: unobserved sample runs on fresh
    machines, then the winner re-simulates the whole region, observed,
    on a third."""

    def _run_region(self, region_trace, region_warmup, workload,
                    offset=0, cycle_offset=0, previous_mode=None):
        sample_end = min(len(region_trace),
                         region_warmup + self.sample_instructions)
        sample = region_trace[:sample_end]
        single_sample = self._fresh("single").run(
            sample, workload=workload, warmup=region_warmup)
        fgstp_sample = self._fresh("fgstp").run(
            sample, workload=workload, warmup=region_warmup)
        hook = self._region_hook(offset)
        mode = ("fgstp" if fgstp_sample.cycles <= single_sample.cycles
                else "single")
        tracer = self.tracer
        if tracer is not None:
            if previous_mode is not None and mode != previous_mode:
                tracer.instant("reconfig", cycle_offset,
                               detail=f"{previous_mode}->{mode}",
                               dur=self.reconfigure_penalty)
                cycle_offset += self.reconfigure_penalty
            tracer.begin_epoch(cycle_offset, offset)
        return mode, self._fresh(mode, commit_hook=hook,
                                 tracer=tracer).run(
            region_trace, workload=workload, warmup=region_warmup)

    def _fresh(self, mode, **observers):
        options = dict(watchdog_window=self.watchdog_window,
                       skip_ahead=self.skip_ahead, checkpoint_interval=0,
                       **observers)
        if mode == "fgstp":
            return FgStpMachine(self.base, self.fgstp, **options)
        return SingleCoreMachine(self.base, **options)


class Digest:
    """Commit hook hashing the stream, region boundaries included."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def __call__(self, uop, cycle):
        self._hash.update(b"%d,%d,%d,%d;" % (uop.seq, cycle, uop.core_id,
                                             uop.record.pc))

    def new_epoch(self):
        self._hash.update(b"|")

    def hexdigest(self):
        return self._hash.hexdigest()


#: (trace length, warm-up, sample, region).  ``snapshots``: both modes
#: snapshot in the first region and the second region's sample covers
#: it.  ``multi-region``: only the single core's sample is long enough
#: to snapshot (Fg-STP's lookahead is a 512-entry window).  ``whole``:
#: one region, entirely sampled.  ``no-snapshot``: a sample shorter than
#: either mode's lookahead, so the winner re-runs from the start.
SIZINGS = {
    "snapshots": (3000, 500, 1000, 1500),
    "multi-region": (3000, 500, 400, 1500),
    "whole": (2000, 500, 4000, 4000),
    "no-snapshot": (2000, 500, 50, 1000),
}

PROGRAMS = ("gcc", "mcf", "milc", "fuzz")


def program_trace(program, length):
    if program == "fuzz":
        generated = ProgramFuzzer(seed=2, blocks=600).generate(0)
        return run_program(generated.program).trace[:length]
    return generate_trace(program, length, 7)


def observed_run(machine_class, base, trace, warmup, sample, region):
    digest = Digest()
    tracer = PipelineTracer(capacity=1 << 20)
    result = machine_class(base, sample_instructions=sample,
                           region_instructions=region, commit_hook=digest,
                           tracer=tracer).run(trace, workload="t",
                                              warmup=warmup)
    return result, digest.hexdigest(), tracer


def outputs(result):
    return (result.cycles, result.instructions, result.extra["modes"],
            result.extra["cpistack"]["slots"])


@pytest.mark.parametrize("sizing", sorted(SIZINGS))
@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("config", ["small", "medium"])
def test_resumed_winner_matches_resimulation(config, program, sizing):
    length, warmup, sample, region = SIZINGS[sizing]
    base = core_config(config)
    trace = program_trace(program, length)
    assert len(trace) == length

    expected, expected_digest, expected_tracer = observed_run(
        ResimulatingAdaptive, base, trace, warmup, sample, region)
    result, digest, tracer = observed_run(
        AdaptiveFgStpMachine, base, trace, warmup, sample, region)
    bare = AdaptiveFgStpMachine(
        base, sample_instructions=sample,
        region_instructions=region).run(trace, workload="t", warmup=warmup)

    assert outputs(result) == outputs(expected)
    assert outputs(bare) == outputs(expected)
    assert result.instructions == length - warmup
    assert digest == expected_digest
    assert [event.as_dict() for event in tracer.events()] \
        == [event.as_dict() for event in expected_tracer.events()]
    assert (tracer.recorded, tracer.epochs) \
        == (expected_tracer.recorded, expected_tracer.epochs)


@pytest.mark.parametrize("machine_class",
                         [SingleCoreMachine, CoreFusionMachine, FgStpMachine])
def test_snapshot_resume_matches_straight_through(machine_class):
    base = core_config("medium")
    trace = generate_trace("gcc", 2500, 3)
    warmup = 500
    straight = machine_class(base).run(trace, workload="gcc",
                                       warmup=warmup)

    head = trace[:1600]
    sampler = machine_class(base)
    at = sampler.snapshot_point(len(head) - warmup)
    assert at > 0
    snapshot = sampler.request_snapshot(at)
    sampler.run(head, workload="gcc", warmup=warmup)
    assert snapshot.payload is not None
    assert at <= snapshot.committed < at + sampler._lookahead()

    resumed = machine_class(base).run(trace, workload="gcc", warmup=warmup,
                                      resume_from=snapshot)
    assert resumed.cycles == straight.cycles
    assert resumed.extra == straight.extra


@pytest.mark.parametrize("machine_class", [SingleCoreMachine, FgStpMachine])
def test_snapshot_past_the_safe_point_is_refused(machine_class):
    base = core_config("small")
    head = generate_trace("mcf", 1500, 4)
    machine = machine_class(base)
    machine.request_snapshot(machine.snapshot_point(len(head)) + 1)
    with pytest.raises(ValueError, match="past the safe point"):
        machine.run(head)


def test_snapshot_checks_the_fetch_cursor():
    # A machine understating its lookahead is caught at the snapshot,
    # before the state of a run that has seen its trace's end is kept.
    class Understated(FgStpMachine):
        def _lookahead(self):
            return 1

    head = generate_trace("gcc", 1200, 4)
    machine = Understated(core_config("small"))
    machine.request_snapshot(len(head) - 1)
    with pytest.raises(RuntimeError, match="front end has reached"):
        machine.run(head)


def test_untaken_snapshot_is_not_resumed():
    base = core_config("small")
    trace = generate_trace("gcc", 800, 4)
    snapshot = SingleCoreMachine(base).request_snapshot(10)
    with pytest.raises(CheckpointMismatch, match="never taken"):
        SingleCoreMachine(base).run(trace, resume_from=snapshot)


def test_cache_lru_eviction_order_and_writebacks():
    # One set of two ways: every line maps to it.
    cache = Cache(CacheParams(size_bytes=128, assoc=2, line_bytes=64,
                              hit_latency=1))
    a, b, c, d = (0, 64, 128, 192)
    cache.access(a)                    # miss: [a]
    cache.access(b, is_write=True)     # miss: [a, b*]
    cache.access(a)                    # hit, a most recent: [b*, a]
    cache.access(c)                    # evicts dirty b: [a, c]
    assert not cache.contains(b)
    assert cache.stats.writebacks == 1
    cache.access(a, is_write=True)     # hit dirties a: [c, a*]
    cache.access(d)                    # evicts clean c: [a*, d]
    assert not cache.contains(c)
    assert cache.stats.writebacks == 1
    cache.access(b)                    # evicts dirty a: [d, b]
    assert not cache.contains(a)
    assert cache.contains(d) and cache.contains(b)
    assert cache.stats.writebacks == 2
    assert (cache.stats.accesses, cache.stats.hits, cache.stats.misses) \
        == (7, 2, 5)
