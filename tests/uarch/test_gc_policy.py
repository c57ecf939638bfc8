"""The simulator's garbage-collector policy.

Every run executes under :func:`repro.uarch.pipeline.kernel.collector_policy`:
the young-generation threshold is raised to ``GC_YOUNG_THRESHOLD`` for the
run and the caller's setting is restored afterwards, and a finished
Fg-STP machine holds no reference cycle, so reference counting frees it.
"""

import gc
import weakref

import pytest

from repro.corefusion.machine import CoreFusionMachine
from repro.fgstp.adaptive import AdaptiveFgStpMachine
from repro.fgstp.orchestrator import FgStpMachine
from repro.integrity.errors import SimulationLimit
from repro.uarch.cache.hierarchy import CacheHierarchy
from repro.uarch.params import small_core_config
from repro.uarch.pipeline.core import CycleCore
from repro.uarch.pipeline.kernel import GC_YOUNG_THRESHOLD
from repro.uarch.pipeline.machine import SingleCoreMachine
from repro.workloads.generator import generate_trace

#: A caller setting no machine would pick itself.
CALLER = (1234, 7, 9)
MACHINES = ("single", "corefusion", "fgstp", "fgstp-adaptive")


def build(name, **options):
    base = small_core_config()
    if name == "single":
        return SingleCoreMachine(base, **options)
    if name == "corefusion":
        return CoreFusionMachine(base, **options)
    if name == "fgstp":
        return FgStpMachine(base, **options)
    # Small regions, so one run drives several inner region runs.
    return AdaptiveFgStpMachine(base, sample_instructions=300,
                                region_instructions=600, **options)


@pytest.fixture
def collector():
    """Leave the interpreter's collector as the test found it."""
    threshold = gc.get_threshold()
    enabled = gc.isenabled()
    debug = gc.get_debug()
    yield
    gc.set_threshold(*threshold)
    gc.set_debug(debug)
    gc.garbage.clear()
    if enabled:
        gc.enable()
    else:
        gc.disable()


class ThresholdProbe:
    """Commit hook recording the collector's setting during the run."""

    def __init__(self, fail_at=None):
        self.seen = set()
        self.calls = 0
        self.fail_at = fail_at

    def __call__(self, _uop, _cycle):
        self.calls += 1
        self.seen.add((gc.isenabled(), gc.get_threshold()))
        if self.calls == self.fail_at:
            raise RuntimeError("probe failure")


@pytest.mark.parametrize("name", MACHINES)
def test_threshold_raised_for_the_run_and_restored(name, collector):
    gc.set_threshold(*CALLER)
    probe = ThresholdProbe()
    build(name, commit_hook=probe).run(generate_trace("gcc", 1500),
                                       warmup=300)
    assert probe.seen == {(True, (GC_YOUNG_THRESHOLD,) + CALLER[1:])}
    assert gc.get_threshold() == CALLER


@pytest.mark.parametrize("name", ("single", "corefusion", "fgstp"))
def test_threshold_restored_after_simulation_limit(name, collector):
    gc.set_threshold(*CALLER)
    with pytest.raises(SimulationLimit):
        build(name, max_cycles=50).run(generate_trace("gcc", 1500))
    assert gc.get_threshold() == CALLER


def test_nested_runs_restore_after_an_inner_failure(collector):
    """An inner region run that raises unwinds through the adaptive
    machine's own policy; the caller's setting comes back exactly."""
    gc.set_threshold(*CALLER)
    probe = ThresholdProbe(fail_at=700)
    with pytest.raises(RuntimeError, match="probe failure"):
        build("fgstp-adaptive", commit_hook=probe).run(
            generate_trace("gcc", 1500), warmup=300)
    assert probe.seen == {(True, (GC_YOUNG_THRESHOLD,) + CALLER[1:])}
    assert gc.get_threshold() == CALLER


@pytest.mark.parametrize("caller", (
    (0, 10, 10),                        # automatic collection off
    (GC_YOUNG_THRESHOLD * 2, 10, 10),   # already higher
))
@pytest.mark.parametrize("name", ("fgstp", "fgstp-adaptive"))
def test_caller_setting_left_alone(name, caller, collector):
    gc.set_threshold(*caller)
    probe = ThresholdProbe()
    build(name, commit_hook=probe).run(generate_trace("gcc", 1500),
                                       warmup=300)
    assert probe.seen == {(True, caller)}
    assert gc.get_threshold() == caller


@pytest.mark.parametrize("name", ("fgstp", "fgstp-adaptive"))
def test_disabled_collector_left_alone(name, collector):
    gc.set_threshold(*CALLER)
    gc.disable()
    probe = ThresholdProbe()
    build(name, commit_hook=probe).run(generate_trace("gcc", 1500),
                                       warmup=300)
    assert probe.seen == {(False, CALLER)}
    assert not gc.isenabled()
    assert gc.get_threshold() == CALLER


def test_finished_fgstp_machine_freed_by_reference_counting(collector):
    gc.collect()
    gc.disable()
    machine = build("fgstp")
    result = machine.run(generate_trace("milc", 3000), warmup=1000)
    assert result.instructions == 2000
    ref = weakref.ref(machine)
    del machine
    assert ref() is None


def test_adaptive_run_leaves_no_machine_in_cyclic_garbage(collector):
    gc.collect()
    gc.disable()
    machine = build("fgstp-adaptive")
    result = machine.run(generate_trace("milc", 3000), warmup=1000)
    assert len(result.extra["modes"]) > 1
    del machine, result
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    leaked = {type(obj).__name__ for obj in gc.garbage
              if isinstance(obj, (FgStpMachine, SingleCoreMachine,
                                  CycleCore, CacheHierarchy))}
    assert not leaked
