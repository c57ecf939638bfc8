"""Tests for adaptive (coarse-grain reconfiguring) Fg-STP."""

import pytest

from repro.fgstp.adaptive import AdaptiveFgStpMachine, simulate_fgstp_adaptive
from repro.uarch.params import small_core_config
from repro.uarch.pipeline.machine import simulate_single_core
from repro.workloads.generator import generate_trace


def test_validation():
    base = small_core_config()
    with pytest.raises(ValueError):
        AdaptiveFgStpMachine(base, sample_instructions=0)
    with pytest.raises(ValueError):
        AdaptiveFgStpMachine(base, sample_instructions=100,
                             region_instructions=50)


def test_commits_everything():
    trace = generate_trace("gcc", 5000)
    machine = AdaptiveFgStpMachine(small_core_config(),
                                   sample_instructions=500,
                                   region_instructions=2000)
    result = machine.run(trace, workload="gcc")
    assert result.instructions == 5000
    assert result.machine == "fgstp-adaptive"
    assert result.extra["fgstp_regions"] + result.extra["single_regions"] \
        == len(result.extra["modes"])


def test_never_much_worse_than_single_core():
    trace = generate_trace("mcf", 6000)
    base = small_core_config()
    single = simulate_single_core(trace, base)
    adaptive = simulate_fgstp_adaptive(trace, base)
    # Mode sampling bounds the downside (small slack for sampling and
    # reconfiguration costs).
    assert adaptive.cycles <= 1.2 * single.cycles


def test_modes_recorded():
    trace = generate_trace("hmmer", 4000)
    machine = AdaptiveFgStpMachine(small_core_config(),
                                   sample_instructions=400,
                                   region_instructions=1500)
    result = machine.run(trace)
    assert all(mode in ("single", "fgstp")
               for mode in result.extra["modes"])
    assert len(result.extra["modes"]) >= 2


def test_switch_penalty_counted():
    trace = generate_trace("gcc", 4000)
    machine = AdaptiveFgStpMachine(small_core_config(),
                                   sample_instructions=400,
                                   region_instructions=1200,
                                   reconfigure_penalty=100)
    result = machine.run(trace)
    assert result.extra["switches"] >= 0


@pytest.mark.parametrize("length,warmup", [(5000, 0), (5000, 1200),
                                           (4100, 300), (900, 500)])
def test_regions_are_dense_from_zero(length, warmup):
    # The sampling run slices each region's prefix as a trace of its
    # own, which is only valid because every region is re-sequenced.
    trace = generate_trace("mcf", length)
    machine = AdaptiveFgStpMachine(small_core_config(),
                                   sample_instructions=400,
                                   region_instructions=1500)
    regions = machine._regions(trace, warmup)
    assert regions
    for region_trace, region_warmup in regions:
        assert [record.seq for record in region_trace] \
            == list(range(len(region_trace)))
        assert region_warmup < len(region_trace)
