"""Unit tests for the suite registry and trace caches."""

import pytest

from repro.workloads.suite import (
    DEFAULT_CACHE,
    DISK_CACHE_MEMORY_TRACES,
    DiskTraceCache,
    TraceCache,
    iter_suite,
    suite_names,
    trace_key,
    workload_suite_of,
)


def test_suite_names_selectors():
    assert len(suite_names("int")) == 12
    assert len(suite_names("fp")) == 8
    assert suite_names("all") == suite_names("int") + suite_names("fp")


def test_suite_names_rejects_unknown():
    with pytest.raises(ValueError, match="unknown suite"):
        suite_names("spec2017")


def test_workload_suite_of():
    assert workload_suite_of("mcf") == "int"
    assert workload_suite_of("lbm") == "fp"


def test_cache_returns_same_object():
    cache = TraceCache()
    a = cache.get("gcc", 500)
    b = cache.get("gcc", 500)
    assert a is b
    assert cache.get("gcc", 500, seed=2) is not a
    assert cache.get("gcc", 600) is not a


def test_cache_clear():
    cache = TraceCache()
    a = cache.get("gcc", 500)
    cache.clear()
    assert cache.get("gcc", 500) is not a
    assert cache.get("gcc", 500) == a  # but equal content


def test_iter_suite_yields_all():
    items = list(iter_suite(100, suite="fp", cache=TraceCache()))
    assert [name for name, _ in items] == suite_names("fp")
    assert all(len(trace) == 100 for _, trace in items)


def test_default_cache_exists():
    assert isinstance(DEFAULT_CACHE, TraceCache)


def test_trace_key_is_stable_and_axis_sensitive():
    key = trace_key("gcc", 500, 1)
    assert key == trace_key("gcc", 500, 1)
    assert len({key, trace_key("mcf", 500, 1), trace_key("gcc", 600, 1),
                trace_key("gcc", 500, 2)}) == 4


def test_disk_cache_memoises_and_persists(tmp_path):
    cache = DiskTraceCache(tmp_path)
    first = cache.get("gcc", 200)
    assert cache.get("gcc", 200) is first  # in-memory tier
    assert cache.hits == 1 and cache.misses == 1
    assert cache.disk_misses == 1 and cache.disk_hits == 0
    assert cache.path_for("gcc", 200).exists()


def test_disk_cache_memory_tier_keeps_recent_traces(tmp_path):
    cache = DiskTraceCache(tmp_path)
    seeds = range(DISK_CACHE_MEMORY_TRACES + 1)
    for seed in seeds:
        cache.get("gcc", 100, seed=seed)
    cache.get("gcc", 100, seed=seeds[-1])  # the newest stays in memory
    assert cache.hits == 1
    cache.get("gcc", 100, seed=0)  # the oldest came back from disk
    assert cache.hits == 1 and cache.disk_hits == 1
    assert cache.disk_misses == len(seeds)
    assert len(cache._traces) == DISK_CACHE_MEMORY_TRACES


def test_plain_trace_cache_is_unbounded():
    cache = TraceCache()
    first = cache.get("gcc", 100, seed=0)
    for seed in range(1, DISK_CACHE_MEMORY_TRACES + 2):
        cache.get("gcc", 100, seed=seed)
    assert cache.get("gcc", 100, seed=0) is first


def test_disk_cache_shared_between_instances(tmp_path):
    DiskTraceCache(tmp_path).get("mcf", 150, seed=3)
    other = DiskTraceCache(tmp_path)
    trace = other.get("mcf", 150, seed=3)
    assert other.disk_hits == 1 and other.disk_misses == 0
    assert trace == TraceCache().get("mcf", 150, seed=3)


def test_disk_cache_regenerates_corrupt_entry(tmp_path):
    cache = DiskTraceCache(tmp_path)
    expected = cache.get("gcc", 100)
    path = cache.path_for("gcc", 100)
    path.write_bytes(b"definitely not a trace")
    fresh = DiskTraceCache(tmp_path)
    assert fresh.get("gcc", 100) == expected
    assert fresh.disk_misses == 1  # regenerated, not propagated
    # The rewritten entry is valid again.
    assert DiskTraceCache(tmp_path).get("gcc", 100) == expected


def test_disk_cache_ignores_stale_length_mismatch(tmp_path):
    """A truncated-but-parseable entry must not satisfy a longer get."""
    cache = DiskTraceCache(tmp_path)
    cache.get("gcc", 120)
    # Forge a shorter trace under the longer trace's key.
    short = TraceCache().get("gcc", 60)
    from repro.trace.io import write_trace
    write_trace(short, cache.path_for("gcc", 120))
    fresh = DiskTraceCache(tmp_path)
    assert len(fresh.get("gcc", 120)) == 120
