"""Benchmark-suite registry: names, trace caching and suite iteration.

Experiments run on the full suite; regenerating a trace per experiment is
wasted work, so :class:`TraceCache` memoises generated traces within a
process (keyed by name/length/seed) and :class:`DiskTraceCache` extends
the memo with a content-hash-keyed on-disk store so worker *processes*
(see :mod:`repro.harness.parallel`) share generated traces instead of
regenerating them.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..trace.io import TraceFormatError, read_trace, write_trace
from ..trace.record import TraceRecord
from .generator import generate_trace
from .profiles import ALL_NAMES, SPEC_FP_NAMES, SPEC_INT_NAMES, get_profile

#: Bump when trace *content* for a given (name, length, seed) can change
#: (generator algorithm or profile calibration changes) so stale disk
#: cache entries are never reused.
TRACE_CACHE_VERSION = 1

#: Traces a :class:`DiskTraceCache` keeps in memory, least recently used
#: first out.  The experiment engine runs the jobs on one trace one after
#: another (``repro.harness.parallel._grouped_by_trace``), so a worker
#: returns to an older trace only to retry a job, and the disk tier
#: serves it then.  The bound keeps a worker's memory independent of how
#: many jobs it happens to run.
DISK_CACHE_MEMORY_TRACES = 2


def trace_key(name: str, length: int, seed: int) -> str:
    """Stable content-hash key for one generated trace.

    The key covers the generation inputs *and* the workload profile's
    calibration (via its dataclass repr), so editing a profile invalidates
    its cached traces automatically.  Unknown names still key cleanly —
    the sweep engine hashes jobs before running them, and a bad
    benchmark must surface as a per-job failure, not a key error.
    """
    try:
        profile = repr(get_profile(name))
    except KeyError:
        profile = "<unknown>"
    blob = f"{TRACE_CACHE_VERSION}|{name}|{length}|{seed}|{profile}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


class TraceCache:
    """Process-wide memo of generated traces."""

    #: Most traces held at once (``None``: unbounded); the least
    #: recently used is dropped first.
    capacity: Optional[int] = None

    def __init__(self):
        self._traces: Dict[Tuple[str, int, int], List[TraceRecord]] = {}

    def get(self, name: str, length: int, seed: int = 1) -> List[TraceRecord]:
        """The (cached) trace for ``(name, length, seed)``."""
        key = (name, length, seed)
        traces = self._traces
        # Popped and reinserted, so insertion order is recency order.
        trace = traces.pop(key, None)
        if trace is None:
            trace = self._load(name, length, seed)
            if self.capacity is not None and len(traces) >= self.capacity:
                del traces[next(iter(traces))]
        traces[key] = trace
        return trace

    def _load(self, name: str, length: int, seed: int) -> List[TraceRecord]:
        return generate_trace(name, length, seed)

    def clear(self) -> None:
        self._traces.clear()


class DiskTraceCache(TraceCache):
    """Trace cache with a shared on-disk tier under *cache_dir*.

    Layout: ``<cache_dir>/traces/<content-hash>.trace`` in the binary
    format of :mod:`repro.trace.io`.  Writes are atomic (temp file +
    ``os.replace``) so concurrent workers racing to fill the same entry
    can never expose a torn file; the losers simply overwrite with
    identical bytes.  A corrupt or truncated entry is moved aside to
    ``<cache_dir>/quarantine/`` (for inspection — a recurring corruption
    points at a storage or writer bug, not bad luck), regenerated and
    rewritten rather than propagated.  The in-memory tier holds only the
    :data:`DISK_CACHE_MEMORY_TRACES` most recently used traces.

    Attributes:
        hits / misses: In-memory tier statistics.
        disk_hits / disk_misses: On-disk tier statistics (misses ran the
            generator and persisted the result).
        quarantined: Corrupt entries moved aside and regenerated.
    """

    capacity = DISK_CACHE_MEMORY_TRACES

    def __init__(self, cache_dir: Union[str, Path]):
        super().__init__()
        self.cache_dir = Path(cache_dir) / "traces"
        self.quarantine_dir = Path(cache_dir) / "quarantine"
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.quarantined = 0

    def path_for(self, name: str, length: int, seed: int = 1) -> Path:
        """On-disk location for one trace (exists only after a get)."""
        return self.cache_dir / f"{trace_key(name, length, seed)}.trace"

    def get(self, name: str, length: int, seed: int = 1) -> List[TraceRecord]:
        if (name, length, seed) in self._traces:
            self.hits += 1
        else:
            self.misses += 1
        return super().get(name, length, seed)

    def _load(self, name: str, length: int, seed: int) -> List[TraceRecord]:
        path = self.path_for(name, length, seed)
        if path.exists():
            try:
                trace = read_trace(path)
                if len(trace) == length:
                    self.disk_hits += 1
                    return trace
                self._quarantine(path, f"length {len(trace)} != {length}")
            except TraceFormatError as exc:
                self._quarantine(path, str(exc))
            except OSError:
                pass  # unreadable, not provably corrupt: regenerate
        self.disk_misses += 1
        trace = generate_trace(name, length, seed)
        self._persist(trace, path)
        return trace

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside so it is kept but never re-served."""
        self.quarantined += 1
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def _persist(self, trace: Sequence[TraceRecord], path: Path) -> None:
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(dir=str(self.cache_dir),
                                            suffix=".tmp")
        try:
            with os.fdopen(handle, "wb") as stream:
                write_trace(trace, stream)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


#: Default shared cache used by the harness and benchmarks.
DEFAULT_CACHE = TraceCache()


def suite_names(suite: str = "all") -> List[str]:
    """Benchmark names for ``"int"``, ``"fp"`` or ``"all"``.

    Raises:
        ValueError: on an unknown suite selector.
    """
    if suite == "int":
        return list(SPEC_INT_NAMES)
    if suite == "fp":
        return list(SPEC_FP_NAMES)
    if suite == "all":
        return list(ALL_NAMES)
    raise ValueError(f"unknown suite {suite!r}; use 'int', 'fp' or 'all'")


def iter_suite(length: int, suite: str = "all", seed: int = 1,
               cache: TraceCache = DEFAULT_CACHE
               ) -> Iterator[Tuple[str, Sequence[TraceRecord]]]:
    """Yield ``(name, trace)`` for every benchmark in *suite*."""
    for name in suite_names(suite):
        yield name, cache.get(name, length, seed)


def workload_suite_of(name: str) -> str:
    """``"int"`` or ``"fp"`` for benchmark *name*."""
    return get_profile(name).suite
