"""Functional warm-up of caches and branch predictors.

Short simulation windows over-report compulsory cache misses and cold
branch-predictor behaviour.  The standard remedy (used by the paper's
methodology family) is to *functionally* warm the micro-architectural
state on a prefix of the trace — touch the caches and train the
predictor without timing anything — and measure only the suffix.

:func:`warm_state` performs that functional pass; :func:`reseq` densely
renumbers a trace suffix so it is a valid stand-alone trace.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..isa.opcodes import OpClass
from ..isa.program import INSTRUCTION_BYTES
from ..trace.record import TraceRecord
from .branch.btb import FrontEndPredictor
from .cache.hierarchy import CacheHierarchy

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_JUMP = OpClass.JUMP


def warm_state(records: Sequence[TraceRecord],
               hierarchy: Optional[CacheHierarchy] = None,
               predictor: Optional[FrontEndPredictor] = None,
               line_bytes: int = 64) -> None:
    """Functionally touch caches / train the predictor with *records*.

    Predictor statistics accumulated during warm-up are reset afterwards
    so reported misprediction rates cover only the measured window.
    """
    last_line = -1
    for record in records:
        op = record.op_class
        if hierarchy is not None:
            line = (record.pc * INSTRUCTION_BYTES) // line_bytes
            if line != last_line:
                hierarchy.l1i.access(record.pc * INSTRUCTION_BYTES)
                last_line = line
            if op is _LOAD:
                hierarchy.l1d.access(record.mem_addr, is_write=False)
            elif op is _STORE:
                hierarchy.l1d.access(record.mem_addr, is_write=True)
        if predictor is not None and (op is _BRANCH or op is _JUMP):
            predictor.predict(record)
            predictor.update(record)
    if predictor is not None:
        predictor.lookups = 0
        predictor.mispredictions = 0
    if hierarchy is not None:
        # A full counter reset: per-level cache stats, MSHR stall
        # cycles and prefetcher counters.  (Re-initialising the three
        # CacheStats objects in place used to skip the latter two.)
        hierarchy.reset_stats()


def reseq(records: Sequence[TraceRecord]) -> List[TraceRecord]:
    """Densely renumber *records* starting at seq 0 (fresh objects)."""
    return [
        TraceRecord(seq, r.pc, r.op_class, r.dst, r.srcs,
                    r.mem_addr, r.mem_size, r.taken, r.target)
        for seq, r in enumerate(records)
    ]


def check_warmup(length: int, warmup: int) -> None:
    """Raise ValueError unless *warmup* leaves instructions of a
    *length*-record trace to measure."""
    if warmup < 0:
        raise ValueError(f"negative warmup: {warmup}")
    if warmup and warmup >= length:
        # An empty trace must raise too — the old `len(records) > 0`
        # guard silently returned ([], []) for it.
        raise ValueError(
            f"warmup {warmup} consumes the whole {length}-record trace")


def split_warmup(records: Sequence[TraceRecord],
                 warmup: int) -> tuple:
    """Split a trace into ``(warmup_prefix, reseq'd measured_suffix)``.

    Raises:
        ValueError: when *warmup* leaves no instructions to measure.
    """
    check_warmup(len(records), warmup)
    if warmup == 0:
        return [], list(records)
    return list(records[:warmup]), reseq(records[warmup:])
