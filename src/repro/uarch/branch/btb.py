"""Branch target buffer and return address stack.

The BTB is a direct-mapped tag-checked target cache; the RAS is a fixed
depth circular stack (overflow silently wraps, as in real hardware).
Together with a direction predictor they form the :class:`FrontEndPredictor`
the pipeline's fetch stage uses.
"""

from __future__ import annotations

from typing import Optional

from ...isa.opcodes import OpClass
from ...trace.record import TraceRecord
from ..params import BranchPredictorParams
from .predictors import DirectionPredictor, make_direction_predictor


class BranchTargetBuffer:
    """Direct-mapped BTB storing the last seen target per branch PC."""

    def __init__(self, entries: int = 2048):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"BTB entries must be a power of two: {entries}")
        self._mask = entries - 1
        self._tags = [None] * entries
        self._targets = [0] * entries

    def lookup(self, pc: int) -> Optional[int]:
        """Predicted target of the branch at *pc*, or ``None`` on miss."""
        index = pc & self._mask
        if self._tags[index] == pc:
            return self._targets[index]
        return None

    def install(self, pc: int, target: int) -> None:
        """Record *target* as the destination of the branch at *pc*."""
        index = pc & self._mask
        self._tags[index] = pc
        self._targets[index] = target


class ReturnAddressStack:
    """Fixed-depth return address stack with wrap-around on overflow."""

    def __init__(self, entries: int = 16):
        if entries <= 0:
            raise ValueError(f"RAS needs at least one entry, got {entries}")
        self._stack = [0] * entries
        self._top = 0
        self._depth = 0
        self._entries = entries

    def push(self, return_pc: int) -> None:
        self._stack[self._top] = return_pc
        self._top = (self._top + 1) % self._entries
        self._depth = min(self._depth + 1, self._entries)

    def pop(self) -> Optional[int]:
        """Predicted return address, or ``None`` when empty."""
        if self._depth == 0:
            return None
        self._top = (self._top - 1) % self._entries
        self._depth -= 1
        return self._stack[self._top]

    def __len__(self) -> int:
        return self._depth


class FrontEndPredictor:
    """Complete front-end prediction: direction + BTB + RAS.

    The fetch stage calls :meth:`predict` with the dynamic record it is
    about to fetch (trace-driven simulation knows the true instruction,
    but *not* its outcome — the predictor only sees the PC and class) and
    learns the truth via :meth:`update` at resolution.
    """

    def __init__(self, params: BranchPredictorParams):
        self.direction: DirectionPredictor = make_direction_predictor(params)
        self.btb = BranchTargetBuffer(params.btb_entries)
        self.ras = ReturnAddressStack(params.ras_entries)
        self.lookups = 0
        self.mispredictions = 0

    def predict(self, record: TraceRecord) -> bool:
        """True when the front end would have fetched down the right path.

        A prediction is correct when both the direction and (for taken
        transfers) the target are right.  ``call``/``ret`` pairs use the
        RAS; other jumps use the BTB.

        The caller is responsible for invoking :meth:`update` afterwards
        with the same record so the predictor trains.
        """
        self.lookups += 1
        correct = self._predict_inner(record)
        if not correct:
            self.mispredictions += 1
        return correct

    def _predict_inner(self, record: TraceRecord) -> bool:
        if record.op_class == OpClass.BRANCH:
            predicted_taken = self.direction.predict(record.pc)
            if predicted_taken != record.taken:
                return False
            if not record.taken:
                return True
            return self.btb.lookup(record.pc) == record.target
        if record.op_class == OpClass.JUMP:
            # Call: push the return address; direct target is exact after
            # decode, so treat direction as always correct.
            if record.dst is not None:  # call writes the link register
                self.ras.push(record.pc + 1)
                return True
            if record.srcs:  # jr / ret: indirect target
                predicted = self.ras.pop()
                if predicted is None:
                    predicted = self.btb.lookup(record.pc)
                return predicted == record.target
            return True  # direct jmp: target known at decode
        return True

    def update(self, record: TraceRecord) -> None:
        """Train with the true outcome of *record*."""
        if record.op_class == OpClass.BRANCH:
            self.direction.update(record.pc, record.taken)
            if record.taken and record.target is not None:
                self.btb.install(record.pc, record.target)
        elif record.op_class == OpClass.JUMP and record.srcs:
            if record.target is not None:
                self.btb.install(record.pc, record.target)

    @property
    def misprediction_rate(self) -> float:
        """Mispredictions per lookup (0 when never used)."""
        return self.mispredictions / self.lookups if self.lookups else 0.0

    def stats(self) -> dict:
        """Lookup and misprediction counts, as results and metrics report
        them."""
        return {
            "lookups": self.lookups,
            "mispredictions": self.mispredictions,
            "misprediction_rate": self.misprediction_rate,
        }
