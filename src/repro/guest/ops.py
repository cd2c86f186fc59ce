"""Operation types a guest program can yield to the simulated CPU.

:class:`repro.isa.FPInstruction` is also a valid guest op (the common one);
it lives in the ISA package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.isa.instruction import CodeSite


class GuestOp:
    """Marker base class for non-FP guest operations."""

    __slots__ = ()


@dataclass
class LibcCall(GuestOp):
    """A call through the PLT to a dynamically-resolved symbol.

    The call is resolved by the process's dynamic linker, so a preloaded
    FPSpy may interpose.  The CPU sends the call's return value back into
    the yielding generator.
    """

    name: str
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)


@dataclass
class IntWork(GuestOp):
    """``count`` non-floating-point instructions (loads, stores, ALU ops).

    Advances virtual time and the cycle clock without touching the FPU.
    Guest programs use this to model the integer portion of their kernels,
    which matters for event-*rate* measurements (Figures 12, 13, 15, 16).
    """

    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("IntWork count must be positive")


@dataclass
class FPBlock(GuestOp):
    """A contiguous run of dynamic executions of one FP code site.

    This is the *superblock* the kernel builders emit instead of a long
    ``FPInstruction``/``IntWork`` yield sequence: ``n_groups`` executions
    of ``site`` (each retiring ``site.form.lanes`` elements), with
    ``interleave`` units of integer work after each one.  Architecturally
    it is nothing new -- the machine must execute it *exactly* as if the
    equivalent per-instruction stream had been yielded (same sticky
    flags, faults, vtime, cycle charges, and signal landing points); the
    block form merely licenses the CPU to batch the work when the task is
    quiescent (see :mod:`repro.machine.blockexec`).

    Operand storage is dual: forms the batch FP entry point covers
    (:func:`repro.fp.batchfloat.batch_covered`) carry one padded
    ``uint64`` array per operand position (``arrays``), everything else a
    per-group tuple structure (``groups``).  The cursor fields record
    partial progress so a fault, trap, or timer can interrupt the block
    mid-flight and restart it at the precise instruction.
    """

    site: CodeSite
    n_groups: int  #: dynamic instructions (lane groups) in the block
    n_elements: int  #: real (unpadded) elements across all groups
    interleave: int = 0  #: integer instructions after each FP instruction
    #: One uint64 bit-pattern array per operand position, padded to
    #: ``n_groups * lanes`` elements (batch-covered forms only).
    arrays: tuple[np.ndarray, ...] | None = None
    #: Per-group lane-input tuples, shaped like ``FPInstruction.inputs``
    #: (forms outside the batch entry point only).
    groups: tuple[tuple[tuple[int, ...], ...], ...] | None = None

    # -- execution cursor (owned by the machine) ----------------------------
    #: Cached provenance masks (class attr, not a field: lazily set by
    #: the scalar sub-step's inert-skip guard).
    _prov_masks = None

    index: int = 0  #: groups fully retired so far
    fp_done: bool = False  #: current group's FP instruction has retired
    int_remaining: int = 0  #: current group's leftover interleave units
    results: list[int] = field(default_factory=list)  #: flat element results

    @classmethod
    def build(
        cls,
        site: CodeSite,
        operand_streams: Sequence[Sequence[int]],
        interleave: int,
        pad: int,
    ) -> "FPBlock":
        """Pack parallel operand streams into a block (padding the tail)."""
        from repro.fp.batchfloat import batch_covered

        form = site.form
        lanes = form.lanes
        n = len(operand_streams[0])
        n_groups = -(-n // lanes)
        if batch_covered(form):
            total = n_groups * lanes
            arrays = []
            for stream in operand_streams:
                a = np.empty(total, dtype=np.uint64)
                if isinstance(stream, np.ndarray):
                    a[:n] = stream.astype(np.uint64, copy=False)
                else:
                    a[:n] = np.fromiter(stream, dtype=np.uint64, count=n)
                a[n:] = pad
                arrays.append(a)
            return cls(
                site=site, n_groups=n_groups, n_elements=n,
                interleave=interleave, arrays=tuple(arrays),
            )
        operand_streams = [
            s.tolist() if isinstance(s, np.ndarray) else s
            for s in operand_streams
        ]
        groups = []
        for i in range(0, n, lanes):
            lane_inputs = []
            for j in range(lanes):
                idx = i + j
                if idx < n:
                    lane_inputs.append(tuple(s[idx] for s in operand_streams))
                else:
                    lane_inputs.append((pad,) * form.arity)
            groups.append(tuple(lane_inputs))
        return cls(
            site=site, n_groups=n_groups, n_elements=n,
            interleave=interleave, groups=tuple(groups),
        )

    # ------------------------------------------------------------ accessors

    @property
    def done(self) -> bool:
        return self.index >= self.n_groups

    def group(self, g: int) -> tuple[tuple[int, ...], ...]:
        """Lane-input tuples of group ``g`` (an ``FPInstruction.inputs``)."""
        if self.groups is not None:
            return self.groups[g]
        assert self.arrays is not None
        lanes = self.site.form.lanes
        lo = g * lanes
        return tuple(
            tuple(int(a[lo + j]) for a in self.arrays)
            for j in range(lanes)
        )

    def take(self, g: int) -> int:
        """Real (unpadded) element count of group ``g``."""
        return min(self.site.form.lanes, self.n_elements - g * self.site.form.lanes)
