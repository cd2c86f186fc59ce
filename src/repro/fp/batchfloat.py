"""The batch FP entry point: whole-array trap-storm and block emulation.

:func:`execute_batch` is the single batch path of the machine, used by
both the storm driver (:mod:`repro.machine.storm`) and the masked block
engine (:mod:`repro.machine.blockexec`).  For a batch of same-form
operands it computes result bit patterns and all six IEEE condition
flags -- bit-equivalent to :class:`repro.fp.softfloat.SoftFPU` including
NaN payload propagation, signed zeros, subnormals, all four rounding
modes, and DAZ/FTZ -- in two tiers:

1. the error-free-transformation certifier
   (:func:`repro.fp.vectorfast.vector_execute`) runs over every lane;
   certified lanes (mid-range normal operands and results) get the host
   result, ``flags = PE or 0`` and ``tiny = False``;
2. each uncertified lane runs alone through the scalar semantics
   (:func:`repro.isa.semantics.execute_form`).

The second tier is deliberately per lane: on the study's workloads no
call leaves more than 18 lanes uncertified, below the ~20 where a
whole-array exact kernel would repay its fixed per-call cost (DESIGN.md
#11).  FMA is binary32 only: the catalogue has no binary64 FMA form,
and :func:`batch_covered` rejects one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fp import vectorfast
from repro.fp.flags import Flag
from repro.fp.formats import BINARY32, BINARY64
from repro.fp.softfloat import FPContext
from repro.isa.forms import InstructionForm, OpKind
from repro.isa.semantics import execute_form

_FMA_KINDS = frozenset(
    {OpKind.FMADD, OpKind.FMSUB, OpKind.FNMADD, OpKind.FNMSUB}
)

#: Kinds the batch entry point covers (bit-exactly).
BATCH_KINDS: frozenset[OpKind] = frozenset(
    {
        OpKind.ADD,
        OpKind.SUB,
        OpKind.MUL,
        OpKind.DIV,
        OpKind.SQRT,
        OpKind.MIN,
        OpKind.MAX,
    }
) | _FMA_KINDS

#: ``fallback_lanes`` counts the lanes the EFT certifier left to the
#: scalar semantics.
_STATS = {"batches": 0, "lanes": 0, "fallback_lanes": 0}


def batch_stats() -> dict:
    """Counters for the certify/fallback story (surfaced in benchmarks)."""
    return dict(_STATS)


def reset_batch_stats() -> None:
    for k in _STATS:
        _STATS[k] = 0


def batch_covered(form: InstructionForm) -> bool:
    """True when :func:`execute_batch` handles this form bit-exactly."""
    if form.kind in _FMA_KINDS:
        return form.fmt is BINARY32
    return form.kind in BATCH_KINDS and form.fmt in (BINARY32, BINARY64)


@dataclass
class BatchResult:
    """Per-lane outcome of one batch execution.

    ``bits`` are uint64 result patterns (low ``width`` bits significant),
    ``flags`` int64 flag bits per lane, ``tiny`` the pre-rounding
    tininess indicator (the unmasked-UE corner), ``fallback_lanes`` how
    many lanes the EFT certifier left to the scalar semantics.
    """

    bits: np.ndarray
    flags: np.ndarray
    tiny: np.ndarray
    fallback_lanes: int = 0


def execute_batch(
    form: InstructionForm,
    operands: tuple[np.ndarray, ...],
    ctx: FPContext,
) -> BatchResult:
    """Execute one batch: ``operands[i]`` is the uint64 bit-pattern array
    for operand position ``i`` (all the same length = total lane count).

    Bit-equivalent to running :class:`SoftFPU` per lane under ``ctx``:
    the EFT certifier settles every lane it can, and only the rest run
    one by one through :func:`execute_form`.
    """
    if not batch_covered(form):
        raise NotImplementedError(f"batchfloat does not cover {form}")
    n = operands[0].shape[0]
    bits, pe, certified = vectorfast.vector_execute(
        form.kind, operands, ctx.rmode, form.fmt
    )
    flags = pe.astype(np.int64) * np.int64(Flag.PE)
    tiny = np.zeros(n, np.bool_)
    idx = np.flatnonzero(~certified)
    lanes = zip(*(o[idx].tolist() for o in operands))
    for i, lane in zip(idx.tolist(), lanes):
        out = execute_form(form, (lane,), ctx)
        bits[i] = out.results[0]
        flags[i] = int(out.flags)
        tiny[i] = out.tiny
    _STATS["batches"] += 1
    _STATS["lanes"] += n
    _STATS["fallback_lanes"] += idx.size
    return BatchResult(bits, flags, tiny, fallback_lanes=int(idx.size))
