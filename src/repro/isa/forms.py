"""Instruction form catalogue.

A *form* is what FPSpy's analysis scripts extract from the raw instruction
bytes in a trace record: the mnemonic shape of the instruction (``addsd``,
``vfmaddps``, ...).  The paper's Figure 18 finds that 39 forms cover every
studied code except GROMACS, which adds 25 forms of its own (AVX/FMA and
packed-single forms produced by its hand-vectorized kernels).

We reproduce that structure exactly: :data:`SSE_FORMS` holds the 39
"common" forms (SSE/SSE2 scalar and 128-bit packed), :data:`AVX_FORMS` the
25 GROMACS-only forms from the paper's list.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.fp.formats import BINARY32, BINARY64, BinaryFormat


class OpKind(enum.Enum):
    """Semantic operation class of an instruction form."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    SQRT = "sqrt"
    MIN = "min"
    MAX = "max"
    FMADD = "fmadd"  #: a*b + c
    FMSUB = "fmsub"  #: a*b - c
    FNMADD = "fnmadd"  #: -(a*b) + c
    FNMSUB = "fnmsub"  #: -(a*b) - c
    ROUND = "round"  #: round to integral
    DP = "dp"  #: dot product (dpps/dppd)
    UCOMI = "ucomi"  #: unordered compare (IE on SNaN only)
    COMI = "comi"  #: ordered compare (IE on any NaN)
    CVT_F2F = "cvt_f2f"  #: float format conversion
    CVT_I2F = "cvt_i2f"  #: integer -> float
    CVT_F2I = "cvt_f2i"  #: float -> integer, current rounding
    CVT_F2I_TRUNC = "cvt_f2i_trunc"  #: float -> integer, truncating


#: Operand count per kind (per lane).
_ARITY: dict[OpKind, int] = {
    OpKind.ADD: 2,
    OpKind.SUB: 2,
    OpKind.MUL: 2,
    OpKind.DIV: 2,
    OpKind.MIN: 2,
    OpKind.MAX: 2,
    OpKind.SQRT: 1,
    OpKind.FMADD: 3,
    OpKind.FMSUB: 3,
    OpKind.FNMADD: 3,
    OpKind.FNMSUB: 3,
    OpKind.ROUND: 1,
    OpKind.DP: 2,
    OpKind.UCOMI: 2,
    OpKind.COMI: 2,
    OpKind.CVT_F2F: 1,
    OpKind.CVT_I2F: 1,
    OpKind.CVT_F2I: 1,
    OpKind.CVT_F2I_TRUNC: 1,
}


@dataclass(frozen=True)
class InstructionForm:
    """One instruction form (mnemonic) with its static properties.

    Attributes
    ----------
    mnemonic:
        The exact mnemonic string recorded in traces and used by the
        rank-popularity analysis.
    kind:
        Semantic operation class.
    fmt:
        Element format the lanes operate on (``None`` only for pure
        integer-source converts, where ``dst_fmt`` governs).
    lanes:
        Number of vector lanes (1 for scalar forms).
    avx:
        True for the VEX-encoded / GROMACS-only catalogue entries.
    dst_fmt:
        Destination element format for conversions.
    """

    mnemonic: str
    kind: OpKind
    fmt: BinaryFormat | None
    lanes: int = 1
    avx: bool = False
    dst_fmt: BinaryFormat | None = None

    @property
    def arity(self) -> int:
        return _ARITY[self.kind]

    @property
    def is_scalar(self) -> bool:
        return self.lanes == 1

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.mnemonic


def _sse(mnemonic: str, kind: OpKind, fmt, lanes=1, dst_fmt=None) -> InstructionForm:
    return InstructionForm(mnemonic, kind, fmt, lanes, avx=False, dst_fmt=dst_fmt)


def _avx(mnemonic: str, kind: OpKind, fmt, lanes=1, dst_fmt=None) -> InstructionForm:
    return InstructionForm(mnemonic, kind, fmt, lanes, avx=True, dst_fmt=dst_fmt)


D, S = BINARY64, BINARY32

#: The 39 SSE/SSE2 forms shared by the non-GROMACS codes (Figure 18).
SSE_FORMS: tuple[InstructionForm, ...] = (
    # scalar double
    _sse("addsd", OpKind.ADD, D),
    _sse("subsd", OpKind.SUB, D),
    _sse("mulsd", OpKind.MUL, D),
    _sse("divsd", OpKind.DIV, D),
    _sse("sqrtsd", OpKind.SQRT, D),
    _sse("minsd", OpKind.MIN, D),
    _sse("maxsd", OpKind.MAX, D),
    # packed double (128-bit: 2 lanes)
    _sse("addpd", OpKind.ADD, D, lanes=2),
    _sse("subpd", OpKind.SUB, D, lanes=2),
    _sse("mulpd", OpKind.MUL, D, lanes=2),
    _sse("divpd", OpKind.DIV, D, lanes=2),
    _sse("sqrtpd", OpKind.SQRT, D, lanes=2),
    _sse("minpd", OpKind.MIN, D, lanes=2),
    _sse("maxpd", OpKind.MAX, D, lanes=2),
    # scalar single
    _sse("addss", OpKind.ADD, S),
    _sse("subss", OpKind.SUB, S),
    _sse("mulss", OpKind.MUL, S),
    _sse("divss", OpKind.DIV, S),
    _sse("sqrtss", OpKind.SQRT, S),
    _sse("minss", OpKind.MIN, S),
    _sse("maxss", OpKind.MAX, S),
    # compares
    _sse("ucomisd", OpKind.UCOMI, D),
    _sse("comisd", OpKind.COMI, D),
    _sse("ucomiss", OpKind.UCOMI, S),
    _sse("comiss", OpKind.COMI, S),
    # conversions
    _sse("cvtsi2sd", OpKind.CVT_I2F, None, dst_fmt=D),
    _sse("cvtsi2ss", OpKind.CVT_I2F, None, dst_fmt=S),
    _sse("cvtsd2ss", OpKind.CVT_F2F, D, dst_fmt=S),
    _sse("cvtss2sd", OpKind.CVT_F2F, S, dst_fmt=D),
    _sse("cvttsd2si", OpKind.CVT_F2I_TRUNC, D),
    _sse("cvtsd2si", OpKind.CVT_F2I, D),
    _sse("cvttss2si", OpKind.CVT_F2I_TRUNC, S),
    _sse("cvtps2pd", OpKind.CVT_F2F, S, lanes=2, dst_fmt=D),
    _sse("cvtpd2ps", OpKind.CVT_F2F, D, lanes=2, dst_fmt=S),
    _sse("cvtpd2dq", OpKind.CVT_F2I, D, lanes=2),
    # round-to-integral and dot products
    _sse("roundsd", OpKind.ROUND, D),
    _sse("roundpd", OpKind.ROUND, D, lanes=2),
    _sse("roundss", OpKind.ROUND, S),
    _sse("dppd", OpKind.DP, D, lanes=2),
)

#: The 25 GROMACS-only forms, verbatim from the paper's Figure 18 sidebar.
AVX_FORMS: tuple[InstructionForm, ...] = (
    _avx("vfmaddps", OpKind.FMADD, S, lanes=8),
    _avx("vsubss", OpKind.SUB, S),
    _avx("vmulps", OpKind.MUL, S, lanes=8),
    _avx("vroundps", OpKind.ROUND, S, lanes=8),
    _avx("vmulss", OpKind.MUL, S),
    _avx("vdivss", OpKind.DIV, S),
    _avx("vaddps", OpKind.ADD, S, lanes=8),
    _avx("vsqrtss", OpKind.SQRT, S),
    _avx("vcvtsd2ss", OpKind.CVT_F2F, D, dst_fmt=S),
    _avx("vfnmaddss", OpKind.FNMADD, S),
    _avx("vfmaddss", OpKind.FMADD, S),
    _avx("vcvtps2dq", OpKind.CVT_F2I, S, lanes=8),
    _avx("vsubps", OpKind.SUB, S, lanes=8),
    _avx("vfmsubss", OpKind.FMSUB, S),
    _avx("vaddss", OpKind.ADD, S),
    _avx("vfmsubps", OpKind.FMSUB, S, lanes=8),
    _avx("subps", OpKind.SUB, S, lanes=4),
    _avx("vdpps", OpKind.DP, S, lanes=4),
    _avx("addps", OpKind.ADD, S, lanes=4),
    _avx("vdivps", OpKind.DIV, S, lanes=8),
    _avx("vfnmaddps", OpKind.FNMADD, S, lanes=8),
    _avx("vsqrtsd", OpKind.SQRT, D),
    _avx("cvtsi2sdq", OpKind.CVT_I2F, None, dst_fmt=D),
    _avx("vucomiss", OpKind.UCOMI, S),
    _avx("vcvttss2si", OpKind.CVT_F2I_TRUNC, S),
)

#: Complete catalogue keyed by mnemonic.
FORMS: dict[str, InstructionForm] = {
    f.mnemonic: f for f in (*SSE_FORMS, *AVX_FORMS)
}

assert len(SSE_FORMS) == 39, len(SSE_FORMS)
assert len(AVX_FORMS) == 25, len(AVX_FORMS)
assert len(FORMS) == 64


def form(mnemonic: str) -> InstructionForm:
    """Look up a form by mnemonic; raises ``KeyError`` with a hint."""
    try:
        return FORMS[mnemonic]
    except KeyError:
        raise KeyError(
            f"unknown instruction form {mnemonic!r}; "
            f"known forms: {sorted(FORMS)}"
        ) from None
