"""Vectorized error-free transformations: the certifying tier of the
batch FP entry point (:func:`repro.fp.batchfloat.execute_batch`).

These are the lane-wise NumPy analogues of :mod:`repro.fp.fastpath`: for
the overwhelmingly common case -- normal, mid-range operands -- the host
FPU already computes the correctly rounded result for a whole array at
once, and the exact flag set is recovered by error-free transformations:

* **add/sub**: the two-sum EFT recovers the exact residual; PE iff the
  residual is nonzero.
* **mul**: Dekker's two-product (Veltkamp splitting) recovers the exact
  product error without an FMA; PE iff nonzero.
* **div**: ``q = a/b`` is exact iff ``q*b == a`` as reals, checked by a
  two-product of ``q*b``: exact iff the rounded product equals ``a`` and
  its residual is zero (equivalent to the scalar fast path's integer
  cross-multiplication).
* **sqrt**: exact iff ``r*r == a`` as reals, same two-product technique.
* **min/max**: never raise flags on certified operands; the x64
  second-operand-on-equal rule degenerates to a plain compare because
  distinct bit patterns of certified (normal, nonzero) values are never
  numerically equal.

binary64 certifies all four rounding modes.  The host computes the
round-to-nearest candidate; for directed modes the same error-free
residual that detects inexactness also carries the *sign* of the true
error, which pins the correctly rounded result to either the candidate
or its 1-ulp neighbour (:func:`_directed_adjust`).  The certification
window guarantees neighbours never cross the zero/subnormal/infinity
boundaries, so the bit-space adjustment is always the right float.

binary32 is certified under round-to-nearest through binary64 host
arithmetic.  Operands widen exactly; for + - x / sqrt the binary64
result rounded again to binary32 equals the directly rounded result,
because double rounding is innocuous when the wide precision is at least
``2p + 2`` (53 >= 2*24 + 2).  The lane is exact iff the binary64 step
was exact (zero residual) *and* the narrowing is exact, so
``PE = residual != 0 or f32(v) != v``.  FMA computes the product exactly
in binary64 (24 + 24 <= 53 bits) and two-sums the addend; the only
double-rounding hazard left is a binary64 sum landing exactly on a
binary32 halfway point with a nonzero residual (the tie would break on a
value the true sum is not), and those lanes stay uncertified.

Every function returns ``(result_bits, pe, certified)`` arrays.  A lane
is *certified* only when the fast path can guarantee bit-identical
results and flags versus the canonical softfloat: normal mid-range
operands and a result comfortably inside the overflow/tininess
boundaries, so the lane raises PE and nothing else under any FTZ/DAZ
setting.  Uncertified lanes carry garbage in ``result_bits`` and must be
recomputed by the caller.  Lanes the window rejects are tallied per
reason in :func:`reject_stats`.
"""

from __future__ import annotations

import numpy as np

from repro.fp.formats import BINARY64, BinaryFormat
from repro.fp.rounding import RoundingMode
from repro.isa.forms import OpKind

#: Per format width: (exclusive biased-exponent-field bounds of a
#: certifiable operand, magnitude bound of a certifiable result).  The
#: result window ``(2**-k, 2**k)`` keeps every certified result, its
#: rounding neighbours, and the EFT error terms normal and finite.
_WINDOW = {64: (523, 1523, 500), 32: (27, 227, 100)}

#: Veltkamp splitting constant for binary64 (2**27 + 1).
_SPLIT = 134217729.0

_SIGN64 = np.uint64(1 << 63)
#: Low binary64 fraction bits a binary32 narrowing discards, and their
#: pattern when the value lies exactly halfway between binary32 neighbours.
_NARROW_MASK = np.uint64((1 << 29) - 1)
_NARROW_HALF = np.uint64(1 << 28)

_FMA_KINDS = (OpKind.FMADD, OpKind.FMSUB, OpKind.FNMADD, OpKind.FNMSUB)

#: Lanes rejected from certification, by reason.  ``operand_window`` --
#: an operand was special/subnormal/out-of-range; ``result_range`` --
#: operands certified but the result left the safe magnitude window (or,
#: binary32 FMA, hit the double-rounding tie guard).
_REJECTS = {"operand_window": 0, "result_range": 0}


def reject_stats() -> dict[str, int]:
    """Per-reason lane rejection counters (ablation report)."""
    return dict(_REJECTS)


def reset_reject_stats() -> None:
    for k in _REJECTS:
        _REJECTS[k] = 0


def _count_rejects(opmask: np.ndarray, certified: np.ndarray) -> None:
    n = opmask.shape[0]
    nop = n - int(opmask.sum())
    _REJECTS["operand_window"] += nop
    _REJECTS["result_range"] += n - int(certified.sum()) - nop


def fast_operand_mask(bits: np.ndarray, fmt: BinaryFormat = BINARY64) -> np.ndarray:
    """Lanes whose operand is a normal, finite, mid-range ``fmt`` value.

    For binary64 the exponent-field window (523, 1523) is the vector twin
    of ``fastpath._is_fast_operand``: magnitude within 2**+-500 and normal
    (which also excludes zeros, subnormals, infinities, and NaNs); for
    binary32 the window is 2**+-100.
    """
    lo, hi, _ = _WINDOW[fmt.width]
    e = (bits >> np.uint64(fmt.mant_bits)) & np.uint64(fmt.exp_mask)
    return (e > np.uint64(lo)) & (e < np.uint64(hi))


def _host(bits: np.ndarray, fmt: BinaryFormat) -> np.ndarray:
    """Operand bit patterns as (exactly widened) binary64 host values."""
    if fmt.width == 64:
        return bits.view(np.float64)
    return bits.astype(np.uint32).view(np.float32).astype(np.float64)


def _two_sum_err(x: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Residual of ``s = fl(x + y)``: ``s + err == x + y`` exactly."""
    bv = s - x
    return (x - (s - bv)) + (y - bv)


def _two_prod_err(x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Residual of ``p = fl(x * y)``: ``p + err == x * y`` exactly."""
    cx = _SPLIT * x
    hx = cx - (cx - x)
    lx = x - hx
    cy = _SPLIT * y
    hy = cy - (cy - y)
    ly = y - hy
    return ((hx * hy - p) + hx * ly + lx * hy) + lx * ly


def _directed_adjust(q_u, pos, inexact, rmode):
    """+-1ulp correction of an RN candidate for a directed ``rmode``.

    ``pos`` = true value above the candidate.  Valid only where
    neighbours cannot cross zero/inf/subnormal boundaries (the windows
    guarantee that).  Returns adjusted uint64 bits.
    """
    qi = q_u.astype(np.int64)
    q_neg = qi < 0
    up = np.where(q_neg, -1, 1)      # next_up = bits + up
    if rmode is RoundingMode.UP:
        adj = np.where(pos, up, 0)
    elif rmode is RoundingMode.DOWN:
        adj = np.where(pos, 0, -up)
    else:  # ZERO: floor for positive, ceil for negative
        adj = np.where(q_neg, np.where(pos, up, 0), np.where(pos, 0, -up))
    return (qi + np.where(inexact, adj, 0)).astype(np.uint64)


def _minmax(a, b, x, y, opmask, want_min: bool):
    _count_rejects(opmask, opmask)
    take_a = (x < y) if want_min else (x > y)
    # Equal certified values have identical bits, so the x64 rule of
    # returning the *second* operand on equality is satisfied by taking b.
    res = np.where(take_a, a, b)
    return res, np.zeros_like(opmask), opmask


def vector_execute(
    kind: OpKind,
    operands: list[np.ndarray],
    rmode: RoundingMode = RoundingMode.NEAREST,
    fmt: BinaryFormat = BINARY64,
):
    """Certify one batch-covered op kind across flattened lanes.

    ``operands`` holds one uint64 bit-pattern array per operand position
    (low ``fmt.width`` bits significant); ``rmode`` is the task's
    rounding mode.  Returns ``(result_bits, pe, certified)``; certified
    lanes raise PE and nothing else (DE/IE/ZE/OE/UE all require operand
    or result classes the certification window excludes).  binary32
    certifies round-to-nearest only (and min/max, which are
    mode-invariant); binary64 has no FMA form to certify.
    """
    with np.errstate(all="ignore"):
        xs = [_host(o, fmt) for o in operands]
        opmask = fast_operand_mask(operands[0], fmt)
        for o in operands[1:]:
            opmask &= fast_operand_mask(o, fmt)
        if kind is OpKind.MIN or kind is OpKind.MAX:
            return _minmax(*operands, *xs, opmask, kind is OpKind.MIN)
        narrow = fmt.width == 32
        if narrow and rmode is not RoundingMode.NEAREST:
            none = np.zeros(opmask.shape, np.bool_)
            return operands[0].copy(), none, none
        zero_ok = False
        if kind is OpKind.ADD or kind is OpKind.SUB:
            x, y = xs
            if kind is OpKind.SUB:
                y = -y
            v = x + y
            resid = _two_sum_err(x, y, v)
            # Exact cancellation is certified: a zero sum of mid-range
            # operands is exact (their nonzero sums are far above the
            # smallest representable magnitude).
            zero_ok = True
        elif kind is OpKind.MUL:
            x, y = xs
            v = x * y
            resid = _two_prod_err(x, y, v)
        elif kind is OpKind.DIV:
            x, y = xs
            v = x / y
            # q exact <=> q*y == x as reals.  The residual x - q*y is
            # exact (Sterbenz on x - fl(q*y), then the two-product low
            # part); its sign against y's orients the true quotient
            # relative to the candidate for directed rounding.
            vy = v * y
            resid = (x - vy) - _two_prod_err(v, y, vy)
        elif kind is OpKind.SQRT:
            x = xs[0]
            v = np.sqrt(x)  # NaN for negative x: outside the result window
            vv = v * v
            resid = (x - vv) - _two_prod_err(v, v, vv)
        elif kind in _FMA_KINDS and narrow:
            a, b, c = xs
            p = a * b  # binary32 significands: exact in binary64
            if kind is OpKind.FNMADD or kind is OpKind.FNMSUB:
                p = -p
            if kind is OpKind.FMSUB or kind is OpKind.FNMSUB:
                c = -c
            v = p + c
            resid = _two_sum_err(p, c, v)
            zero_ok = True
        else:
            raise NotImplementedError(f"{kind} on {fmt}")

        k = _WINDOW[fmt.width][2]
        mag = np.abs(v)
        in_range = (mag > 2.0**-k) & (mag < 2.0**k)
        if zero_ok:
            in_range |= v == 0.0
        certified = opmask & in_range
        inexact = resid != 0.0
        vbits = v.view(np.uint64)
        if narrow:
            if kind in _FMA_KINDS:
                tie = (vbits & _NARROW_MASK) == _NARROW_HALF
                certified &= ~(tie & inexact)
            r32 = v.astype(np.float32)
            pe = certified & (inexact | (r32 != v))
            bits = r32.view(np.uint32).astype(np.uint64)
        else:
            pe = certified & inexact
            bits = vbits
            if rmode is not RoundingMode.NEAREST:
                # The residual is positive iff the true value lies above
                # the candidate (for div, relative to the divisor's sign).
                pos = resid > 0.0
                if kind is OpKind.DIV:
                    pos ^= xs[1] < 0.0
                bits = _directed_adjust(vbits, pos, inexact, rmode)
            if zero_ok and rmode is RoundingMode.DOWN:
                # Exact cancellation of nonzero operands yields -0 under
                # round-down (the softfloat's differing-sign zero rule).
                bits = np.where(v == 0.0, _SIGN64, bits)
        _count_rejects(opmask, certified)
        return bits, pe, certified
