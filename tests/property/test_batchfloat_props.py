"""The batch FP entry point must be bit-equivalent to the scalar SoftFPU.

Every lane of ``execute_batch`` -- result bit pattern, all six IEEE
condition flags, and the pre-rounding tininess bit -- must match the
scalar oracle over adversarial operands (NaN payloads including SNaNs,
signed zeros, subnormals, overflow boundaries, the edges of the EFT
certification window, exact cancellations, binary32 FMA double-rounding
ties) crossed with all four rounding modes and the DAZ/FTZ context bits,
whichever tier -- EFT certifier or per-lane scalar semantics -- settles
the lane.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp import batchfloat, vectorfast
from repro.fp.batchfloat import (
    BATCH_KINDS,
    batch_covered,
    execute_batch,
)
from repro.fp.formats import BINARY32, BINARY64
from repro.fp.rounding import RoundingMode
from repro.fp.softfloat import FPContext, SoftFPU
from repro.isa.forms import InstructionForm, OpKind, form

_FPU = SoftFPU()

#: (negate_product, negate_c) per FMA family kind.
_FMA_NEGATE = {
    OpKind.FMADD: (False, False),
    OpKind.FMSUB: (False, True),
    OpKind.FNMADD: (True, False),
    OpKind.FNMSUB: (True, True),
}

_SPECIALS64 = [
    0x0000000000000000, 0x8000000000000000,  # +-0
    0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
    0x7FF8000000000000, 0xFFF8000000000001,  # qNaNs (payloads)
    0x7FF0000000000001, 0x7FF4000000000000,  # sNaNs
    0x0000000000000001, 0x800FFFFFFFFFFFFF,  # subnormals
    0x0010000000000000, 0x7FEFFFFFFFFFFFFF,  # min/max normal
    0x7FE0000000000000, 0xFFEFFFFFFFFFFFFF,  # overflow boundaries
    0x3FF0000000000000, 0xBFE0000000000000,  # 1.0, -0.5
    0x3CB0000000000000, 0x4330000000000005,  # rounding-boundary magnitudes
]

_SPECIALS32 = [
    0x00000000, 0x80000000,  # +-0
    0x7F800000, 0xFF800000,  # +-inf
    0x7FC00000, 0xFFC00001,  # qNaNs (payloads)
    0x7F800001, 0x7FA00000,  # sNaNs
    0x00000001, 0x807FFFFF,  # subnormals
    0x00800000, 0x7F7FFFFF,  # min/max normal
    0x7F000000, 0xFF7FFFFF,  # overflow boundaries
    0x3F800000, 0xBF000000,  # 1.0, -0.5
    0x33800000, 0x4B7FFFFF,  # rounding-boundary magnitudes
]

bits64 = st.one_of(
    st.sampled_from(_SPECIALS64),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)
bits32 = st.one_of(
    st.sampled_from(_SPECIALS32),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)

#: Every batch-covered catalogue shape: all seven two/one-operand kinds
#: over both formats plus the four FMA variants (binary32 catalogue).
_MNEMONICS = [
    "addss", "subss", "mulss", "divss", "sqrtss", "minss", "maxss",
    "addsd", "subsd", "mulsd", "divsd", "sqrtsd", "minsd", "maxsd",
    "addpd", "mulpd", "divpd", "sqrtpd",
    "vfmaddps", "vfmsubps", "vfnmaddps", "vfnmaddss", "vfmsubss",
    "vfmaddss",
]

contexts = st.builds(
    FPContext,
    rmode=st.sampled_from(list(RoundingMode)),
    ftz=st.booleans(),
    daz=st.booleans(),
)


def _scalar(kind, fmt, ops, ctx):
    if kind is OpKind.SQRT:
        return _FPU.sqrt(fmt, ops[0], ctx)
    two = {
        OpKind.ADD: _FPU.add, OpKind.SUB: _FPU.sub, OpKind.MUL: _FPU.mul,
        OpKind.DIV: _FPU.div, OpKind.MIN: _FPU.min, OpKind.MAX: _FPU.max,
    }
    if kind in two:
        return two[kind](fmt, ops[0], ops[1], ctx)
    neg_p, neg_c = _FMA_NEGATE[kind]
    return _FPU.fma(
        fmt, ops[0], ops[1], ops[2], ctx,
        negate_product=neg_p, negate_c=neg_c,
    )


@settings(max_examples=120, deadline=None)
@given(
    mnemonic=st.sampled_from(_MNEMONICS),
    data=st.data(),
    n=st.integers(min_value=1, max_value=48),
    ctx=contexts,
)
def test_batch_lanes_bit_equal_scalar_softfpu(mnemonic, data, n, ctx):
    f = form(mnemonic)
    assert batch_covered(f)
    bits = bits32 if f.fmt.width == 32 else bits64
    ops = tuple(
        np.array(
            data.draw(st.lists(bits, min_size=n, max_size=n)),
            dtype=np.uint64,
        )
        for _ in range(f.arity)
    )
    res = execute_batch(f, ops, ctx)
    for i in range(n):
        lane = tuple(int(o[i]) for o in ops)
        oracle = _scalar(f.kind, f.fmt, lane, ctx)
        assert int(res.bits[i]) == oracle.bits, (mnemonic, lane, ctx)
        assert int(res.flags[i]) == int(oracle.flags), (mnemonic, lane, ctx)
        assert bool(res.tiny[i]) == oracle.tiny, (mnemonic, lane, ctx)


@settings(max_examples=60, deadline=None)
@given(
    mnemonic=st.sampled_from(
        ["addpd", "subpd", "mulpd", "divpd", "sqrtpd", "minpd", "maxpd"]
    ),
    data=st.data(),
    n=st.integers(min_value=1, max_value=48),
    rmode=st.sampled_from(list(RoundingMode)),
)
def test_vectorfast_certified_lanes_exact_all_rounding_modes(
    mnemonic, data, n, rmode
):
    """The EFT kernels' certified lanes must be bit- and flag-exact in
    every rounding mode (directed modes via residual-sign correction)."""
    from repro.fp import vectorfast

    f = form(mnemonic)
    ctx = FPContext(rmode=rmode)
    ops = [
        np.array(
            data.draw(st.lists(bits64, min_size=n, max_size=n)),
            dtype=np.uint64,
        )
        for _ in range(f.arity)
    ]
    bits, pe, certified = vectorfast.vector_execute(f.kind, ops, rmode)
    for i in range(n):
        if not certified[i]:
            continue
        lane = tuple(int(o[i]) for o in ops)
        oracle = _scalar(f.kind, f.fmt, lane, ctx)
        assert int(bits[i]) == oracle.bits, (mnemonic, lane, rmode)
        expected_pe = bool(int(oracle.flags) & 0x20)
        assert bool(pe[i]) == expected_pe, (mnemonic, lane, rmode)
        assert int(oracle.flags) & ~0x20 == 0, (mnemonic, lane, rmode)


def test_vectorfast_reject_stats_count_reasons():
    from repro.fp import vectorfast

    vectorfast.reset_reject_stats()
    # Lane 0: NaN operand.  Lane 1: both operands inside the exponent
    # window (2**400), but their product (2**800) exceeds the safe
    # result range.
    a = np.array([0x7FF8000000000000, 0x58F0000000000000], np.uint64)
    b = np.array([0x3FF0000000000000, 0x58F0000000000000], np.uint64)
    _, _, certified = vectorfast.vector_execute(form("mulpd").kind, [a, b])
    assert not certified.any()
    s = vectorfast.reject_stats()
    assert s["operand_window"] == 1  # the NaN lane
    assert s["result_range"] == 1  # overflow-bound product


def test_uncovered_form_raises():
    import pytest

    bad = form("ucomisd")
    assert not batch_covered(bad)
    with pytest.raises(NotImplementedError):
        execute_batch(bad, (np.zeros(1, np.uint64),) * 2, FPContext())


def test_batch_stats_account_lanes():
    from repro.fp.batchfloat import batch_stats, reset_batch_stats

    reset_batch_stats()
    f = form("mulsd")
    ops = (
        np.full(8, 0x3FF0000000000000, np.uint64),
        np.full(8, 0x4000000000000000, np.uint64),
    )
    execute_batch(f, ops, FPContext())
    s = batch_stats()
    assert s["batches"] == 1 and s["lanes"] == 8
    assert s["fallback_lanes"] == 0


@settings(max_examples=60, deadline=None)
@given(
    fmt=st.sampled_from([BINARY32, BINARY64]),
    data=st.data(),
    n=st.integers(min_value=1, max_value=48),
)
def test_special_lane_mask_matches_scalar_classification(fmt, data, n):
    """The provenance pre-filter fires exactly on NaN, infinite and
    subnormal lanes, and never on zeros or normals."""
    bits = bits32 if fmt.width == 32 else bits64
    specials = _SPECIALS32 if fmt.width == 32 else _SPECIALS64
    lanes = specials + data.draw(st.lists(bits, min_size=n, max_size=n))
    mask = batchfloat.special_lane_mask(fmt, np.array(lanes, np.uint64))
    expected = [
        fmt.is_nan(b) or fmt.is_inf(b) or fmt.is_subnormal(b) for b in lanes
    ]
    assert mask.tolist() == expected


# ------------------------------------------------ EFT-first entry point

#: Every batch kind in every format the entry point covers it in (FMA is
#: binary32 only), as scalar forms.
_KIND_FORMS = [
    InstructionForm(f"{kind.value}_{fmt.name}", kind, fmt)
    for fmt in (BINARY32, BINARY64)
    for kind in sorted(BATCH_KINDS, key=lambda k: k.value)
    if batch_covered(InstructionForm("probe", kind, fmt))
]
_FMA_FORMS = [f for f in _KIND_FORMS if f.kind in _FMA_NEGATE]


def _pack(fmt, sign, expf, mant):
    return (sign << (fmt.width - 1)) | (expf << fmt.mant_bits) | mant


def _edge_bits(fmt):
    """Operands straddling the certification window's exponent edges,
    mixed with mid-range values, specials, and subnormals."""
    lo, hi, _ = vectorfast._WINDOW[fmt.width]
    expf = st.one_of(
        st.sampled_from([lo - 1, lo, lo + 1, hi - 1, hi, hi + 1,
                         fmt.bias - 1, fmt.bias, fmt.bias + 1]),
        st.integers(min_value=1, max_value=fmt.exp_mask - 1),
    )
    mant = st.one_of(
        st.sampled_from([0, 1, fmt.quiet_bit, fmt.mant_mask]),
        st.integers(min_value=0, max_value=fmt.mant_mask),
    )
    edge = st.builds(lambda *f: _pack(fmt, *f), st.integers(0, 1), expf, mant)
    specials = _SPECIALS32 if fmt.width == 32 else _SPECIALS64
    return st.one_of(edge, edge, st.sampled_from(specials))


def _assert_lanes_match(f, ops, ctx, res):
    for i in range(ops[0].shape[0]):
        lane = tuple(int(o[i]) for o in ops)
        oracle = _scalar(f.kind, f.fmt, lane, ctx)
        got = (int(res.bits[i]), int(res.flags[i]), bool(res.tiny[i]))
        assert got == (oracle.bits, int(oracle.flags), oracle.tiny), (
            f.mnemonic, [hex(x) for x in lane], ctx)


@settings(max_examples=200, deadline=None)
@given(
    f=st.sampled_from(_KIND_FORMS),
    data=st.data(),
    n=st.integers(min_value=1, max_value=32),
    ctx=contexts,
)
def test_eft_first_lanes_bit_equal_scalar_at_window_edges(f, data, n, ctx):
    bits = _edge_bits(f.fmt)
    ops = tuple(
        np.array(data.draw(st.lists(bits, min_size=n, max_size=n)), np.uint64)
        for _ in range(f.arity)
    )
    _assert_lanes_match(f, ops, ctx, execute_batch(f, ops, ctx))


@settings(max_examples=80, deadline=None)
@given(
    f=st.sampled_from(
        [g for g in _KIND_FORMS if g.kind in (OpKind.ADD, OpKind.SUB)]
        + _FMA_FORMS),
    data=st.data(),
    n=st.integers(min_value=1, max_value=16),
    rmode=st.sampled_from(list(RoundingMode)),
)
def test_exact_cancellation_to_signed_zero(f, data, n, rmode):
    """Lanes whose exact result is zero: +0, or -0 under round-down."""
    fmt, ctx = f.fmt, FPContext(rmode=rmode)
    npf = np.float32 if fmt.width == 32 else np.float64
    # Half-width significands (p // 2 bits) keep every a*b exact in the
    # format, so c = +-(a*b) cancels the product for one of the signs.
    h = fmt.p // 2 - 1
    half = st.builds(
        lambda s, e, m: _pack(fmt, s, e, m << (fmt.mant_bits - h)),
        st.integers(0, 1),
        st.integers(fmt.bias - 20, fmt.bias + 20),
        st.integers(0, (1 << h) - 1),
    )
    a = np.array(data.draw(st.lists(half, min_size=n, max_size=n)), np.uint64)
    b = np.array(data.draw(st.lists(half, min_size=n, max_size=n)), np.uint64)
    if f.kind in _FMA_NEGATE:
        uf = np.uint32 if fmt.width == 32 else np.uint64
        prod = (a.astype(uf).view(npf) * b.astype(uf).view(npf))
        c = prod.view(uf).astype(np.uint64)
        sign = np.uint64(1 << (fmt.width - 1))
        ops = (np.concatenate([a, a]), np.concatenate([b, b]),
               np.concatenate([c, c ^ sign]))
    elif f.kind is OpKind.ADD:
        ops = (a, a ^ np.uint64(1 << (fmt.width - 1)))
    else:
        ops = (a, a.copy())
    res = execute_batch(f, ops, ctx)
    _assert_lanes_match(f, ops, ctx, res)
    zero = (res.bits & np.uint64((1 << (fmt.width - 1)) - 1)) == 0
    assert zero.sum() >= n


@settings(max_examples=120, deadline=None)
@given(
    f=st.sampled_from(_FMA_FORMS),
    data=st.data(),
    n=st.integers(min_value=1, max_value=16),
)
def test_fma32_halfway_ties_with_residual_stay_exact(f, data, n):
    """a*b + c = m -+ 2**-47 ulp for a binary32 midpoint m: the binary64
    sum rounds to m exactly with a nonzero residual, so narrowing it
    would break the tie the wrong way.  The certifier must refuse these
    lanes and the scalar fallback must round them correctly."""
    neg_p, neg_c = _FMA_NEGATE[f.kind]
    rows = []
    for _ in range(n):
        e = data.draw(st.integers(60, 190), label="expf")
        m = data.draw(st.integers(1, (1 << 23) - 1), label="mant")
        below = data.draw(st.booleans(), label="below")
        # Effective product +-(ulp/2)(1 - 2**-46), as (1 + 2**-23) times
        # (1 - 2**-23), lands just short of the midpoint above c (below)
        # or just past the one under it.
        k = e - 127 - 24
        pa = np.float32((1 + 2.0**-23) * 2.0**(k // 2))
        pb = np.float32((1 - 2.0**-23) * 2.0**(k - k // 2))
        if not below:
            pa = -pa
        if neg_p:
            pa = -pa
        c = _pack(BINARY32, 0, e, m)
        if neg_c:
            c ^= 1 << 31
        rows.append((int(pa.view(np.uint32)), int(pb.view(np.uint32)), c))
    ops = tuple(np.array(col, np.uint64) for col in zip(*rows))
    _, _, certified = vectorfast.vector_execute(
        f.kind, ops, RoundingMode.NEAREST, f.fmt)
    assert not certified.any()
    ctx = FPContext()
    _assert_lanes_match(f, ops, ctx, execute_batch(f, ops, ctx))


@settings(max_examples=60, deadline=None)
@given(
    f=st.sampled_from(_KIND_FORMS),
    data=st.data(),
    n=st.integers(min_value=1, max_value=32),
)
def test_fully_certified_batches_skip_scalar_lanes(f, data, n):
    """Mid-range operands under round-to-nearest certify every lane:
    no fallback lanes, and the scalar semantics are never entered."""
    fmt = f.fmt
    sign = st.just(0) if f.kind is OpKind.SQRT else st.integers(0, 1)
    mid = st.builds(
        lambda *x: _pack(fmt, *x), sign,
        st.integers(fmt.bias - 20, fmt.bias + 20),
        st.integers(0, fmt.mant_mask),
    )
    ops = tuple(
        np.array(data.draw(st.lists(mid, min_size=n, max_size=n)), np.uint64)
        for _ in range(f.arity)
    )
    ctx = FPContext()
    before = batchfloat.batch_stats()["fallback_lanes"]
    with mock.patch.object(
        batchfloat, "execute_form", side_effect=AssertionError("entered")
    ):
        res = execute_batch(f, ops, ctx)
    assert res.fallback_lanes == 0
    assert batchfloat.batch_stats()["fallback_lanes"] == before
    _assert_lanes_match(f, ops, ctx, res)


def test_binary64_fma_is_not_covered():
    import pytest

    fma64 = InstructionForm("fma64", OpKind.FMADD, BINARY64)
    assert not batch_covered(fma64)
    with pytest.raises(NotImplementedError):
        execute_batch(fma64, (np.zeros(1, np.uint64),) * 3, FPContext())


def test_div64_quotients_near_overflow_in_directed_modes():
    """Operands at opposite edges of the binary64 operand window give
    quotients near 2**1000: too large for a Veltkamp split, so no
    host-EFT shortcut may settle these lanes."""
    rng = np.random.default_rng(5)
    lo, hi, _ = vectorfast._WINDOW[64]
    ops = tuple(
        (np.uint64(e) << np.uint64(52))
        | rng.integers(0, 1 << 52, 64, dtype=np.uint64)
        for e in (hi - 1, lo + 1)
    )
    f = form("divsd")
    for rmode in RoundingMode:
        ctx = FPContext(rmode=rmode)
        _assert_lanes_match(f, ops, ctx, execute_batch(f, ops, ctx))
