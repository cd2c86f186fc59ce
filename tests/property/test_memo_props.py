"""The per-form outcome memo must be indistinguishable from the reference.

:func:`repro.isa.semantics.form_executor` serves every trapfast-on
instruction execution from a per-form cache of whole
:class:`ExecutionOutcome` objects, so any divergence from
:func:`execute_form` -- a NaN payload, a signed zero, a missing sticky
flag, a tininess bit -- would leak straight into trace files.  Each
example runs one instruction through the uncached reference, a fresh
executor (first call, then the same call again), the interned executor,
and a fresh executor whose entry was evicted past its cap, and requires
equal outcomes across binary32 and binary64, the specials lists, all
four IEEE rounding modes and the FTZ/DAZ corners.
"""

from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.formats import BINARY32, BINARY64
from repro.fp.rounding import RoundingMode
from repro.fp.softfloat import FPContext
from repro.isa import semantics
from repro.isa.forms import FORMS, InstructionForm, OpKind
from repro.isa.semantics import execute_form, form_executor, memo_stats

_SPECIALS64 = [
    0x0000000000000000, 0x8000000000000000,  # +-0
    0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
    0x7FF8000000000000, 0xFFF8000000000001,  # qNaNs (payloads differ)
    0x7FF4000000000000, 0xFFF0DEADBEEF0001,  # sNaNs (payloads differ)
    0x0000000000000001, 0x800FFFFFFFFFFFFF,  # subnormals
    0x0010000000000000, 0x7FEFFFFFFFFFFFFF,  # min/max normal
    0x3FF0000000000000, 0xBFE0000000000000,  # 1.0, -0.5
]

_SPECIALS32 = [
    0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
    0x7FC00001, 0xFFA00001,  # qNaN/sNaN with payloads
    0x00000001, 0x807FFFFF, 0x00800000, 0x7F7FFFFF, 0x3F800000,
]

bits64 = st.one_of(
    st.sampled_from(_SPECIALS64),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)
bits32 = st.one_of(
    st.sampled_from(_SPECIALS32),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)
int64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)

contexts = st.builds(
    FPContext,
    rmode=st.sampled_from(list(RoundingMode)),
    ftz=st.booleans(),
    daz=st.booleans(),
)


def _forms(*kinds):
    return sorted(
        (f for f in FORMS.values() if f.kind in kinds),
        key=lambda f: f.mnemonic)


_BINARY_FORMS = _forms(
    OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV, OpKind.MIN, OpKind.MAX)
_UNARY_FORMS = _forms(OpKind.SQRT, OpKind.ROUND)
#: The catalogue's FMA forms are all binary32; binary64 and FNMSUB forms
#: are built here so every FMA kind is covered in both formats.
_FMA_FORMS = [
    InstructionForm(f"test_{kind.value}_{fmt.name}", kind, fmt, lanes=2)
    for kind in (OpKind.FMADD, OpKind.FMSUB, OpKind.FNMADD, OpKind.FNMSUB)
    for fmt in (BINARY32, BINARY64)
]
_COMPARE_CONVERT_FORMS = _forms(
    OpKind.UCOMI, OpKind.COMI, OpKind.CVT_F2F, OpKind.CVT_I2F,
    OpKind.CVT_F2I, OpKind.CVT_F2I_TRUNC, OpKind.DP)


def _draw_inputs(data, form):
    """One operand tuple per lane, drawn for the form's source format."""
    if form.kind is OpKind.CVT_I2F:
        operand = int64
    else:
        operand = bits32 if form.fmt is BINARY32 else bits64
    return tuple(
        tuple(data.draw(operand) for _ in range(form.arity))
        for _ in range(form.lanes))


@contextmanager
def _outcome_cap(cap):
    saved = semantics._OUTCOME_CAP
    semantics._OUTCOME_CAP = cap
    try:
        yield
    finally:
        semantics._OUTCOME_CAP = saved


def _check(form, inputs, ctx):
    """reference == first call == repeat == interned == after eviction."""
    ref = execute_form(form, inputs, ctx)

    before = memo_stats()
    fresh = semantics._build_executor(form)
    first = fresh(inputs, ctx)
    assert fresh.memo_hit[0] is False
    repeat = fresh(inputs, ctx)
    assert fresh.memo_hit[0] is True
    after = memo_stats()
    assert after["op_misses"] - before["op_misses"] == 1
    assert after["op_hits"] - before["op_hits"] == 1

    interned = form_executor(form)
    assert form_executor(form) is interned
    shared = interned(inputs, ctx)

    # Cap 1: a second key pushes the first out, so the third call
    # recomputes it from scratch.
    other = FPContext(ctx.rmode, not ctx.ftz, ctx.daz)
    with _outcome_cap(1):
        evicting = semantics._build_executor(form)
        evicting(inputs, ctx)
        evicting(inputs, other)
        evicted = evicting(inputs, ctx)
        assert evicting.memo_hit[0] is False

    for out in (first, repeat, shared, evicted):
        assert out == ref
        assert out.results == ref.results  # bit patterns, lane by lane
        assert out.flags == ref.flags and out.tiny == ref.tiny
    return ref


@settings(max_examples=120, deadline=None)
@given(form=st.sampled_from(_BINARY_FORMS), data=st.data(), ctx=contexts)
def test_binary_ops_bit_identical(form, data, ctx):
    _check(form, _draw_inputs(data, form), ctx)


@settings(max_examples=60, deadline=None)
@given(form=st.sampled_from(_UNARY_FORMS), data=st.data(), ctx=contexts)
def test_sqrt_and_round_bit_identical(form, data, ctx):
    _check(form, _draw_inputs(data, form), ctx)


@settings(max_examples=60, deadline=None)
@given(form=st.sampled_from(_FMA_FORMS), data=st.data(), ctx=contexts)
def test_fma_bit_identical(form, data, ctx):
    _check(form, _draw_inputs(data, form), ctx)


@settings(max_examples=60, deadline=None)
@given(
    form=st.sampled_from(_COMPARE_CONVERT_FORMS), data=st.data(),
    ctx=contexts,
)
def test_compare_and_converts_bit_identical(form, data, ctx):
    _check(form, _draw_inputs(data, form), ctx)


def test_context_is_part_of_the_key():
    """Same operand bits under different control words must not collide."""
    subnormal, one = 0x0000000000000001, 0x3FF0000000000000
    inputs = ((subnormal, one),)
    run = semantics._build_executor(FORMS["addsd"])
    outcomes = {}
    for ctx in (FPContext(), FPContext(daz=True),
                FPContext(RoundingMode.UP), FPContext(ftz=True)):
        outcomes[ctx] = run(inputs, ctx)
        assert run.memo_hit[0] is False  # a new context is a new key
        assert outcomes[ctx] == execute_form(FORMS["addsd"], inputs, ctx)
    for ctx, out in outcomes.items():
        assert run(inputs, ctx) is out
        assert run.memo_hit[0] is True
    # DE is raised only without DAZ; rounding up moves the result.
    assert outcomes[FPContext()].flags != outcomes[FPContext(daz=True)].flags
    assert (outcomes[FPContext()].results
            != outcomes[FPContext(RoundingMode.UP)].results)


def test_capacity_bounds_the_cache():
    """Past ``_OUTCOME_CAP`` distinct keys the oldest entry is evicted,
    and recomputing it gives the same outcome."""
    form = FORMS["cvtsi2sd"]
    ctx = FPContext()
    run = semantics._build_executor(form)
    cap = semantics._OUTCOME_CAP
    for i in range(cap + 1):
        run(((i,),), ctx)
    run(((cap,),), ctx)
    assert run.memo_hit[0] is True  # newest key still resident
    again = run(((0,),), ctx)
    assert run.memo_hit[0] is False  # oldest key was evicted
    assert again == execute_form(form, ((0,),), ctx)
