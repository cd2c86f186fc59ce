"""The FPBlock engine must be architecturally indistinguishable from the
per-instruction stream.

Each example streams random operands -- including NaNs, infinities,
subnormals, and boundary magnitudes, i.e. lanes the vectorized EFTs
cannot certify -- through one code site three ways:

* ``blockexec=True``: the vectorized fast path (when quiescent);
* ``blockexec=False``: the block's precise sub-step engine;
* ``block=False``: the legacy one-``FPInstruction``-per-group stream,
  which is the ground-truth oracle.

A drawn *capture set* of unmasked exceptions turns on an FPSpy
individual-mode-style handler pair (SIGFPE masks-all and sets TF; the
following SIGTRAP restores the capture set and clears TF), so examples
exercise the quiescence transitions and fault-before-writeback replay,
and the observable record -- results, fault/trap landing points in
virtual time, sticky flags, cycle counts -- must match bit for bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guest.ops import LibcCall
from repro.guest.program import KernelBuilder
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.signals import Signal

_SPECIALS64 = [
    0x0000000000000000, 0x8000000000000000,  # +-0
    0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
    0x7FF8000000000000,  # qNaN
    0x7FF4000000000000,  # sNaN
    0x0000000000000001, 0x800FFFFFFFFFFFFF,  # subnormals
    0x0010000000000000, 0x7FEFFFFFFFFFFFFF,  # min/max normal
    0x3FF0000000000000, 0xBFE0000000000000,  # 1.0, -0.5
]

bits64 = st.one_of(
    st.sampled_from(_SPECIALS64),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)

#: (mnemonic, arity) over both scalar and packed binary64 forms, so both
#: the 1-lane and 2-lane (tail-padded) group shapes are covered.
_FORMS64 = [
    ("addsd", 2), ("subsd", 2), ("mulsd", 2), ("divsd", 2),
    ("minsd", 2), ("maxsd", 2), ("sqrtsd", 1),
    ("addpd", 2), ("mulpd", 2), ("divpd", 2), ("sqrtpd", 1),
]

#: FE_* exception sets a guest may unmask (glibc bit values; the MXCSR
#: mask bits are these shifted left 7).  Empty = stays quiescent.
_CAPTURE_SETS = [0x00, 0x20, 0x1D, 0x3F]


def _run(mnemonic, streams, interleave, capture, *, blockexec, block):
    """Execute the stream; return every architecturally observable fact."""
    kb = KernelBuilder()
    site = kb.site(mnemonic)
    k = Kernel(KernelConfig(blockexec=blockexec))
    events = []
    out = {}

    def on_fpe(signo, info, uctx):
        events.append(("fpe", info.code, info.addr, k.current_task.vtime,
                       uctx.mcontext.mxcsr))
        uctx.mcontext.mxcsr |= 0x1F80  # mask everything, single-step
        uctx.mcontext.trap_flag = True

    def on_trap(signo, info, uctx):
        events.append(("trap", k.current_task.vtime))
        uctx.mcontext.mxcsr &= ~(capture << 7)  # restore the capture set
        uctx.mcontext.trap_flag = False

    def main():
        yield LibcCall("sigaction", (int(Signal.SIGFPE), on_fpe))
        yield LibcCall("sigaction", (int(Signal.SIGTRAP), on_trap))
        if capture:
            yield LibcCall("feenableexcept", (capture,))
        out["results"] = yield from kb.emit(
            site, *streams, interleave=interleave, block=block
        )

    proc = k.exec_process(main, env={}, name="prop")
    k.run()
    task = proc.main_task
    return {
        "results": list(out["results"]),
        "events": events,
        "vtime": task.vtime,
        "mxcsr": task.mxcsr.value,
        "utime": task.utime_cycles,
        "stime": task.stime_cycles,
        "cycles": k.cycles,
    }


@settings(max_examples=40, deadline=None)
@given(
    form=st.sampled_from(_FORMS64),
    data=st.data(),
    n=st.integers(min_value=1, max_value=24),
    interleave=st.sampled_from([0, 3]),
    capture=st.sampled_from(_CAPTURE_SETS),
)
def test_block_engine_bit_equivalent_to_instruction_stream(
    form, data, n, interleave, capture
):
    mnemonic, arity = form
    streams = [
        data.draw(st.lists(bits64, min_size=n, max_size=n))
        for _ in range(arity)
    ]
    oracle = _run(mnemonic, streams, interleave, capture,
                  blockexec=False, block=False)
    substep = _run(mnemonic, streams, interleave, capture,
                   blockexec=False, block=True)
    fast = _run(mnemonic, streams, interleave, capture,
                blockexec=True, block=True)
    assert substep == oracle
    assert fast == oracle


_SPECIALS32 = [
    0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
    0x7FC00000, 0x7FA00000, 0x00000001, 0x00800000, 0x3F800000,
]

bits32 = st.one_of(
    st.sampled_from(_SPECIALS32),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)


@settings(max_examples=20, deadline=None)
@given(
    mnemonic=st.sampled_from(["addss", "mulss", "divss"]),
    data=st.data(),
    n=st.integers(min_value=1, max_value=12),
    capture=st.sampled_from([0x00, 0x3F]),
)
def test_non_vectorizable_forms_use_group_path_equivalently(
    mnemonic, data, n, capture
):
    """binary32 forms batch through the EFT-first entry point; same contract."""
    streams = [
        data.draw(st.lists(bits32, min_size=n, max_size=n)) for _ in range(2)
    ]
    oracle = _run(mnemonic, streams, 2, capture, blockexec=False, block=False)
    fast = _run(mnemonic, streams, 2, capture, blockexec=True, block=True)
    assert fast == oracle


# --------------------------------------------- sampler off-phase windows


def test_sampler_off_phase_is_block_eligible():
    """A Poisson-sampled individual-mode thread starts (and periodically
    re-enters) the OFF phase with everything masked and TF clear: the
    task must then satisfy the block engine's quiescence gate, and its
    control word must map to the *interned* default context so the memo
    keys of the fast path line up."""
    from repro.fpspy import fpspy_env
    from repro.guest.ops import IntWork

    k = Kernel()

    def main():
        yield IntWork(1)

    proc = k.exec_process(
        main,
        env=fpspy_env("individual", poisson="50:50", timer="virtual", seed=1),
        name="offphase",
    )
    task = proc.main_task
    # init_thread ran in the constructor: OFF phase, capture set masked.
    assert task.fp_quiescent
    assert task.mxcsr.context() is task.mxcsr.context()
    k.run()


def _run_poisson(blockexec, streams, interleave):
    """An FPSpy-monitored run whose sampler toggles mid-block."""
    from repro.fpspy import fpspy_env

    kb = KernelBuilder()
    site = kb.site("mulpd")
    k = Kernel(KernelConfig(blockexec=blockexec))

    def main():
        yield from kb.emit(site, *streams, interleave=interleave)

    proc = k.exec_process(
        main,
        env=fpspy_env("individual", poisson="60:40", timer="virtual", seed=9),
        name="sampled",
    )
    k.run()
    task = proc.main_task
    return {
        "state": {p: k.vfs.read(p) for p in k.vfs.listdir("")},
        "vtime": task.vtime,
        "mxcsr": task.mxcsr.value,
        "cycles": k.cycles,
    }


@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=16, max_value=64),
    interleave=st.sampled_from([0, 3]),
)
def test_off_phase_windows_batch_equivalently(data, n, interleave):
    """Mid-individual-run OFF windows re-enter the vectorized fast path;
    toggling the block engine must not perturb traces or the clock."""
    streams = [
        data.draw(st.lists(bits64, min_size=n, max_size=n)) for _ in range(2)
    ]
    fast = _run_poisson(True, streams, interleave)
    oracle = _run_poisson(False, streams, interleave)
    assert fast == oracle
