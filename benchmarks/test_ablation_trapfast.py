"""Ablation: precise two-trap delivery vs fused per-event delivery vs
the storm batch driver (DESIGN.md decisions #7 and #11).

Individual mode turns every captured FP condition into a four-act play:
precise SIGFPE, handler (mask + set TF), re-execution, single-step
SIGTRAP, handler (unmask + clear TF).  Two accelerations stack on top:

* ``trapfast`` fuses the SIGTRAP delivery into the re-execution step and
  memoizes decode/semantics per RIP (the per-event fast path);
* ``stormbatch`` recognizes runs of consecutive same-RIP faulting groups
  and replicates their whole trap lifecycles -- records, counters, cycle
  schedule -- from one vectorized softfloat pass over the operand arrays,
  turning the trap storm into a handful of numpy kernel calls.

Neither is admissible unless the guest cannot tell: same cycle clock,
same signal ordering, byte-identical trace files.  These benches measure
all three configurations on an exception-dense packed-FMA storm (every
``vfmaddps`` raises Inexact, the paper's GROMACS headline case), assert
three-way indistinguishability along with both speedup bars, and drop
the numbers plus the batch statistics in ``BENCH_trapfast.json``.
"""

import time
from pathlib import Path

from repro.fp.formats import float_to_bits32
from repro.fpspy import fpspy_env
from repro.guest.program import KernelBuilder
from repro.isa.semantics import memo_stats
from repro.kernel.kernel import Kernel, KernelConfig

from benchmarks.conftest import write_results

#: Per-event fast-path speedup bar over precise (measured ~6-7x).
MIN_SPEEDUP = 3.0
#: Storm batch driver speedup bar over precise (measured ~70-80x).
MIN_STORM_SPEEDUP = 50.0
#: Elements in the storm: 8-lane binary32 FMAs -> N/8 packed instructions,
#: every one of which raises Inexact and round-trips the Figure 5 state
#: machine.  Large enough that trap delivery, not setup, dominates.
STORM_ELEMENTS = 19200
#: Scheduler slice for the headline run.  A long quantum lets the storm
#: driver admit long batches (its group budget is slice-bounded); all
#: three configurations run under the same quantum, so the byte-identity
#: oracle is unaffected.
STORM_QUANTUM = 2048

RESULTS_JSON = Path(__file__).resolve().parent.parent / "BENCH_trapfast.json"


def _operands(n):
    """Ordinary in-range values: every FMA is inexact, none over/underflow."""
    a = [float_to_bits32(1.1 + (i % 24) * 0.3) for i in range(n)]
    b = [float_to_bits32(0.7 + (i % 12) * 0.21) for i in range(n)]
    c = [float_to_bits32(-0.033 * (1 + i % 6)) for i in range(n)]
    return a, b, c


def _run(trapfast, stormbatch, n=STORM_ELEMENTS, quantum=STORM_QUANTUM,
         **env_extra):
    a, b, c = _operands(n)
    kb = KernelBuilder()
    site = kb.site("vfmaddps", key="hot")

    def main():
        yield from kb.emit(site, a, b, c, interleave=2)

    k = Kernel(KernelConfig(
        trapfast=trapfast, stormbatch=stormbatch, quantum=quantum))
    k.exec_process(
        main, env=fpspy_env("individual", **env_extra), name="fmastorm"
    )
    t0 = time.perf_counter()
    k.run()
    elapsed = time.perf_counter() - t0
    state = {p: k.vfs.read(p) for p in k.vfs.listdir("")}
    return k, state, elapsed


def test_trapfast_speedup_individual_mode(benchmark):
    """Three-way head-to-head on the dense trap storm: the fused path
    clears >=3x and the storm driver >=50x over precise, with nothing
    architecturally observable separating any pair."""

    def compare():
        kp, state_p, precise = _run(False, False)
        kf, state_f, fused = _run(True, False)
        ks, state_s, storm = _run(True, True)
        return kp, kf, ks, state_p, state_f, state_s, precise, fused, storm

    (kp, kf, ks, state_p, state_f, state_s,
     precise, fused, storm) = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    # Unobservable: equal cycle clocks and byte-identical VFS state (the
    # .ind trace files carry rip/instruction/mxcsr per event, so any
    # divergence in delivery order or context contents shows up here).
    assert kp.cycles == kf.cycles == ks.cycles
    assert state_p == state_f == state_s
    assert any(p.endswith(".ind") for p in state_p)

    # The driver genuinely engaged: nearly every group rode a batch.
    stats = ks.cpu.storm_stats
    assert stats["batches"] >= 1
    groups_total = STORM_ELEMENTS // 8
    assert stats["groups"] >= groups_total * 0.9
    bailouts = sum(stats["bailouts"].values())

    fused_speedup = precise / fused
    storm_speedup = precise / storm
    write_results(
        RESULTS_JSON,
        {
            "workload": "vfmaddps-storm",
            "mode": "individual",
            "elements": STORM_ELEMENTS,
            "quantum": STORM_QUANTUM,
            "precise_s": round(precise, 4),
            "trapfast_s": round(fused, 4),
            "storm_s": round(storm, 4),
            "speedup": round(fused_speedup, 2),
            "storm_speedup": round(storm_speedup, 2),
            "storm_vs_trapfast": round(fused / storm, 2),
            "cycles": ks.cycles,
            "storm_batches": stats["batches"],
            "storm_groups": stats["groups"],
            "storm_records": stats["records"],
            "mean_batch_groups": round(stats["groups"] / stats["batches"], 1),
            "storm_bailouts": dict(stats["bailouts"]),
            "bailout_rate": round(bailouts / (bailouts + stats["groups"]), 4),
            "outcome_memo": memo_stats(),
        },
        gates={
            "speedup": {"min": MIN_SPEEDUP},
            "storm_speedup": {"min": MIN_STORM_SPEEDUP},
        },
    )
    assert fused_speedup >= MIN_SPEEDUP, (
        f"trap-storm fast path speedup {fused_speedup:.2f}x "
        f"below {MIN_SPEEDUP}x bar"
    )
    assert storm_speedup >= MIN_STORM_SPEEDUP, (
        f"storm batch driver speedup {storm_speedup:.2f}x "
        f"below {MIN_STORM_SPEEDUP}x bar"
    )
    assert storm_speedup > fused_speedup, (
        "batching must beat per-event fusion on its home workload"
    )


def test_trapfast_poisson_sampling_traces_byte_identical(benchmark):
    """Poisson sampling arms interval timers whose expiries race the fused
    delivery window; the timer-defer fence plus the heap-head bail-out
    must keep both timer flavors byte-identical and cycle-exact.  The
    storm driver stays enabled here but must reject every batch (armed
    timers fail admission), so this also exercises its fallback."""

    def compare():
        out = {}
        for timer in ("virtual", "real"):
            kf, state_f, _ = _run(
                True, True, n=1600, quantum=128,
                sample=1, poisson="900:700", timer=timer, seed=7,
            )
            ks, state_s, _ = _run(
                False, False, n=1600, quantum=128,
                sample=1, poisson="900:700", timer=timer, seed=7,
            )
            out[timer] = (kf, ks.cycles, state_f, state_s)
        return out

    out = benchmark.pedantic(compare, rounds=1, iterations=1)
    for timer, (kf, cyc_s, state_f, state_s) in out.items():
        assert kf.cycles == cyc_s, f"{timer} timer: cycle clocks diverged"
        assert state_f == state_s, f"{timer} timer: traces diverged"
        assert kf.cpu.storm_stats["batches"] == 0
        if timer == "virtual":
            # The real-timer run ends inside the sampler's initial OFF
            # phase (no events at all); only the virtual flavor actually
            # storms with a timer armed.
            assert kf.cpu.storm_stats["bailouts"].get("timer", 0) >= 1
