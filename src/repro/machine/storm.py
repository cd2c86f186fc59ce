"""The storm batch driver: whole trap storms as one array operation.

Individual-mode monitoring of an exception-dense loop (the paper's
GROMACS packed-FMA case) turns every group of an :class:`FPBlock` into a
full Figure 5 round trip: precise SIGFPE, handler (mask + TF), masked
re-execution, fused SIGTRAP, handler (re-arm).  The per-event fast path
(DESIGN.md #7) already fuses the second trap and memoizes decode, but it
still walks the whole state machine one event at a time through Python.

This driver (DESIGN.md #11) recognizes the storm as a *batch*: a run of
consecutive same-RIP faulting groups.  Their outcomes come from the
block's execution window (:class:`repro.machine.blockexec.Window`): one
call of the batch FP entry point
(:func:`repro.fp.batchfloat.execute_batch`) per block and FP context,
shared with the block engine's non-faulting-run commits, so a block is
never batch-executed twice.  The faulting execution and the handler's
masked re-execution produce the same lane outcomes (admission proves
their contexts equal), so one window serves both.
It then *replicates* -- rather than executes -- the per-event effects:
trace records are serialized in one structured-array pass, cycle/time
accounting is closed-form, and every telemetry counter, ``/proc/fpspy``
event, and flight-recorder span the per-event path would emit is
emitted with identical contents and cycle stamps.

Admissibility is the whole game.  ``try_storm`` proves, before
committing anything, that the replicated story is *byte-identical* to
the per-event one: FPSpy's own handlers installed (any guest handler
bails), monitor live in ``AWAIT_FPE``, masks exactly the capture set,
sticky status clear, equal faulting/masked contexts, no armed timers,
enough scheduler quantum, and headroom under ``maxcount``.  Anything
else takes the precise path -- the bail-out is counted, never silent.
Turning ``KernelConfig.stormbatch`` off is the byte-identity oracle the
ablation benchmark runs against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.fp.batchfloat import batch_covered
from repro.fp.flags import MASK_SHIFT, Flag, flags_to_events
from repro.fp.mxcsr import MXCSR
from repro.guest.ops import FPBlock
from repro.kernel.signals import FLAG_SICODE_INT, Signal
from repro.kernel.task import Task
from repro.machine import blockexec
from repro.trace.records import RECORD_DTYPE

if TYPE_CHECKING:  # pragma: no cover
    from repro.fpspy.engine import FPSpyEngine
    from repro.machine.cpu import CPU

_ALL = 0x3F

#: ``lowest set pending bit -> si_code``, derived from the kernel's own
#: table (``highest_priority`` is the lowest set bit, IE first).
_SICODE_LUT = np.zeros(_ALL + 1, dtype=np.int64)
for _flag, _code in FLAG_SICODE_INT.items():
    _SICODE_LUT[int(_flag)] = int(_code)

#: Minimum admissible batch: below this the per-event path is at least
#: as cheap as the admission work.
_MIN_GROUPS = 2


def _reject(cpu: "CPU", reason: str) -> bool:
    bail = cpu.storm_stats["bailouts"]
    bail[reason] = bail.get(reason, 0) + 1
    return False


def try_storm(cpu: "CPU", task: Task, block: FPBlock) -> bool:
    """Batch-replicate a run of faulting groups if provably unobservable.

    Returns True having committed a whole batch (the CPU step is done),
    False to fall through to the precise scalar sub-step.  Mid-cycle
    states (current group's FP already retired, TF set, signals queued)
    return False without counting a bail-out: they are the *interior* of
    an event the scalar path is already executing, not a rejected storm.
    """
    if block.fp_done or task.trap_flag or task.pending_signals:
        return False
    # Deferred: the fpspy package pulls in the loader, which imports the
    # machine package (cold by the first try_storm call).
    from repro.fpspy.config import Mode
    from repro.fpspy.engine import FPSpyEngine, MonitorState

    kernel = cpu.kernel
    if getattr(block, "_storm_uncovered", False):
        return _reject(cpu, "uncovered")
    site = block.site
    form = site.form
    if block.arrays is None or not batch_covered(form):
        # Block-immutable: never re-derive this rejection.
        block._storm_uncovered = True
        return _reject(cpu, "uncovered")
    if not cpu.trapfast:
        # The replication assumes fused SIGTRAP delivery; without the
        # fast path the precise engine posts the trap instead.
        return _reject(cpu, "trapfast")
    base = task.mxcsr.value
    if base & _ALL:
        # Stale sticky status would leak into the first record's mxcsr
        # and codes fields; the first event's handler clears it, after
        # which the storm admits (self-healing).
        return _reject(cpu, "status")
    if task.vtimer is not None or kernel._timer_heap:
        # Any armed timer (Poisson sampler, app itimer) may fire inside
        # the batch window: precise stepping only.
        return _reject(cpu, "timer")
    proc = task.process
    dfpe = proc.disposition(Signal.SIGFPE)
    if getattr(dfpe, "__func__", None) is not FPSpyEngine._sigfpe_handler:
        return _reject(cpu, "disposition")
    engine: FPSpyEngine = dfpe.__self__
    dtrap = proc.disposition(Signal.SIGTRAP)
    if (
        getattr(dtrap, "__func__", None) is not FPSpyEngine._sigtrap_handler
        or dtrap.__self__ is not engine
    ):
        return _reject(cpu, "disposition")
    if not engine.active or engine.config.mode is not Mode.INDIVIDUAL:
        return _reject(cpu, "engine")
    mon = engine.monitors.get(task.tid)
    if (
        mon is None
        or mon.disabled
        or mon.state is not MonitorState.AWAIT_FPE
        or not mon.sampling_on
    ):
        return _reject(cpu, "engine")
    if ((base >> MASK_SHIFT) & _ALL) != (_ALL & ~int(engine.config.capture)):
        # Masks must be exactly "capture set unmasked": that is what the
        # sigtrap handler re-arms, so it is the storm's loop invariant.
        return _reject(cpu, "masks")
    ctx = task.mxcsr.context()
    if ctx != MXCSR(base | (_ALL << MASK_SHIFT)).context():
        # The faulting execution and the handler's masked re-execution
        # must run under field-equal contexts so one batch serves both
        # (only differs when FTZ rides an unmasked Underflow).
        return _reject(cpu, "ctx")

    # The block's execution window supplies the bits, flags and per-group
    # pending sets; this cache adds the si_codes for the mask set, keyed
    # on the window (hence ctx) plus ``base``, which only feeds the
    # record fields.
    w = blockexec.window(block, ctx)
    cache = block._storm_cache
    if cache is None or cache[0] is not w or cache[1] != base:
        pend = w.pending(~(base >> MASK_SHIFT) & _ALL)
        cache = block._storm_cache = (
            w, base, pend, _SICODE_LUT[pend & -pend])
    rel = block.index - w.start
    nz = cache[2][rel:] != 0
    streak = len(nz) if nz.all() else int(np.argmin(nz))

    # Scheduler-quantum cap: a group is 3 precise steps with interleave
    # (fault, deliver+re-exec+fused-trap, int) else 2 -- and the fused
    # delivery needs one spare unit, so interleave-0 is (budget-1)//2.
    if block.interleave > 0:
        kmax = cpu.step_budget // 3
    else:
        kmax = (cpu.step_budget - 1) // 2
    k = min(streak, kmax)
    if engine.config.maxcount is not None:
        # Stay strictly below the cap: the disarm transition must run on
        # the per-event path (conservative: every group might record).
        k = min(k, engine.config.maxcount - mon.recorded - 1)
    if k < _MIN_GROUPS:
        return _reject(cpu, "short")
    _commit(cpu, task, block, engine, mon, cache, rel, k, base)
    return True


def _commit(
    cpu: "CPU",
    task: Task,
    block: FPBlock,
    engine: FPSpyEngine,
    mon,
    cache,
    rel: int,
    k: int,
    base: int,
) -> None:
    """Replicate ``k`` whole trap lifecycles without stepping the machine.

    Everything the per-event path writes -- records, counters, spans,
    cycle/time splits -- is produced here with identical contents; the
    per-group cycle schedule mirrors the fused path charge by charge.
    """
    kernel = cpu.kernel
    costs = cpu.costs
    site = block.site
    lanes = site.form.lanes
    interleave = block.interleave
    w = cache[0]
    codes = w.codes[rel:rel + k]
    pend = cache[2][rel:rel + k]
    sic = cache[3][rel:rel + k]

    fault_c = costs.fault_entry
    deliv_c = costs.signal_deliver
    ret_c = costs.sigreturn
    huser_c = costs.handler_user
    tapp_c = costs.trace_append
    fp_c = costs.fp_instr
    int_c = costs.int_instr

    # Which groups record (the engine's modular subsample, vectorized).
    sample = engine.config.sample
    rec = ((mon.observed + 1 + np.arange(k)) % sample) == 0
    r = int(rec.sum())
    seq0 = mon.seq

    # Per-group cycle schedule: fault entry, SIGFPE delivery, handler
    # (+record), sigreturn, masked re-exec, fused trap entry + delivery,
    # handler, sigreturn, integer phase -- exactly the fused path.
    group_cost = 2 * (fault_c + deliv_c + ret_c) + 2 * huser_c + fp_c \
        + interleave * int_c
    gcosts = np.full(k, group_cost, dtype=np.int64)
    gcosts[rec] += tapp_c
    cum = np.concatenate(([0], np.cumsum(gcosts)))
    c0 = kernel.cycles
    starts = c0 + cum[:-1]
    total = int(cum[-1])

    # Trace records, one structured-array pass (byte-identical to the
    # engine's per-event pack_record calls).
    if r:
        rows = np.zeros(r, dtype=RECORD_DTYPE)
        rows["seq"] = seq0 + np.arange(r)
        rows["time"] = (
            starts[rec] + (fault_c + deliv_c + huser_c)
        ) / kernel.config.freq_hz
        rows["rip"] = site.address
        rows["rsp"] = task.rsp
        rows["mxcsr"] = base | codes[rec]
        rows["sicode"] = sic[rec]
        rows["codes"] = codes[rec]
        insn16 = site.encoding[:16].ljust(16, b"\x00")
        rows["insn_len"] = min(len(site.encoding), 16)
        rows["insn"] = np.frombuffer(insn16, dtype="V16")[0]
        mon.writer.append_packed(rows.tobytes(), r)

    end_rip = site.address + len(site.encoding)
    tr = cpu._tr
    prov = cpu._prov
    t_scope = engine._t_scope
    if tr is not None or prov is not None or t_scope is not None:
        _replicate_events(
            cpu, task, block, engine, rel, k, base, codes, pend, sic, rec,
            c0, end_rip, seq0,
        )
    kernel.cycles = c0 + total
    task.stime_cycles += k * 2 * (fault_c + deliv_c + ret_c)
    task.utime_cycles += k * (2 * huser_c + fp_c + interleave * int_c) \
        + r * tapp_c

    # Monitor bookkeeping.
    mon.observed += k
    mon.seq = seq0 + r
    mon.recorded += r

    # Telemetry counters the per-event path would have bumped.
    if engine._t_observed is not None:
        engine._t_observed.value += k
        engine._t_recorded.value += r
        uniq, counts = np.unique(codes, return_counts=True)
        for c, n in zip(uniq.tolist(), counts.tolist()):
            for name in flags_to_events(Flag(c)):
                engine._t_events.inc(name, n)
    cpu._site_entry(site)  # keep the per-RIP cache warm (and count one)
    if cpu._t_site_hits is not None:
        # Two execute_site calls per group (faulting + masked re-exec),
        # minus the probe just made: exact parity warm and cold.
        cpu._t_site_hits.value += 2 * k - 1
    if cpu._t_fused is not None:
        cpu._t_fused.value += k
    if cpu._t_signals is not None:
        cpu._t_signals.inc(Signal.SIGFPE, k)
        cpu._t_signals.inc(Signal.SIGTRAP, k)

    # The fused path raises one timer-defer fence per group; the heap is
    # empty (admission), so replicate the final floor + the counter.
    floor_last = int(starts[-1]) + fault_c + deliv_c + huser_c \
        + (tapp_c if bool(rec[-1]) else 0) + ret_c + fp_c + fault_c
    kernel.defer_timers_once(floor_last)
    if kernel.telemetry:
        kernel._t_defer_fences.value += k - 1

    # Writeback: identical to k retire_fp calls.
    lo = block.index * lanes
    end = block.index + k
    valid = min(end * lanes, block.n_elements) - lo
    seg = w.bits[(rel * lanes):(rel + k) * lanes]
    block.results.extend(seg[:valid].tolist())
    block.index = end
    block.fp_done = False
    task.last_rip = end_rip
    task.advance_vtime(k * (1 + interleave))  # vtimer is None (admission)
    if block.done:
        blockexec._finish(task, block)
    cpu.step_cost = (3 if interleave > 0 else 2) * k

    st = cpu.storm_stats
    st["batches"] += 1
    st["groups"] += k
    st["records"] += r


def _replicate_events(
    cpu: "CPU",
    task: Task,
    block: FPBlock,
    engine: FPSpyEngine,
    rel: int,
    k: int,
    base: int,
    codes,
    pend,
    sic,
    rec,
    c0: int,
    end_rip: int,
    seq0: int,
) -> None:
    """Per-event observer replication: flight-recorder span trees,
    ``/proc/fpspy/events`` entries, provenance observations.

    Only runs when at least one observer is live, so the plain storm hot
    path never enters this loop.  The loop itself performs only the
    per-event work that *must* be exact per event -- telemetry span
    events at the SIGFPE delivery cycle and provenance observations at
    the masked-re-execution retirement cycle (``kernel.cycles`` is slid
    to each stamp because both read it directly).  The 14-span trap
    trees are emitted by one bulk :meth:`TraceRecorder.replicate_trees`
    call with identical ids, parents, cycles, and args to the per-event
    path -- and, with tail sampling on, boring trees are discarded
    *before* any span tuple is built, which is what keeps an always-on
    recorder affordable in a storm.
    """
    kernel = cpu.kernel
    costs = cpu.costs
    site = block.site
    lanes = site.form.lanes
    w = block._window
    tr = cpu._tr
    prov = cpu._prov
    t_scope = engine._t_scope
    rip = site.address
    rsp = task.rsp
    pid = engine.process.pid
    tid = task.tid
    insn = site.encoding
    masked_base = base | (_ALL << MASK_SHIFT)
    fault_c = costs.fault_entry
    deliv_c = costs.signal_deliver
    ret_c = costs.sigreturn
    huser_c = costs.handler_user
    tapp_c = costs.trace_append
    fp_c = costs.fp_instr
    int_tail = costs.int_instr * block.interleave

    # Only ``rec`` is indexed for every event; codes / si_codes /
    # pending masks are touched solely for retained trees and the rare
    # suspicious observes, so they stay numpy (scalar indexing on the
    # cold path beats converting whole windows on the hot one).
    rec_l = rec.tolist()
    r = sum(rec_l)
    if tr is not None:
        # One summary span *plus* full per-event trees: batching must
        # never under-count (satellite 6).
        tr.storm(task, rip, k, r)

    # Event start cycles mirror the fused path's charge schedule:
    # event j starts at c0 + j * group_cost, plus one trace-append per
    # earlier recorded event.  Kept as a formula -- not a list -- so the
    # common batch (every tree discarded, no observer events) never
    # materializes per-event cycles at all.
    group_cost = 2 * (fault_c + deliv_c + ret_c) + 2 * huser_c + fp_c \
        + int_tail
    obs_off = fault_c + deliv_c + huser_c + ret_c  # SIGFPE delivery+handler
    marks = [0] * k
    try:
        if t_scope is not None:
            sic_l = sic.tolist()
            c = c0
            for j in range(k):
                t_scope.event(
                    "sigfpe", c + fault_c + deliv_c,
                    pid=pid, tid=tid, rip=rip, sicode=sic_l[j],
                )
                c += group_cost + (tapp_c if rec_l[j] else 0)
        if prov is not None:
            # Vectorized pre-scan: groups with only ordinary lanes can
            # neither create, propagate, nor sink a chain, so only the
            # exceptional (and partial-tail) groups replay through the
            # exact per-event observe -- in event order, at the exact
            # cycle the per-event path observes at (the masked
            # re-execution, after the recording handler returns).  The
            # scan covers the whole cached window once; each committed
            # storm just slices its k groups out of it.
            sus_w = w.prov_scan(prov, block)
            idxs = [j for j, s in
                    enumerate(sus_w[rel:rel + k].tolist()) if s]
            prov.observed += k - len(idxs)
            for j in idxs:
                kernel.cycles = (
                    c0 + j * group_cost + tapp_c * sum(rec_l[:j])
                    + obs_off + (tapp_c if rec_l[j] else 0)
                )
                g = block.index + j
                take = block.take(g)
                glo = (rel + j) * lanes
                marks[j] = prov.observe(
                    task, site, block.group(g)[:take],
                    tuple(w.bits[glo:glo + take].tolist()),
                    Flag(int(codes[j])),
                )
        if tr is not None:
            tr.replicate_trees(
                task, rip, end_rip, insn, rsp, base, masked_base,
                sic, pend, codes, rec_l, seq0, c0,
                (fault_c, deliv_c, huser_c, tapp_c, ret_c, fp_c,
                 group_cost),
                marks,
            )
    finally:
        kernel.cycles = c0
