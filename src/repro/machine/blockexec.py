"""The block execution engine.

One :class:`repro.guest.ops.FPBlock` stands for a long per-instruction
stream; this module executes it so the two are architecturally
indistinguishable (DESIGN.md decision #6).  Two regimes:

**Fast path: non-faulting runs.**  An array block has one *execution
window* (:class:`Window`): its lanes from the cursor to the block end,
run once per :class:`repro.fp.softfloat.FPContext` through the batch FP
entry point :func:`repro.fp.batchfloat.execute_batch` (error-free
transformations certify the common lanes, the scalar semantics cover
the rest).  A lane's bits, flags and ``tiny`` depend only on the
context, never on the exception masks, so the window also tells, for
any mask set, which groups would fault: those whose flags hit an
unmasked exception, or that are tiny while Underflow is unmasked.  The
leading run of groups that cannot fault under the task's current masks
is committed as one chunk: one sticky-flag OR into ``%mxcsr``, one
cycle charge, one vtime advance.  This is sound because no group in the
run faults, sticky-flag OR is commutative and nothing can observe
intermediate state mid-chunk.  Quiescence -- every exception masked --
is the special case where the whole window is one run.  The chunk is
capped by the scheduler quantum and by the vtimer/real-timer budgets
exactly as ``CPU._exec_int`` caps integer runs, so ``SIGVTALRM`` and
``SIGALRM`` land on the precise instruction the per-instruction stream
would deliver them at.  Blocks without operand arrays (forms outside
the batch entry point) keep a quiescent-only group-by-group chunk.

**Precise replay.**  A group that would fault -- FPSpy individual mode
catching an event of its capture set -- is first offered to the storm
batch driver (:mod:`repro.machine.storm`), which reads the same window.
Otherwise, and whenever the fast path's gate fails (single-stepping,
an open flight-recorder trap tree, a timer expiring inside the next
group), the block executes one sub-step per ``CPU.step`` call,
mirroring ``_exec_fp``/``_exec_int`` verbatim: condition codes stick,
unmasked conditions fault *before writeback* with the block's cursor
parked on the faulting instruction (so the handler return restarts it),
``TF`` traps after every retirement, integer phases chunk at timer
boundaries.  Fault-before-writeback is preserved, and individual-mode
trace files are byte-identical with the block engine enabled.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

import numpy as np

from repro.fp import batchfloat, provenance as _prov_mod
from repro.machine import storm
from repro.fp.flags import MASK_SHIFT, Flag, highest_priority
from repro.fp.softfloat import FPContext
from repro.guest.ops import FPBlock
from repro.kernel.signals import FLAG_SICODE_INT, SigInfo, Signal
from repro.kernel.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cpu import CPU

_ALL = 0x3F
_UE = int(Flag.UE)


class Window:
    """One batch execution of a block's lanes from group ``start`` to the
    block end under ``ctx``.

    ``bits``, ``flags`` and ``tiny`` are the per-lane outcome arrays of
    :func:`repro.fp.batchfloat.execute_batch`.  Everything per group is
    derived lazily: the flag OR (``codes``), the pending-exception set
    and fault positions per mask set, and the provenance pre-scan.
    """

    __slots__ = ("ctx", "start", "ng", "lanes", "ops", "bits", "flags",
                 "tiny", "_codes", "_pend", "_scan")

    def __init__(self, block: FPBlock, ctx: FPContext) -> None:
        form = block.site.form
        self.ctx = ctx
        self.start = block.index
        self.ng = block.n_groups - block.index
        self.lanes = form.lanes
        lo = self.start * self.lanes
        self.ops = tuple(a[lo:] for a in block.arrays)
        res = batchfloat.execute_batch(form, self.ops, ctx)
        self.bits, self.flags, self.tiny = res.bits, res.flags, res.tiny
        self._codes = None
        #: unmasked set -> (per-group pending array, fault positions)
        self._pend: dict[int, tuple[np.ndarray, list[int]]] = {}
        self._scan = None

    @property
    def codes(self) -> np.ndarray:
        """Per-group OR of the lane flags (int64)."""
        if self._codes is None:
            self._codes = np.bitwise_or.reduce(
                self.flags.reshape(self.ng, self.lanes), axis=1)
        return self._codes

    def _pending(self, unmasked: int) -> tuple[np.ndarray, list[int]]:
        ent = self._pend.get(unmasked)
        if ent is None:
            pend = self.codes & unmasked
            if unmasked & _UE:
                # Unmasked-UM corner: an exact-but-tiny result traps too.
                tiny_g = self.tiny.reshape(self.ng, self.lanes).any(axis=1)
                pend = pend | np.where(tiny_g, _UE, 0)
            ent = self._pend[unmasked] = (pend, np.flatnonzero(pend).tolist())
        return ent

    def pending(self, unmasked: int) -> np.ndarray:
        """Per group, the exceptions that fault under ``unmasked``."""
        return self._pending(unmasked)[0]

    def clean_run(self, rel: int, unmasked: int) -> int:
        """How many groups from window group ``rel`` on cannot fault
        under ``unmasked`` (0: group ``rel`` itself faults)."""
        if not unmasked:
            return self.ng - rel
        faults = self._pending(unmasked)[1]
        i = bisect_left(faults, rel)
        return (faults[i] if i < len(faults) else self.ng) - rel

    def prov_scan(self, prov, block: FPBlock) -> np.ndarray:
        """The provenance pre-scan of the whole window, computed once
        (:meth:`repro.fp.provenance.ProvenanceTracker.scan_window`)."""
        if self._scan is None:
            self._scan = prov.scan_window(
                block.site, self.ops, self.bits, self.ng, self.lanes,
                block.take(block.n_groups - 1))
        return self._scan


def window(block: FPBlock, ctx: FPContext) -> Window:
    """``block``'s execution window under ``ctx``, recomputed from the
    cursor when the context changed since it was built."""
    w = block._window
    if w is None or w.ctx != ctx:
        w = block._window = Window(block, ctx)
    return w


def step_block(cpu: "CPU", task: Task, block: FPBlock) -> bool:
    """Execute one ``CPU.step``'s worth of ``block`` for ``task``."""
    # The block stays current until its last group retires, so faults,
    # traps, and preemption all resume it at the cursor.
    task.pending_op = block
    if not block.fp_done and cpu.kernel.config.blockexec:
        if block.arrays is not None:
            tr = cpu._tr
            if (
                not task.trap_flag
                and not task.pending_signals
                and (tr is None or task not in tr._live)
                and batchfloat.batch_covered(block.site.form)
            ):
                mx = task.mxcsr
                w = window(block, mx.context())
                unmasked = ~(mx.value >> MASK_SHIFT) & _ALL
                n = w.clean_run(block.index - w.start, unmasked)
                if n:
                    return _fast(cpu, task, block, n, w, unmasked)
        elif task.fp_quiescent:
            return _fast(cpu, task, block, block.n_groups - block.index,
                         None, 0)
        # The cursor's group would fault (FPSpy individual mode caught
        # an event), or the gate failed: offer the run of faulting
        # groups to the storm batch driver (DESIGN.md #11), which
        # commits whole trap lifecycles as one array op when -- and only
        # when -- that is provably byte-identical to precise stepping.
        if cpu.stormbatch and storm.try_storm(cpu, task, block):
            return True
    if cpu._t_blk_scalar is not None:
        cpu._t_blk_scalar.value += 1
        cpu._note_block_mode(task, False)
    return _scalar_substep(cpu, task, block)


# --------------------------------------------------------------- fast path


def _fast(
    cpu: "CPU", task: Task, block: FPBlock, n: int, w: Window | None,
    unmasked: int,
) -> bool:
    """Commit up to ``n`` non-faulting groups, capped by the scheduler
    slice and the timer budgets."""
    kernel = cpu.kernel
    u = 1 + block.interleave  # vtime units per group
    per_group = cpu.costs.block_group_cycles(block.interleave)
    # Scheduler-slice weight: per-instruction execution spends one step on
    # the FP instruction and (when interleaved) one on the IntWork chunk,
    # so a k-group batch stands for k*s steps of the task's quantum.
    s = 2 if block.interleave > 0 else 1
    k = min(n, cpu.step_budget // s)
    vt_budget, real_budget = kernel.timer_budgets(task)
    if vt_budget is not None:
        k = min(k, vt_budget // u)
    if real_budget is not None:
        k = min(k, real_budget // per_group)
    if k <= 0:
        # A timer expires inside the next group (or the slice has less
        # than a whole group's budget left): execute it with scalar
        # sub-steps so signals and preemption land on the exact
        # instruction.
        if cpu._t_blk_scalar is not None:
            cpu._t_blk_scalar.value += 1
            cpu._note_block_mode(task, False)
        return _scalar_substep(cpu, task, block)

    _commit_chunk(cpu, task, block, k, w)
    cpu.step_cost = k * s
    if cpu._tr is not None:
        # Fast-path batches stamp one coarse span (never per-instruction
        # detail -- nothing in a committed chunk can fault or trap).
        cpu._tr.chunk(task, block.site.address, k)
    if cpu._t_blk_chunks is not None:
        cpu._t_blk_chunks.value += 1
        cpu._t_blk_groups.value += k
        if unmasked:
            cpu._t_blk_unmasked.value += 1
        cpu._note_block_mode(task, True)
    return True


def _commit_chunk(
    cpu: "CPU", task: Task, block: FPBlock, k: int, w: Window | None
) -> None:
    """Retire ``k`` whole non-faulting groups as one batch: from the
    window ``w``, or (non-array blocks) group by group."""
    kernel = cpu.kernel
    site = block.site
    lanes = site.form.lanes
    start = block.index
    prov = cpu._prov
    c0 = kernel.cycles
    per_group = cpu.costs.block_group_cycles(block.interleave)

    if w is not None:
        rel = start - w.start
        lo, hi = rel * lanes, (rel + k) * lanes
        flags = Flag(int(np.bitwise_or.reduce(w.flags[lo:hi])))
        out = w.bits[lo:hi].tolist()
        if prov is not None:
            # Provenance only reacts to NaN/Inf/denorm bit patterns, so
            # observing just the groups the window pre-scan flags (as
            # input or result) sees every origin, propagation, and sink
            # the per-group path would -- each at the cycle the precise
            # sub-step observes it (before its retirement charge).
            idxs = np.flatnonzero(w.prov_scan(prov, block)[rel:rel + k])
            prov.observed += k - idxs.size
            for j in idxs.tolist():
                g = start + j
                take = block.take(g)
                kernel.cycles = c0 + j * per_group
                prov.observe(
                    task, site, block.group(g)[:take],
                    tuple(out[j * lanes:j * lanes + take]),
                    Flag(int(w.codes[rel + j])),
                )
    else:
        flags = Flag.NONE
        out = []
        for j in range(k):
            g = start + j
            outcome = cpu.execute_site(task, site, block.group(g))
            flags |= outcome.flags
            out.extend(outcome.results)
            if prov is not None:
                take = block.take(g)
                kernel.cycles = c0 + j * per_group
                prov.observe(
                    task, site, block.group(g)[:take],
                    outcome.results[:take], outcome.flags,
                )

    task.mxcsr.set_status(flags)

    # Writeback: only the block's final group can carry padding.
    end = start + k
    valid = min(end * lanes, block.n_elements) - start * lanes
    block.results.extend(out[:valid])
    block.index = end
    task.last_rip = site.address + len(site.encoding)

    cycles = k * per_group
    task.utime_cycles += cycles
    kernel.cycles = c0 + cycles
    task.advance_vtime(k * (1 + block.interleave))
    if block.done:
        _finish(task, block)


def _finish(task: Task, block: FPBlock) -> None:
    task.pending_op = None
    task.send_value = block.results


# ----------------------------------------------------------- precise replay


def _scalar_substep(cpu: "CPU", task: Task, block: FPBlock) -> bool:
    """One per-instruction sub-step, mirroring ``_exec_fp``/``_exec_int``."""
    if not block.fp_done:
        return _substep_fp(cpu, task, block)
    return _substep_int(cpu, task, block)


def _substep_fp(cpu: "CPU", task: Task, block: FPBlock) -> bool:
    kernel, costs = cpu.kernel, cpu.costs
    inputs = block.group(block.index)
    outcome = cpu.execute_site(task, block.site, inputs)
    task.mxcsr.set_status(outcome.flags)

    pending = task.mxcsr.unmasked_pending(outcome.flags)
    if outcome.tiny and not task.mxcsr.ue_masked:
        pending |= Flag.UE
    if pending:
        # Precise fault before writeback: the cursor stays on this group,
        # so the handler's return restarts the same instruction.
        delivered = highest_priority(pending)
        task.stime_cycles += costs.fault_entry
        kernel.cycles += costs.fault_entry
        task.post_signal(
            SigInfo(
                signo=Signal.SIGFPE,
                code=FLAG_SICODE_INT[delivered],
                addr=block.site.address,
            )
        )
        if cpu._tr is not None:
            cpu._tr.fp_fault(
                task, block.site.address, FLAG_SICODE_INT[delivered],
                int(pending),
            )
        return True

    if cpu._prov is not None:
        # Inert-skip, the storm pre-scan's insight applied one group at
        # a time: tags only hold exceptional bit patterns, so an
        # all-ordinary group cannot create, propagate, or sink a chain.
        # The inline test (two compares on the masked value, see
        # ProvenanceTracker.scan_window) runs on every non-faulting
        # scalar retirement; padding lanes conservatively fall through
        # to the exact observe, which take-truncates them away.
        masks = block._prov_masks
        if masks is None:
            masks = block._prov_masks = _prov_mod._form_masks(
                block.site.form)
        ie, im, re_, rm = masks
        exc = False
        if ie is not None:
            both = ie | im
            for lane_ops in inputs:
                for b in lane_ops:
                    x = b & both
                    if x >= ie or 0 < x <= im:
                        exc = True
                        break
                if exc:
                    break
        if not exc and re_ is not None:
            both = re_ | rm
            for b in outcome.results:
                x = b & both
                if x >= re_ or 0 < x <= rm:
                    exc = True
                    break
        if exc:
            take = block.take(block.index)
            cpu._prov.observe(
                task, block.site,
                inputs if take == len(inputs) else inputs[:take],
                outcome.results[:take], outcome.flags,
            )
        else:
            cpu._prov.observed += 1
    retire_fp(cpu, task, block, outcome.results, charge=True)
    tr = cpu._tr
    if tr is not None and task in tr._live:
        # fp_retired is a no-op without an open trap tree; checking here
        # keeps the every-retirement hook off the common path.
        tr.fp_retired(task, block.site.address, None)
    cpu._maybe_trap(task)
    return True


def _substep_int(cpu: "CPU", task: Task, block: FPBlock) -> bool:
    kernel, costs = cpu.kernel, cpu.costs
    if task.trap_flag:
        chunk = 1
    else:
        chunk = block.int_remaining
        vt_budget, real_budget = kernel.timer_budgets(task)
        if vt_budget is not None:
            chunk = min(chunk, max(1, vt_budget))
        if real_budget is not None:
            chunk = min(chunk, max(1, real_budget // costs.int_instr))
    block.int_remaining -= chunk
    task.utime_cycles += chunk * costs.int_instr
    kernel.cycles += chunk * costs.int_instr
    task.advance_vtime(chunk)
    if block.int_remaining == 0:
        _advance_group(task, block)
    cpu._maybe_trap(task)
    return True


def retire_fp(
    cpu: "CPU", task: Task, block: FPBlock, results: tuple, charge: bool
) -> None:
    """Retire the current group's FP instruction.

    ``charge=False`` is the trap-and-emulate path: a SIGFPE handler
    supplied ``emulated_results`` and the kernel retires the instruction
    without re-executing it (and without the retirement cycle charge,
    matching the scalar engine).
    """
    block.results.extend(results[: block.take(block.index)])
    block.fp_done = True
    block.int_remaining = block.interleave
    task.last_rip = block.site.address + len(block.site.encoding)
    if charge:
        task.utime_cycles += cpu.costs.fp_instr
        cpu.kernel.cycles += cpu.costs.fp_instr
    task.advance_vtime(1)
    if block.int_remaining == 0:
        _advance_group(task, block)


def _advance_group(task: Task, block: FPBlock) -> None:
    block.index += 1
    block.fp_done = False
    if block.done:
        _finish(task, block)
