"""The vectorized masked-mode block execution engine.

One :class:`repro.guest.ops.FPBlock` stands for a long per-instruction
stream; this module executes it so the two are architecturally
indistinguishable (DESIGN.md decision #6).  Two regimes:

**Quiescent fast path.**  When the task is quiescent -- every exception
masked, ``RFLAGS.TF`` clear, no FTZ/DAZ, any rounding mode -- no FP
instruction in the block can fault or trap, so a chunk of groups can be
committed as a batch: results via the batch FP entry point
:func:`repro.fp.batchfloat.execute_batch` (error-free transformations
certify the common lanes, the scalar semantics cover the rest), one
sticky-flag OR into ``%mxcsr``, one cycle charge, one vtime advance.
This is sound because sticky-flag OR is commutative and nothing can
observe intermediate state mid-chunk.  The
chunk is capped by the scheduler quantum and by the vtimer/real-timer
budgets exactly as ``CPU._exec_int`` caps integer runs, so ``SIGVTALRM``
and ``SIGALRM`` land on the precise instruction the per-instruction
stream would deliver them at.

**Precise replay.**  Outside quiescence -- FPSpy individual mode
unmasking its capture set, a sampler duty cycle turning on, ``fesetenv``,
single-stepping -- the block executes one sub-step per ``CPU.step`` call,
mirroring ``_exec_fp``/``_exec_int`` verbatim: condition codes stick,
unmasked conditions fault *before writeback* with the block's cursor
parked on the faulting instruction (so the handler return restarts it),
``TF`` traps after every retirement, integer phases chunk at timer
boundaries.  Because blocks only ever commit group-at-a-time through
this path, fault-before-writeback is preserved and individual-mode trace
files are byte-identical with the block engine enabled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.fp import batchfloat, provenance as _prov_mod
from repro.machine import storm
from repro.fp.flags import Flag, highest_priority
from repro.guest.ops import FPBlock
from repro.kernel.signals import FLAG_SICODE_INT, SigInfo, Signal
from repro.kernel.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cpu import CPU


def step_block(cpu: "CPU", task: Task, block: FPBlock) -> bool:
    """Execute one ``CPU.step``'s worth of ``block`` for ``task``."""
    kernel = cpu.kernel
    # The block stays current until its last group retires, so faults,
    # traps, and preemption all resume it at the cursor.
    task.pending_op = block
    if (
        block.fp_done  # mid-group: finish the integer phase first
        or not kernel.config.blockexec
        or not task.fp_quiescent
    ):
        # Non-quiescent usually means FPSpy's individual mode is live:
        # first offer the run of faulting groups to the storm batch
        # driver (DESIGN.md #11), which commits whole trap lifecycles as
        # one array op when -- and only when -- that is provably
        # byte-identical to precise stepping.
        if (
            cpu.stormbatch
            and not block.fp_done
            and kernel.config.blockexec
            and storm.try_storm(cpu, task, block)
        ):
            return True
        if cpu._t_blk_scalar is not None:
            cpu._t_blk_scalar.value += 1
            cpu._note_block_mode(task, False)
        return _scalar_substep(cpu, task, block)

    costs = cpu.costs
    u = 1 + block.interleave  # vtime units per group
    per_group = costs.block_group_cycles(block.interleave)
    # Scheduler-slice weight: per-instruction execution spends one step on
    # the FP instruction and (when interleaved) one on the IntWork chunk,
    # so a k-group batch stands for k*w steps of the task's quantum.
    w = 2 if block.interleave > 0 else 1
    k = min(block.n_groups - block.index, cpu.step_budget // w)
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

    _commit_chunk(cpu, task, block, k)
    cpu.step_cost = k * w
    if cpu._tr is not None:
        # Fast-path batches stamp one coarse span (never per-instruction
        # detail -- nothing in a quiescent chunk can fault or trap).
        cpu._tr.chunk(task, block.site.address, k)
    if cpu._t_blk_chunks is not None:
        cpu._t_blk_chunks.value += 1
        cpu._t_blk_groups.value += k
        cpu._note_block_mode(task, True)
    return True


# --------------------------------------------------------------- fast path


def _commit_chunk(cpu: "CPU", task: Task, block: FPBlock, k: int) -> None:
    """Retire ``k`` whole groups as one batch (quiescent state only)."""
    form = block.site.form
    lanes = form.lanes
    start = block.index
    flags = Flag.NONE

    if block.arrays is not None:
        # One batch through the FP entry point: EFT-certified lanes plus
        # the per-lane scalar semantics for the rest give the full masked
        # semantics -- results, all six condition codes, NaN payloads,
        # subnormals -- for every lane.  Nothing can fault in the
        # quiescent state and flag OR is commutative, so batching order
        # is unobservable.
        lo, hi = start * lanes, (start + k) * lanes
        ops = tuple(a[lo:hi] for a in block.arrays)
        res = batchfloat.execute_batch(form, ops, task.mxcsr.context())
        flags |= Flag(int(np.bitwise_or.reduce(res.flags)))
        out = res.bits.tolist()
        if cpu._prov is not None:
            # Provenance only reacts to NaN/Inf/denorm bit patterns, so
            # observing just the groups carrying one (as input or
            # result) sees every origin, propagation, and sink the
            # per-group path would.
            special = batchfloat.special_lane_mask(form.fmt, res.bits)
            for o in ops:
                special |= batchfloat.special_lane_mask(form.fmt, o)
            gflags = res.flags.reshape(k, lanes)
            for gi in np.nonzero(special.reshape(k, lanes).any(axis=1))[0]:
                g = start + int(gi)
                take = block.take(g)
                glo = int(gi) * lanes
                cpu._prov.observe(
                    task, block.site, block.group(g)[:take],
                    tuple(out[glo:glo + take]),
                    Flag(int(np.bitwise_or.reduce(gflags[gi]))),
                )
    else:
        out = []
        for g in range(start, start + k):
            outcome = cpu.execute_site(task, block.site, block.group(g))
            flags |= outcome.flags
            out.extend(outcome.results)
            if cpu._prov is not None:
                take = block.take(g)
                cpu._prov.observe(
                    task, block.site, block.group(g)[:take],
                    outcome.results[:take], outcome.flags,
                )

    task.mxcsr.set_status(flags)

    # Writeback: only the block's final group can carry padding.
    end = start + k
    valid = min(end * lanes, block.n_elements) - start * lanes
    block.results.extend(out[:valid])
    block.index = end
    task.last_rip = block.site.address + len(block.site.encoding)

    costs = cpu.costs
    cycles = k * costs.block_group_cycles(block.interleave)
    task.utime_cycles += cycles
    cpu.kernel.cycles += cycles
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
        # keeps the every-retirement hook off the quiescent-run path.
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
