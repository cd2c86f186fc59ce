"""The CPU execution engine.

``CPU.step`` executes one guest operation for a task, implementing the
exact hardware contract FPSpy's individual-mode state machine depends on
(paper section 3.6):

1. every FP instruction sets its condition codes in ``%mxcsr`` (sticky);
2. if any raised condition is *unmasked*, a precise exception is taken
   **before writeback** -- the kernel turns it into a SIGFPE whose
   ucontext carries RIP, instruction bytes, RSP, and ``%mxcsr``;
3. when the handler returns, the kernel restarts the *same* instruction;
4. if ``RFLAGS.TF`` is set, a single-step trap (SIGTRAP) fires after the
   instruction completes, and the interrupted RIP is the *next*
   instruction.

Signal handlers run as host callables but are charged cycle costs, and
their writes to the ucontext's ``mxcsr``/``EFL`` are applied back to the
task -- this is how FPSpy masks exceptions and toggles single-stepping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.fp.flags import Flag, highest_priority
from repro.guest.ops import FPBlock, IntWork, LibcCall
from repro.isa.instruction import FPInstruction
from repro.machine import blockexec
from repro.isa.semantics import execute_form, form_executor
from repro.kernel.signals import (
    EFLAGS_TF,
    FATAL_BY_DEFAULT,
    FLAG_SICODE_INT,
    SIG_DFL,
    SIG_IGN,
    TRAP_TRACE_CODE,
    MContext,
    SigInfo,
    Signal,
    UContext,
)
from repro.kernel.task import Task, TaskState
from repro.machine.costs import DEFAULT_COSTS, CostModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class ThreadExitRequested(Exception):
    """Raised by the ``pthread_exit`` libc implementation."""


class ProcessExitRequested(Exception):
    """Raised by the ``exit`` libc implementation."""

    def __init__(self, code: int = 0) -> None:
        super().__init__(code)
        self.code = code


@dataclass
class GuestCallContext:
    """What a libc implementation sees when invoked by the CPU."""

    kernel: "Kernel"
    task: Task

    @property
    def process(self):
        return self.task.process


class CPU:
    """Executes guest operations for the kernel's scheduler."""

    def __init__(self, kernel: "Kernel", costs: CostModel = DEFAULT_COSTS) -> None:
        self.kernel = kernel
        self.costs = costs
        #: Scheduler-slice accounting.  A step normally consumes one unit
        #: of the task's quantum, but a batched block chunk stands for
        #: many per-instruction steps: the block engine sets ``step_cost``
        #: to that equivalent count (and respects ``step_budget``, the
        #: slice units the scheduler has left) so preemption points fall
        #: where the per-instruction stream would put them.
        self.step_cost = 1
        self.step_budget = kernel.config.quantum
        #: Trap-storm fast path (DESIGN.md #7).  ``_fuse_armed`` is set by
        #: ``deliver_signals`` when the step's last delivery was a SIGFPE
        #: handler and nothing else is pending: the re-execution that
        #: follows in the same step may then fold its single-step SIGTRAP
        #: delivery inline instead of posting it for the next step.
        self.trapfast = kernel.config.trapfast
        self._fuse_armed = False
        #: Storm batch driver (DESIGN.md #11): host-side batch/bail-out
        #: accounting, exposed as a pull gauge when telemetry is on.
        self.stormbatch = kernel.config.stormbatch
        self.storm_stats: dict = {
            "batches": 0, "groups": 0, "records": 0, "bailouts": {},
        }
        #: Per-RIP cache: address -> (site, memoized executor, end rip).
        #: ``TEXT_BASE`` is shared across processes, so entries validate
        #: the interned :class:`CodeSite` by identity before use.
        self._site_cache: dict[int, tuple] = {}
        #: Telemetry (DESIGN.md #8).  Instruments are pre-fetched here so
        #: hot paths pay one ``is not None`` test when disabled; none of
        #: them may charge cycles or touch architectural state.
        tel = kernel.telemetry
        self._prof = tel.profiler if tel else None
        if tel:
            sc = tel.scope("cpu")
            self._t_site_hits = sc.counter("site_cache.hits")
            self._t_site_misses = sc.counter("site_cache.misses")
            self._t_fused = sc.counter("trapfusion.fused")
            self._t_bailed = sc.counter("trapfusion.bailed")
            self._t_bail_reasons = sc.labeled("trapfusion.bailouts")
            self._t_signals = tel.scope("kernel").labeled("signals.delivered")
            sc.gauge("site_cache.size", lambda: len(self._site_cache))
            sc.gauge("storm", self._storm_gauge)
            blk = tel.scope("blockexec")
            self._t_blk_chunks = blk.counter("fast_chunks")
            self._t_blk_groups = blk.counter("fast_groups")
            self._t_blk_scalar = blk.counter("scalar_substeps")
            self._t_blk_enter = blk.counter("quiesce.entries")
            self._t_blk_exit = blk.counter("quiesce.exits")
        else:
            self._t_site_hits = None
            self._t_site_misses = None
            self._t_fused = None
            self._t_bailed = None
            self._t_bail_reasons = None
            self._t_signals = None
            self._t_blk_chunks = None
            self._t_blk_groups = None
            self._t_blk_scalar = None
            self._t_blk_enter = None
            self._t_blk_exit = None
        #: Host-only per-task record of the block engine's last regime
        #: (True = vectorized chunk, False = precise sub-step), for the
        #: quiescence entry/exit transition counters.
        self._blk_mode: dict[Task, bool] = {}
        #: Flight recorder + provenance (DESIGN.md #10), pre-fetched with
        #: the same one-branch idiom as telemetry.
        tr = getattr(kernel, "tracer", None)
        self._tr = tr if tr else None
        self._prov = getattr(kernel, "provenance", None)

    def _storm_gauge(self) -> dict:
        """Flattened storm accounting for ``/proc/fpspy/counters``."""
        st = self.storm_stats
        out = {
            "batches": st["batches"],
            "groups": st["groups"],
            "records": st["records"],
        }
        for reason, n in st["bailouts"].items():
            out[f"bail.{reason}"] = n
        return out

    def _note_block_mode(self, task: Task, fast: bool) -> None:
        """Count quiescence regime transitions for ``task`` (telemetry)."""
        prev = self._blk_mode.get(task)
        if prev is fast:
            return
        self._blk_mode[task] = fast
        if fast:
            self._t_blk_enter.value += 1
        elif prev is not None:
            self._t_blk_exit.value += 1

    # ------------------------------------------------------------- signals

    def _build_ucontext(self, task: Task, info: SigInfo) -> UContext:
        mctx = MContext(
            rip=info.addr if info.signo == Signal.SIGFPE else task.last_rip,
            rsp=task.rsp,
            eflags=EFLAGS_TF if task.trap_flag else 0,
            mxcsr=task.mxcsr.value,
        )
        op = task.pending_op
        if info.signo == Signal.SIGFPE and isinstance(op, FPInstruction):
            mctx.instruction = op.site.encoding
            mctx.operands = op.inputs
        elif info.signo == Signal.SIGFPE and isinstance(op, FPBlock):
            # A block faults at its cursor: the handler sees exactly the
            # instruction bytes and operands of the faulting group.
            mctx.instruction = op.site.encoding
            mctx.operands = op.group(op.index)
        return UContext(mcontext=mctx)

    def deliver_signals(self, task: Task) -> bool:
        """Deliver all pending signals.  Returns False if the task died."""
        while task.pending_signals and task.alive:
            info = task.pending_signals.popleft()
            disposition = task.process.disposition(info.signo)
            if disposition == SIG_IGN:
                continue
            if disposition == SIG_DFL:
                if info.signo in FATAL_BY_DEFAULT:
                    self.kernel.kill_process(task.process, info.signo)
                    return False
                continue
            # User handler: kernel crossing, frame setup, handler body.
            if self._t_signals is not None:
                self._t_signals.inc(info.signo)
            task.stime_cycles += self.costs.signal_deliver
            self.kernel.cycles += self.costs.signal_deliver
            uctx = self._build_ucontext(task, info)
            if self._tr is not None:
                self._tr.signal_delivered(task, info.signo, info.code, uctx.mcontext)
            disposition(info.signo, info, uctx)
            self._apply_handler_writes(task, uctx)
            # Arm the fused single-step path: the handler of a precise FP
            # fault just returned (typically having masked the exception
            # and set TF) and nothing else is queued ahead of the trap.
            self._fuse_armed = (
                info.signo == Signal.SIGFPE and not task.pending_signals
            )
        return task.alive

    def _apply_handler_writes(self, task: Task, uctx: UContext) -> None:
        """Apply a returning handler's context writes to the task."""
        task.mxcsr.value = uctx.mcontext.mxcsr
        task.trap_flag = uctx.mcontext.trap_flag
        task.stime_cycles += self.costs.sigreturn
        self.kernel.cycles += self.costs.sigreturn
        emulated = uctx.mcontext.emulated_results
        if emulated is not None and isinstance(task.pending_op, FPInstruction):
            # Trap-and-emulate: the handler computed the instruction's
            # results itself; retire without re-execution.
            op = task.pending_op
            op.results = tuple(emulated)
            task.pending_op = None
            task.send_value = op.results
            task.last_rip = op.site.address + len(op.site.encoding)
            task.advance_vtime(1)
            if self._prov is not None:
                self._prov.observe(task, op.site, op.inputs, op.results, 0)
            if self._tr is not None:
                self._tr.emulated(task, op.site.address)
        elif (
            emulated is not None
            and isinstance(task.pending_op, FPBlock)
            and not task.pending_op.fp_done
        ):
            # Same idiom with the block's cursor parked on the faulting
            # instruction: retire that group with the handler's results.
            op = task.pending_op
            if self._prov is not None:
                take = op.take(op.index)
                self._prov.observe(
                    task, op.site, op.group(op.index)[:take],
                    tuple(emulated)[:take], 0,
                )
            blockexec.retire_fp(self, task, op, tuple(emulated), charge=False)
            if self._tr is not None:
                self._tr.emulated(task, op.site.address)

    # --------------------------------------------------------------- fetch

    def _fetch(self, task: Task):
        """Get the current op: a restarted pending op or the next yield."""
        if task.pending_op is not None:
            return task.pending_op
        try:
            if not task.started:
                task.started = True
                return next(task.gen)
            value, task.send_value = task.send_value, None
            return task.gen.send(value)
        except StopIteration:
            self.kernel.finalize_task(task, normal=True)
            return None
        except ProcessExitRequested as exc:
            self.kernel.exit_process(task.process, exc.code)
            return None

    # ------------------------------------------------------------- execute

    def step(self, task: Task) -> bool:
        """Run one operation (or signal burst).  False => task not runnable."""
        self.step_cost = 1
        self._fuse_armed = False
        if not task.alive:
            return False
        self.kernel.current_task = task
        prof = self._prof
        if prof is not None:
            # Attribute the delivery burst (kernel crossings + handler
            # bodies) to the trap bin, minus any trace appends the
            # handlers issued, which TraceWriter credits to tracing.
            t0 = prof.clock()
            tr0 = prof.tracing_s
            delivered = self.deliver_signals(task)
            prof.account_trap(prof.clock() - t0, prof.tracing_s - tr0)
            if not delivered:
                return False
        elif not self.deliver_signals(task):
            return False
        op = self._fetch(task)
        if op is None:
            return False

        if isinstance(op, FPBlock):
            return blockexec.step_block(self, task, op)
        if isinstance(op, FPInstruction):
            return self._exec_fp(task, op)
        if isinstance(op, IntWork):
            return self._exec_int(task, op)
        if isinstance(op, LibcCall):
            return self._exec_call(task, op)
        raise TypeError(f"guest yielded unsupported op {op!r}")

    # ----------------------------------------------- per-RIP decode cache

    def _site_entry(self, site) -> tuple:
        """Interned execution record for a static code site.

        One tuple per RIP: the (already decoded) site, its memoized
        executor, and the retirement RIP, so a hot loop body -- or the
        trap->replay cycle on a single instruction -- never re-derives any
        of them.  ``TEXT_BASE`` is shared across processes, so a cached
        entry is only used if it is for this exact interned site object.
        """
        entry = self._site_cache.get(site.address)
        if entry is None or entry[0] is not site:
            entry = (
                site,
                form_executor(site.form),
                site.address + len(site.encoding),
            )
            self._site_cache[site.address] = entry
            if self._t_site_misses is not None:
                self._t_site_misses.value += 1
        elif self._t_site_hits is not None:
            self._t_site_hits.value += 1
        return entry

    def execute_site(self, task: Task, site, inputs):
        """Execute one instruction of ``site``, honoring ``trapfast``.

        Both execution engines (scalar and block sub-step) route through
        here so the ablation toggles one switch: ``trapfast`` on takes the
        per-RIP memoized executor, off takes the uncached softfloat --
        bit-identical by construction and by property test.
        """
        if self.trapfast:
            return self._site_entry(site)[1](inputs, task.mxcsr.context())
        return execute_form(site.form, inputs, task.mxcsr.context())

    # ------------------------------------------------------------ execute

    def _exec_fp(self, task: Task, op: FPInstruction) -> bool:
        site = op.site
        if self.trapfast:
            _, executor, end_rip = self._site_entry(site)
            outcome = executor(op.inputs, task.mxcsr.context())
        else:
            executor = None
            outcome = execute_form(op.form, op.inputs, task.mxcsr.context())
            end_rip = site.address + len(site.encoding)
        # Condition codes are set as a side effect regardless of masking.
        task.mxcsr.set_status(outcome.flags)

        pending = task.mxcsr.unmasked_pending(outcome.flags)
        if outcome.tiny and not task.mxcsr.ue_masked:
            # Unmasked-UM corner: even an *exact* tiny result traps.
            pending |= Flag.UE
        if pending:
            # Precise fault before writeback: the op stays current and will
            # be restarted when the handler returns.
            task.pending_op = op
            delivered = highest_priority(pending)
            task.stime_cycles += self.costs.fault_entry
            self.kernel.cycles += self.costs.fault_entry
            task.post_signal(
                SigInfo(
                    signo=Signal.SIGFPE,
                    code=FLAG_SICODE_INT[delivered],
                    addr=site.address,
                )
            )
            if self._tr is not None:
                self._tr.fp_fault(
                    task, site.address, FLAG_SICODE_INT[delivered], int(pending)
                )
            return True

        # Writeback and retire.
        op.results = outcome.results
        task.pending_op = None
        task.send_value = outcome.results
        task.last_rip = end_rip
        task.utime_cycles += self.costs.fp_instr
        self.kernel.cycles += self.costs.fp_instr
        task.advance_vtime(1)
        if self._prov is not None:
            self._prov.observe(task, site, op.inputs, outcome.results, outcome.flags)
        if self._tr is not None:
            hit = executor.memo_hit[0] if executor is not None else None
            self._tr.fp_retired(task, site.address, hit)
        self._maybe_trap(task)
        return True

    def _exec_int(self, task: Task, op: IntWork) -> bool:
        if task.pending_int_remaining == 0:
            task.pending_int_remaining = op.count
        if task.trap_flag:
            # Single-stepping: one instruction, then trap.
            chunk = 1
        else:
            chunk = task.pending_int_remaining
            # Precise timers: a long run of integer instructions stops at
            # the next timer expiry so the signal lands where the timer
            # said, not at the end of the block.
            vt_budget, real_budget = self.kernel.timer_budgets(task)
            if vt_budget is not None:
                chunk = min(chunk, max(1, vt_budget))
            if real_budget is not None:
                chunk = min(chunk, max(1, real_budget // self.costs.int_instr))
        task.pending_int_remaining -= chunk
        task.utime_cycles += chunk * self.costs.int_instr
        self.kernel.cycles += chunk * self.costs.int_instr
        task.advance_vtime(chunk)
        if task.pending_int_remaining > 0:
            task.pending_op = op  # more units to run after the trap
        else:
            task.pending_op = None
            task.send_value = None
        self._maybe_trap(task)
        return True

    def _exec_call(self, task: Task, op: LibcCall) -> bool:
        loader = task.process.loader
        assert loader is not None, "process has no loader"
        impl = loader.resolve(op.name)
        ctx = GuestCallContext(kernel=self.kernel, task=task)
        task.utime_cycles += self.costs.libc_call
        self.kernel.cycles += self.costs.libc_call
        try:
            result = impl(ctx, *op.args, **op.kwargs)
        except ThreadExitRequested:
            self.kernel.finalize_task(task, normal=True)
            return False
        except ProcessExitRequested as exc:
            self.kernel.exit_process(task.process, exc.code)
            return False
        task.pending_op = None
        task.send_value = result
        task.advance_vtime(1)
        self._maybe_trap(task)
        return True

    def _maybe_trap(self, task: Task) -> None:
        """Raise the single-step SIGTRAP if TF is set after retirement.

        Precise path: charge the fault entry and post the signal; it is
        delivered at the start of the task's next step.  Fused path
        (DESIGN.md #7): when this step's signal burst ended with a SIGFPE
        handler arming TF and fusion is provably unobservable, deliver the
        SIGTRAP inline right now -- same charges, same handler-visible
        state, one scheduler round-trip less.
        """
        if not task.trap_flag:
            return
        kernel = self.kernel
        if self._fuse_armed and self.trapfast:
            reason = None
            if task.pending_signals:
                # Bail-out: anything already queued would be delivered
                # before the trap on the precise path (including a
                # SIGVTALRM the re-execution's vtime advance just posted).
                reason = "pending_signal"
            elif self.step_budget - self.step_cost < 1:
                # Bail-out: the precise delivery must land in this same
                # slice; at a quantum boundary another task runs first.
                reason = "quantum"
            else:
                disposition = task.process.disposition(Signal.SIGTRAP)
                if not callable(disposition):
                    # Bail-out: SIG_DFL (fatal) / SIG_IGN take kernel-side
                    # paths at the precise delivery point; don't
                    # short-circuit those.
                    reason = "disposition"
                else:
                    # Bail-out: a real timer expiring by the precise
                    # path's end-of-step check must fire there (and
                    # periodic timers re-arm off the firing cycle);
                    # fusion would move it.
                    floor = kernel.cycles + self.costs.fault_entry
                    heap = kernel._timer_heap
                    if heap and heap[0][0] <= floor:
                        reason = "timer"
                    else:
                        if self._t_fused is not None:
                            self._t_fused.value += 1
                        self._deliver_trap_inline(task, disposition, floor)
                        return
            if self._t_bailed is not None:
                self._t_bailed.value += 1
                self._t_bail_reasons.inc(reason)
            if self._tr is not None and reason != "quantum":
                # Architecturally meaningful bail-outs mark the open trap
                # tree as interesting for the tail sampler.  "quantum" is
                # excluded deliberately: it depends only on slice phase,
                # and marking it would make retention differ between
                # otherwise byte-identical scheduling configurations.
                self._tr.note_bailout(task)
        task.stime_cycles += self.costs.fault_entry
        kernel.cycles += self.costs.fault_entry
        task.post_signal(
            SigInfo(signo=Signal.SIGTRAP, code=TRAP_TRACE_CODE)
        )
        if self._tr is not None:
            self._tr.trap_queued(task, False)

    def _deliver_trap_inline(self, task: Task, disposition, floor: int) -> None:
        """Fused FPE->TRAP delivery: run the SIGTRAP handler in this step.

        The charge sequence is exactly the precise path's -- fault entry
        (posting), then delivery, handler, sigreturn -- so cycle counts,
        utime/stime splits, and every value the handler can observe
        (rip, rsp, eflags, mxcsr via a fresh ucontext) are identical.
        Timers expiring past ``floor`` (the cycle at which the precise
        path's next check would run) are held back one check by
        ``defer_timers_once`` so their firing cycle and landing
        instruction also match.
        """
        self._fuse_armed = False
        costs = self.costs
        kernel = self.kernel
        prof = self._prof
        if prof is not None:
            t0 = prof.clock()
            tr0 = prof.tracing_s
        task.stime_cycles += costs.fault_entry
        kernel.cycles += costs.fault_entry
        info = SigInfo(signo=Signal.SIGTRAP, code=TRAP_TRACE_CODE)
        if self._tr is not None:
            self._tr.trap_queued(task, True)
        if self._t_signals is not None:
            self._t_signals.inc(info.signo)
        task.stime_cycles += costs.signal_deliver
        kernel.cycles += costs.signal_deliver
        uctx = self._build_ucontext(task, info)
        if self._tr is not None:
            self._tr.signal_delivered(task, info.signo, info.code, uctx.mcontext)
        disposition(info.signo, info, uctx)
        self._apply_handler_writes(task, uctx)
        kernel.defer_timers_once(floor)
        if prof is not None:
            prof.account_trap(prof.clock() - t0, prof.tracing_s - tr0)
