"""Span tracing of the program's layers, recorded from outside it.

The traced repetition wraps public entry points of the program -- each
looked up through its module or class attribute at call time, so the
wrapper catches every call -- and records one span per call: name,
start, end, parent span and run id.  Spans stay in memory (compact
per-thread columns) and are written once, when the repetition ends.

A span's *self time* is its duration minus the time its child spans
cover.  Calls are synchronous, so children nest inside their parent and
the self times of one ``Kernel.run`` tree sum to the root's duration;
:func:`ledger` checks both facts rather than assuming them.

The wrappers cost real time (a Python call per span), so end-to-end
numbers never come from a traced repetition.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array

import numpy as np

#: ``(span name, module, attribute)`` of every wrapped entry point.
#: Several entry points may share one span name (one layer).
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("kernel.run", "repro.kernel.kernel", "Kernel.run"),
    ("cpu.deliver", "repro.machine.cpu", "CPU.deliver_signals"),
    ("blockexec", "repro.machine.blockexec", "step_block"),
    ("storm", "repro.machine.storm", "try_storm"),
    ("batchfloat", "repro.fp.batchfloat", "execute_batch"),
    ("vectorfast", "repro.fp.vectorfast", "vector_execute"),
    ("trace.append", "repro.trace.writer", "TraceWriter.append_individual"),
    ("trace.append", "repro.trace.writer", "TraceWriter.append_packed"),
    ("trace.append", "repro.trace.writer", "TraceWriter.append_aggregate"),
    ("trace.append", "repro.trace.writer", "TraceWriter.append_text"),
    ("trace.flush", "repro.trace.writer", "TraceWriter.flush"),
    ("trace.read", "repro.trace.reader", "TraceSet.from_vfs"),
    ("analysis", "repro.analysis.extract", "per_event_counts"),
    ("analysis", "repro.analysis.extract", "code_rankpop_inputs"),
    ("campaign.pool_start", "repro.campaign.pool", "WorkerPool.start"),
    ("campaign.job_run", "repro.campaign.runner", "CampaignRunner.run"),
    ("campaign.report", "repro.campaign.report", "ResultAccumulator.merge"),
    ("campaign.store", "repro.campaign.artifacts", "ArtifactStore.put_file"),
    ("analytics.figures", "repro.campaign.daemon", "CampaignDaemon.figures"),
)

ROOT = "kernel.run"


class SpanRecorder:
    """In-memory span store; one column set per thread, no locking on
    the hot path.  ``run_id`` is stamped on every span that starts while
    it is set (the caller sets it before each simulated run or job)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.run_id = 0
        self._local = threading.local()
        self._threads: list[tuple[array, ...]] = []
        self._lock = threading.Lock()

    def _thread_columns(self):
        # name id, start ns, end ns, parent index (-1 = root), run id
        cols = tuple(array("q") for _ in range(5))
        with self._lock:
            self._threads.append(cols)
        self._local.cols = cols
        self._local.stack = []
        return cols

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        local = self._local
        clock = time.perf_counter_ns
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                cols = local.cols
            except AttributeError:
                cols = rec._thread_columns()
            names, starts, ends, parents, runs = cols
            stack = local.stack
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(rec.run_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every entry point in :data:`ENTRY_POINTS` by a wrapper."""
        for name, modname, attr in ENTRY_POINTS:
            mod = importlib.import_module(modname)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            raw = vars(owner)[fn_name]
            if isinstance(raw, classmethod):
                setattr(owner, fn_name,
                        classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(owner, fn_name, self.wrap(name, raw))

    def columns(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; ``parent`` indexes the flat arrays."""
        parts = {k: [] for k in ("name", "start", "end", "parent", "run",
                                 "thread")}
        offset = 0
        with self._lock:
            threads = list(self._threads)
        for tid, cols in enumerate(threads):
            arrs = [np.frombuffer(c, dtype=np.int64).copy() for c in cols]
            name, start, end, parent, run = arrs
            n = len(name)
            # A span still open (a call in flight on another thread)
            # has no end yet: drop it and everything after it.
            done = np.nonzero(end == 0)[0]
            n = int(done[0]) if len(done) else n
            parent = parent[:n]
            parent = np.where(parent >= 0, parent + offset, -1)
            for k, a in zip(parts, (name[:n], start[:n], end[:n], parent,
                                    run[:n], np.full(n, tid))):
                parts[k].append(a)
            offset += n
        return {k: (np.concatenate(v) if v else np.zeros(0, np.int64))
                for k, v in parts.items()}

    def save(self, path: str) -> None:
        """Write every span (and the name table) as one ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


def ledger(rec: SpanRecorder, min_run: int = 0) -> dict:
    """Per-layer calls / total / self seconds plus the tree checks, over
    the spans whose run id is at least ``min_run``.

    ``tree`` compares, over all ``kernel.run`` trees, the sum of the
    roots' durations with the sum of every tree member's self time, and
    counts children that do not lie inside their parent's interval.
    """
    c = rec.columns()
    dur = c["end"] - c["start"]
    parent = c["parent"]
    n = len(dur)
    child = np.zeros(n, dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child

    p = parent[has_parent]
    outside = int(np.count_nonzero(
        (c["start"][has_parent] < c["start"][p])
        | (c["end"][has_parent] > c["end"][p])))

    # Root of every span, by pointer jumping (nesting depth is small).
    top = np.where(has_parent, parent, np.arange(n))
    while True:
        up = parent[top]
        move = up >= 0
        if not move.any():
            break
        top[move] = up[move]

    keep = c["run"] >= min_run
    layers: dict[str, dict] = {}
    for nid, name in enumerate(rec.names):
        sel = (c["name"] == nid) & keep
        layers[name] = {
            "calls": int(np.count_nonzero(sel)),
            "total_s": float(dur[sel].sum()) / 1e9,
            "self_s": float(self_ns[sel].sum()) / 1e9,
        }
    if ROOT in rec.names:
        roots = (c["name"] == rec.names.index(ROOT)) & ~has_parent & keep
        in_tree = roots[top]
        tree = {
            "root_s": float(dur[roots].sum()) / 1e9,
            "self_sum_s": float(self_ns[in_tree].sum()) / 1e9,
        }
    else:
        tree = {"root_s": 0.0, "self_sum_s": 0.0}
    tree["outside_parent"] = outside
    return {"layers": layers, "tree": tree, "spans": n}
