"""Study-level benchmark: the paper's workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study_masked --seed 1 \\
        --seconds 15 --trace 0

One invocation:

1. computes the *oracle*: every run of the workload for this seed with
   all fast paths off (``KernelConfig(blockexec=False, trapfast=False,
   stormbatch=False)``), split over at most two child interpreters;
2. repeats the workload in fresh child interpreters for ``--seconds``
   (at least twice), each repetition timed from outside the program's
   entry points (``child.py``);
3. checks every run's trace-file digests and cycle count against the
   oracle, and that the deterministic counters repeat exactly across
   repetitions;
4. prints a human-readable summary on stderr, writes the full record
   (with host facts) to ``perfbench/out/``, and prints one JSON result
   object as the last line of stdout.

End-to-end times are host seconds scaled to a reference host speed,
measured by a program-independent probe between runs (see
``child.py``); the unscaled seconds are printed and recorded alongside.
Per-layer times are unscaled span seconds of the traced repetition.

With ``--trace 0`` the metrics are the end-to-end ones, all from
untraced repetitions.  With ``--trace 1`` traced and untraced
repetitions alternate; the metrics are the per-layer ledger from the
traced ones (:mod:`ledger`) plus the traced/untraced wall-time ratio.

The load comes from one client process at a time: the repetitions run
one after another, never concurrently with each other or the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from child import PROBE_REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Wall-clock budget of one invocation, seconds; no child outlives it.
BUDGET_S = 170.0
#: Minimum repetitions per kind (untraced; traced with ``--trace 1``).
MIN_REPS = 2

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "job_latency_s": "s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

STORM_BAILOUTS = ("uncovered", "trapfast", "status", "timer", "disposition",
                  "engine", "masks", "ctx", "short")

#: Per-layer metrics: name -> unit.  Self times are span durations minus
#: their child spans (:mod:`ledger`); counts are per-run deltas of the
#: program's own counters or span call counts.  Which end-to-end metric
#: each layer should move, and where:
#:
#: * kernel, trace.read, analysis -> wall_s on every in-process workload;
#: * cpu.deliver, trace.* writer, memo -> wall_s (memo also peak_rss_mb)
#:   on study_individual and individual_all; study_masked: no change;
#: * blockexec -> wall_s on study_masked and the filtered half of
#:   study_individual; vectorfast -> wall_s on study_masked only;
#: * storm -> wall_s on individual_all (commits) and study_individual
#:   (admission); batchfloat -> wall_s on individual_all, study_masked;
#: * campaign.pool_start/plan/run_host/busy -> setup_s, runs_per_s, and
#:   campaign.queue/report/store, analytics -> job_latency_s, all on
#:   campaign_daemon.
PER_LAYER = {
    "kernel.run.self_s": "s",
    "kernel.ops": "count",
    "kernel.cycles": "count",
    "cpu.deliver.calls": "count",
    "cpu.deliver.self_s": "s",
    "blockexec.calls": "count",
    "blockexec.self_s": "s",
    "storm.attempts": "count",
    "storm.batches": "count",
    "storm.groups": "count",
    "storm.commit_ratio": "ratio",
    **{f"storm.bailouts.{r}": "count" for r in STORM_BAILOUTS},
    "storm.self_s": "s",
    "batchfloat.calls": "count",
    "batchfloat.lanes": "count",
    "batchfloat.fallback_lanes": "count",
    "batchfloat.self_s": "s",
    "batchfloat.ns_per_lane": "ns",
    "vectorfast.calls": "count",
    "vectorfast.self_s": "s",
    "vectorfast.rejects.operand_window": "count",
    "vectorfast.rejects.result_range": "count",
    "memo.op_hits": "count",
    "memo.op_misses": "count",
    "memo.hit_ratio": "ratio",
    "trace.append.calls": "count",
    "trace.append.self_s": "s",
    "trace.flush.calls": "count",
    "trace.flush.self_s": "s",
    "trace.bytes": "bytes",
    "trace.read.self_s": "s",
    "trace.records": "count",
    "analysis.self_s": "s",
    "campaign.pool_start_s": "s",
    "campaign.plan_mode": "pool_share",
    "campaign.run_host_s": "s",
    "campaign.worker_busy_ratio": "ratio",
    "campaign.job_queue_s": "s",
    "campaign.report_s": "s",
    "campaign.store_s": "s",
    "campaign.store_bytes": "bytes",
    "analytics.figures_s": "s",
    "ledger.root_s": "s",
    "ledger.self_sum_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Span layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
_SPAN_LAYERS = ("kernel.run", "cpu.deliver", "blockexec", "storm",
                "batchfloat", "vectorfast", "trace.append", "trace.flush",
                "trace.read", "analysis")
_CAMPAIGN_SPANS = {
    "campaign.report": "campaign.report_s",
    "campaign.store": "campaign.store_s",
    "analytics.figures": "analytics.figures_s",
}


# ------------------------------------------------------------- children


class Children:
    """The child interpreters of one invocation.

    Each child runs in its own session, so killing its process group
    also kills the pool workers a daemon repetition spawned.  A child
    never outlives ``deadline``, and :meth:`kill_all` (run on exit, also
    on SIGTERM) stops any still running.
    """

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.live: set[subprocess.Popen] = set()

    def start(self, req: dict) -> subprocess.Popen:
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # Temporary files the program makes stay inside the checkout.
        env["TMPDIR"] = os.path.join(OUT_DIR, "tmp")
        os.makedirs(env["TMPDIR"], exist_ok=True)
        req = dict(req, spawned=time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(req)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=ROOT, env=env, start_new_session=True)
        self.live.add(proc)
        return proc

    def finish(self, proc: subprocess.Popen):
        """``(result, None)`` or ``(None, reason)``."""
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self._kill(proc)
            return None, "timed out"
        self.live.discard(proc)
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            return None, tail[0]
        try:
            return json.loads(out.strip().splitlines()[-1]), None
        except (IndexError, ValueError):
            return None, "no result line"

    def run(self, req: dict):
        return self.finish(self.start(req))

    def _kill(self, proc: subprocess.Popen) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        self.live.discard(proc)

    def kill_all(self) -> None:
        for proc in list(self.live):
            self._kill(proc)


def compute_oracle(children: Children, workload: str, seed: int):
    """``(oracle, problems)``: label -> all-fast-paths-off output
    ``(cycles, digest)``, or None where the oracle run itself raised.

    Returns ``oracle=None`` when a share could not be computed at all.
    """
    parts = max(1, min(2, os.cpu_count() or 1))
    procs = [children.start({"op": "oracle", "workload": workload,
                             "seed": seed, "part": i, "parts": parts})
             for i in range(parts)]
    oracle, problems = {}, []
    for proc in procs:
        result, err = children.finish(proc)
        if err:
            problems.append(f"oracle child failed: {err}")
            continue
        for r in result["runs"]:
            if "error" in r:
                problems.append(f"oracle run {r['label']}: {r['error']}")
            oracle[r["label"]] = (
                None if "error" in r else (r["cycles"], r["digest"]))
    failed_share = any(p.startswith("oracle child") for p in problems)
    return (None if failed_share else oracle), problems


# --------------------------------------------------------------- checks


def check_rep(rep: dict | None, oracle: dict) -> tuple[int, int]:
    """``(attempted, failed)`` runs of one repetition.

    Every run of the oracle counts as attempted.  A run fails if it
    raised, if its cycle count or any trace-file digest differs from the
    oracle's (or the oracle run raised), or if it never came back: a
    crashed or timed-out repetition, or a daemon job that ended in a
    state other than ``done``.
    """
    got = {} if rep is None else {r["label"]: r for r in rep["runs"]}
    failed = 0
    for label, want in oracle.items():
        r = got.get(label)
        if r is None or "error" in r or want != (r["cycles"], r["digest"]):
            failed += 1
    return len(oracle), failed


def _same(values: list, what: str, problems: list) -> None:
    if any(v != values[0] for v in values[1:]):
        keys = sorted({k for v in values for k in v
                       if len({repr(x.get(k)) for x in values}) > 1})
        problems.append(f"{what} differ across repetitions: {keys}")


# -------------------------------------------------------------- metrics


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict:
    jobs = [s for r in reps for s in r["jobs_s"]]
    wall_s = statistics.median(r["wall_s"] for r in reps)
    return {
        "wall_s": wall_s,
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "job_latency_s": statistics.median(jobs),
        "runs_per_s": statistics.median(len(r["runs"]) for r in reps)
        / wall_s,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "ok_ratio": (attempted - failed) / attempted,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rep: dict) -> dict:
    """The per-layer metrics of one traced repetition."""
    led, counts = rep["ledger"], rep["counts"]
    layers = led["layers"]
    m = {name: 0 for name in PER_LAYER}
    for span in _SPAN_LAYERS:
        m[f"{span}.calls"] = layers[span]["calls"]
        m[f"{span}.self_s"] = layers[span]["self_s"]
    for span, name in _CAMPAIGN_SPANS.items():
        m[name] = layers[span]["self_s"]
    m.update({k: v for k, v in counts.items() if k in m})
    m.update(led.get("campaign", {}))
    m["storm.attempts"] = layers["storm"]["calls"]
    m["storm.commit_ratio"] = _ratio(m["storm.batches"], m["storm.attempts"])
    m["batchfloat.ns_per_lane"] = _ratio(
        1e9 * m["batchfloat.self_s"], m["batchfloat.lanes"])
    m["memo.hit_ratio"] = _ratio(
        m["memo.op_hits"], m["memo.op_hits"] + m["memo.op_misses"])
    m["ledger.root_s"] = led["tree"]["root_s"]
    m["ledger.self_sum_s"] = led["tree"]["self_sum_s"]
    # trace.overhead_ratio compares repetitions: per_layer_median sets it.
    return {k: v for k, v in m.items()
            if k in PER_LAYER and k != "trace.overhead_ratio"}


def per_layer_median(traced: list[dict], untraced: list[dict]) -> dict:
    """Counts come from the first traced repetition (they are checked to
    repeat exactly); times are medians over the traced repetitions."""
    each = [per_layer(r) for r in traced]
    out = {}
    for k in PER_LAYER:
        if k == "trace.overhead_ratio":
            continue
        vals = [e[k] for e in each]
        count = PER_LAYER[k] == "count"
        out[k] = vals[0] if count else statistics.median(vals)
    out["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced))
    return out


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "loadavg_1m": os.getloadavg()[0],
    }


# ----------------------------------------------------------------- main


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: the program's sources (src/repro) are missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    children = Children(time.monotonic() + BUDGET_S)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return bench(args, children)
    finally:
        children.kill_all()


def bench(args: argparse.Namespace, children: Children) -> int:
    t_start = time.monotonic()
    deadline = children.deadline
    workload = WORKLOADS[args.workload]
    oracle, problems = compute_oracle(children, workload.name, args.seed)
    if oracle is None:
        print("perfbench: no oracle output: " + "; ".join(problems),
              file=sys.stderr)
        return 1

    base_req = {"op": "rep", "workload": workload.name, "seed": args.seed,
                "work_dir": os.path.join(OUT_DIR, "work")}
    untraced: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    longest = 0.0
    t_measure = time.monotonic()
    i = 0
    while True:
        want_traced = bool(args.trace) and i % 2 == 1
        enough = (len(untraced) >= MIN_REPS
                  and (not args.trace or len(traced) >= MIN_REPS))
        # Stop at the repetition boundary nearest the end of the window.
        if enough and (time.monotonic() - t_measure + longest / 2
                       >= args.seconds):
            break
        if time.monotonic() + 1.5 * longest > deadline:
            problems.append("time budget ran out before the minimum "
                            "repetitions")
            break
        req = dict(base_req, traced=want_traced)
        if want_traced:
            req["spans_path"] = os.path.join(
                OUT_DIR, f"{workload.name}.spans.npz")
        t0 = time.monotonic()
        rep, err = children.run(req)
        longest = max(longest, time.monotonic() - t0)
        a, f = check_rep(rep, oracle)
        attempted += a
        failed += f
        if err:
            problems.append(f"repetition {i} failed: {err}")
        else:
            problems.extend(rep.get("errors", ()))
            if rep.get("alive_children"):
                problems.append(f"repetition {i} left child processes")
            (traced if want_traced else untraced).append(rep)
        i += 1

    if not untraced or (args.trace and not traced):
        print("perfbench: no successful repetition: " + "; ".join(problems),
              file=sys.stderr)
        return 1
    _same([r["counts"] for r in untraced + traced], "counters", problems)
    if args.trace:
        _same([{k: v["calls"] for k, v in r["ledger"]["layers"].items()}
               for r in traced], "span counts", problems)
        for r in traced:
            tree = r["ledger"]["tree"]
            if (abs(tree["root_s"] - tree["self_sum_s"]) > 1e-6
                    or tree["outside_parent"]):
                problems.append(f"span tree does not add up: {tree}")
        values = per_layer_median(traced, untraced)
        units = PER_LAYER
    else:
        values = end_to_end(untraced, attempted, failed)
        units = END_TO_END

    correct = failed == 0 and not problems
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "why": workload.why, "loads": workload.loads,
        "bypasses": workload.bypasses, "scale": workload.scale,
        "host": host_facts(), "correct": correct, "attempted": attempted,
        "failed": failed, "failed_ratio": failed / attempted,
        "problems": problems, "metrics": values,
        "samples": {"untraced_reps": len(untraced),
                    "traced_reps": len(traced),
                    "jobs": sum(len(r["jobs_s"]) for r in untraced)},
        "reps": [{"traced": t, "run_s": [x.get("seconds") for x in r["runs"]],
                  **{k: r[k] for k in ("wall_s", "setup_s", "rss_mb",
                                       "jobs_s", "raw")}}
                 for t, reps in ((False, untraced), (True, traced))
                 for r in reps],
        "raw_medians": {
            "wall_s": statistics.median(r["raw"]["wall_s"] for r in untraced),
            "setup_s": statistics.median(
                r["raw"]["setup_s"] for r in untraced),
            "probe_s": statistics.median(
                p for r in untraced for p in r["raw"]["probes"]),
        },
        "counts": untraced[0]["counts"],
        "elapsed_s": time.monotonic() - t_start,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    h = record["host"]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"host: nproc={h['nproc']} python={h['python']} "
          f"numpy={h['numpy']} load={h['loadavg_1m']:.2f}", file=sys.stderr)
    print(f"  failed_ratio {failed}/{attempted} runs; repetitions "
          f"{len(untraced)} untraced, {len(traced)} traced; "
          f"{record['samples']['jobs']} jobs", file=sys.stderr)
    raw = record["raw_medians"]
    print(f"  unscaled medians: wall {raw['wall_s']:.4f} s, setup "
          f"{raw['setup_s']:.4f} s; probe {1e3 * raw['probe_s']:.3f} ms "
          f"(reference {1e3 * PROBE_REF_S:g} ms)", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]}", file=sys.stderr)
    for p in problems:
        print(f"  PROBLEM: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
