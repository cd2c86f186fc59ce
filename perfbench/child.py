"""One repetition of a workload, in a fresh interpreter.

``python3 perfbench/child.py '<request json>'`` prints one JSON result
line.  ``run.py`` starts a new interpreter for every repetition, so
each one begins from the same process-global cache state (softfloat op
memo, per-form executors, batch/reject counters), and its peak RSS is
its own.

Request ops:

* ``rep``    -- run the workload once with the default engine and time
  it; with ``traced`` the layer entry points are wrapped first
  (:mod:`ledger`) and the per-layer ledger comes back too.
* ``oracle`` -- run a share of the workload's runs with every fast path
  off (``KernelConfig(blockexec=False, trapfast=False,
  stormbatch=False)``) and return their outputs for comparison.

Host speed.  On small shared hosts the same repetition takes anywhere
from 0.7x to 1.4x its usual time, in phases lasting minutes, so raw
seconds from runs taken at different moments do not compare.  Between
simulated runs (every few status polls while a daemon job runs) the
repetition therefore times :func:`probe`, a fixed slice of interpreter
and small NumPy work that shares nothing with the program, and reports
its times scaled to a host on which one probe takes
:data:`PROBE_REF_S`: ``raw seconds * PROBE_REF_S / mean probe
seconds`` over the repetition's probes (a daemon job's over its own).
The raw seconds and probe times come back too.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)

from workloads import WORKLOADS, job_seed, run_label, run_set  # noqa: E402

#: Seconds one :func:`probe` takes on the reference host (the median on
#: the 2-vCPU Xeon VM the benchmark was tuned on); it only sets the unit.
PROBE_REF_S = 0.005

#: Job states the daemon never leaves.
_LIVE_STATES = ("queued", "running")
#: Bound on one campaign job (submit to terminal state), seconds.
JOB_TIMEOUT = 90.0
#: Status poll period of the closed-loop client, seconds.
POLL_SECONDS = 0.02
#: Status polls between two host-speed probes during a daemon job
#: (one ~5 ms probe per ~0.2 s: a few percent of one CPU).
PROBE_EVERY = 10
#: Bound on one HTTP request, seconds.
HTTP_TIMEOUT = 60.0


def _env_for(mode: str) -> dict:
    from repro.fpspy import fpspy_env
    from repro.study.passes import pass_env

    if mode == "individual_all":
        return fpspy_env("individual")
    return pass_env(mode)


def _global_counts() -> dict:
    """Process-global counters; callers only ever use their deltas."""
    from repro.fp import batchfloat, vectorfast
    from repro.isa.semantics import memo_stats

    b = batchfloat.batch_stats()
    r = vectorfast.reject_stats()
    m = memo_stats()
    return {
        "batchfloat.batches": b["batches"],
        "batchfloat.lanes": b["lanes"],
        "batchfloat.fallback_lanes": b["fallback_lanes"],
        "vectorfast.rejects.operand_window": r["operand_window"],
        "vectorfast.rejects.result_range": r["result_range"],
        "memo.op_hits": m["op_hits"],
        "memo.op_misses": m["op_misses"],
    }


def execute(run: dict, config, targets) -> dict:
    """Run one simulated program the way ``execute_run`` does: fresh
    kernel, launch, run, then read the traces back and distil them.

    Returns its outputs (cycles, trace digests) and its per-run counter
    deltas; an exception becomes an ``error`` entry.
    """
    from repro.analysis import extract
    from repro.kernel.kernel import Kernel
    from repro.telemetry.procfs import PROC_ROOT
    from repro.trace import reader

    label = run_label(run)
    before = _global_counts()
    t0 = time.perf_counter()
    try:
        kernel = Kernel(config)
        targets[run["app"]].launch(
            kernel, _env_for(run["mode"]), run["scale"], run["variant"],
            run["seed"])
        ops = kernel.run()
        traces = reader.TraceSet.from_vfs(kernel.vfs)
        extract.per_event_counts(traces.all_records())
        extract.code_rankpop_inputs(traces.records_by_app())
        digest = []
        for path in kernel.vfs.listdir(""):
            if path.startswith(PROC_ROOT):
                continue
            data = kernel.vfs.read(path)
            digest.append([path, len(data), hashlib.sha256(data).hexdigest()])
    except Exception as exc:  # a failed run is counted, not fatal
        return {"label": label, "error": f"{type(exc).__name__}: {exc}"}
    seconds = time.perf_counter() - t0
    after = _global_counts()
    counts = {k: after[k] - before[k] for k in after}
    storm = kernel.cpu.storm_stats
    counts.update({
        "kernel.ops": ops,
        "kernel.cycles": kernel.cycles,
        "storm.batches": storm["batches"],
        "storm.groups": storm["groups"],
        "storm.records": storm["records"],
        "trace.bytes": sum(d[1] for d in digest),
        "trace.records": traces.count() + len(traces.aggregate),
    })
    for reason, n in storm["bailouts"].items():
        counts[f"storm.bailouts.{reason}"] = n
    return {"label": label, "cycles": kernel.cycles,
            "digest": sorted(digest), "seconds": seconds, "counts": counts}


def probe() -> float:
    """Seconds a fixed, program-independent slice of work takes now.

    The mix -- dict updates, integer arithmetic and calls on tiny NumPy
    arrays -- is the kind of work the simulator's own hot paths do, so
    the probe slows down when the host slows them down.
    """
    import numpy as np

    # CPU time of this thread: a probe taken while other processes load
    # both CPUs (the daemon's pool) measures speed, not waiting.
    t0 = time.thread_time()
    table: dict[int, int] = {}
    acc = 0
    lanes = np.arange(16, dtype=np.int64)
    for i in range(8000):
        k = i & 1023
        table[k] = table.get(k, 0) + i
        acc += (i * 3) ^ k
        if i & 15 == 0:
            lanes = (lanes * 3 + 1) & 0xFFFF
            acc += int(lanes.sum())
    return time.thread_time() - t0


def speed(probes: list[float]) -> float:
    """Factor taking host seconds to reference-host seconds."""
    return PROBE_REF_S / statistics.fmean(probes)


def _peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Largest reaped child (a pool worker), for the daemon workload.
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _sum_counts(results: list[dict]) -> dict:
    total: dict[str, int] = {}
    for r in results:
        for k, v in r.get("counts", {}).items():
            total[k] = total.get(k, 0) + v
    return total


# ------------------------------------------------------------ in-process


def inprocess_rep(req: dict) -> dict:
    from repro.kernel.kernel import Kernel, KernelConfig
    from repro.study.targets import make_targets

    workload = WORKLOADS[req["workload"]]
    targets = make_targets()
    Kernel(KernelConfig())
    setup_raw = time.monotonic() - req["spawned"]
    rec = _recorder(req)
    runs = run_set(workload, req["seed"])
    results = []
    probes = [probe()]
    for i, run in enumerate(runs):
        if rec is not None:
            rec.run_id = i
        results.append(execute(run, KernelConfig(), targets))
        probes.append(probe())
    # The run set's time is the sum of its runs' times: the probes
    # between them are not part of it.
    wall_raw = sum(r.get("seconds", 0.0) for r in results)
    k = speed(probes)
    out = {
        "setup_s": k * setup_raw, "wall_s": k * wall_raw,
        "jobs_s": [k * wall_raw], "rss_mb": _peak_rss_mb(), "runs": results,
        "counts": _sum_counts(results),
        "raw": {"setup_s": setup_raw, "wall_s": wall_raw, "probes": probes},
    }
    if rec is not None:
        out["ledger"] = _finish_trace(rec, req)
    return out


def oracle(req: dict) -> dict:
    """Outputs of this share of the run set with every fast path off."""
    from repro.kernel.kernel import KernelConfig
    from repro.study.targets import make_targets

    targets = make_targets()
    config = KernelConfig(blockexec=False, trapfast=False, stormbatch=False)
    runs = run_set(WORKLOADS[req["workload"]], req["seed"])
    share = runs[req["part"]::req["parts"]]
    return {"runs": [
        {k: r[k] for k in ("label", "cycles", "digest", "error") if k in r}
        for r in (execute(run, config, targets) for run in share)]}


# ---------------------------------------------------------------- daemon


class _Client:
    """Closed-loop HTTP client: one job in flight at a time."""

    def __init__(self, base: str) -> None:
        self.base = base

    def call(self, path: str, body: dict | None = None):
        import urllib.request

        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(
            self.base + path, data=data,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req, timeout=HTTP_TIMEOUT) as resp:
            raw = resp.read()
        return raw if path.startswith("/artifact") else json.loads(raw)

    def job(self, campaign, probing: bool = False) -> dict:
        """Submit, wait for a terminal state, fetch result and figures.

        With ``probing``, a host-speed :func:`probe` is taken every
        :data:`PROBE_EVERY` status polls while the job runs.
        """
        t0 = time.perf_counter()
        t0_ns = time.perf_counter_ns()
        ticket = self.call("/submit", {
            "campaign": campaign.to_json(), "submitter": "perfbench"})
        job_id = ticket["job"]
        deadline = t0 + JOB_TIMEOUT
        polls = 0
        probes: list[float] = []
        while True:
            state = self.call(f"/status?job={job_id}")["state"]
            if state not in _LIVE_STATES:
                break
            if time.perf_counter() > deadline:
                raise TimeoutError(f"job {job_id} still {state}")
            polls += 1
            if probing and polls % PROBE_EVERY == 0:
                probes.append(probe())
            time.sleep(POLL_SECONDS)
        out = {"job": job_id, "state": state, "submit_ns": t0_ns,
               "dedup": ticket["dedup"], "probes": probes}
        if state == "done":
            out["result"] = self.call(f"/result?job={job_id}")
            self.call(f"/figures?job={job_id}")
        out["latency_s"] = time.perf_counter() - t0
        return out


def _job_runs(client: _Client, job: dict) -> tuple[list[dict], dict]:
    """Per-run outputs of one job, from its stored ``campaign.json``."""
    from repro.campaign.runner import RESULT_FILE

    if job["state"] != "done":
        return [], {}
    digest = job["result"]["artifacts"][RESULT_FILE]
    doc = json.loads(client.call(f"/artifact?digest={digest}"))
    runs = []
    for r in doc["deterministic"]["runs"]:
        entry = {"label": r["label"], "cycles": r["cycles"],
                 "digest": r["trace_digest"]}
        if r["status"] != "ok":
            entry["error"] = r["error"] or r["status"]
        runs.append(entry)
    return runs, doc["host"]


def daemon_rep(req: dict) -> dict:
    import multiprocessing
    import shutil
    import tempfile
    import threading

    from ledger import ledger
    from repro.campaign.daemon import CampaignDaemon, serve_http
    from repro.campaign.spec import figbench_campaign

    workload = WORKLOADS[req["workload"]]
    seed = req["seed"]
    rec = _recorder(req)
    os.makedirs(req["work_dir"], exist_ok=True)
    data_dir = tempfile.mkdtemp(prefix="daemon-", dir=req["work_dir"])
    width = min(2, os.cpu_count() or 1)
    daemon = CampaignDaemon(data_dir, workers=width)
    server = serve_http(daemon)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    client = _Client(f"http://127.0.0.1:{server.server_address[1]}")
    jobs: list[dict] = []
    errors: list[str] = []
    try:
        # Set-up: daemon start, pool spawn and one warm-up job.
        warm = client.job(figbench_campaign(
            scale=workload.scale, seed=job_seed(seed, 0)))
        if warm["state"] != "done":
            errors.append(f"warm-up job ended {warm['state']}")
        setup_raw = time.monotonic() - req["spawned"]
        store0 = daemon.stats()["store"]["bytes"]
        for j in range(1, workload.jobs + 1):
            if rec is not None:
                rec.run_id = j
            jobs.append(client.job(figbench_campaign(
                scale=workload.scale, seed=job_seed(seed, j)), probing=True))
        store_bytes = daemon.stats()["store"]["bytes"] - store0
        runs, hosts = [], []
        for job in jobs:
            job_runs, host = _job_runs(client, job)
            runs.extend(job_runs)
            hosts.append(host)
            if job["state"] != "done":
                errors.append(f"{job['job']} ended {job['state']}")
            if job["dedup"]:
                errors.append(f"{job['job']} was served from dedup")
    finally:
        server.shutdown()
        server.server_close()
        daemon.shutdown(timeout=60.0)
        for proc in multiprocessing.active_children():
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        shutil.rmtree(data_dir, ignore_errors=True)
    # Each job is scaled by the probes taken while it ran.
    probes = [p for j in jobs for p in j["probes"]] or [probe()]
    jobs_raw = [j["latency_s"] for j in jobs]
    jobs_s = [s * speed(j["probes"] or probes) for s, j in zip(jobs_raw, jobs)]
    out = {
        "setup_s": speed(probes) * setup_raw, "wall_s": sum(jobs_s),
        "jobs_s": jobs_s,
        "rss_mb": _peak_rss_mb(), "runs": runs, "errors": errors,
        "counts": {"kernel.cycles": sum(r["cycles"] for r in runs)},
        "alive_children": len(multiprocessing.active_children()),
        "raw": {"setup_s": setup_raw, "wall_s": sum(jobs_raw),
                "probes": probes},
    }
    if rec is not None:
        # The pool starts inside the warm-up job (run id 0); every
        # other layer is billed over the timed jobs only.
        pool_start = ledger(rec)["layers"]["campaign.pool_start"]
        led = _finish_trace(rec, req, min_run=1)
        run_host = sum(sum(h.get("run_host_seconds", ())) for h in hosts)
        capacity = sum(h.get("host_wall_seconds", 0.0) * h.get("workers", 1)
                       for h in hosts)
        starts = _first_span_start(rec, "campaign.job_run")
        led["campaign"] = {
            "campaign.pool_start_s": pool_start["total_s"],
            "campaign.plan_mode": sum(
                j.get("result", {}).get("mode") == "pool" for j in jobs)
            / len(jobs),
            "campaign.run_host_s": run_host,
            "campaign.worker_busy_ratio": run_host / capacity
            if capacity else 0.0,
            "campaign.job_queue_s": sum(
                (starts[j] - job["submit_ns"]) / 1e9
                for j, job in enumerate(jobs, 1) if j in starts),
            "campaign.store_bytes": store_bytes,
        }
        out["ledger"] = led
    return out


# ----------------------------------------------------------------- trace


def _recorder(req: dict):
    if not req.get("traced"):
        return None
    from ledger import SpanRecorder

    rec = SpanRecorder()
    rec.install()
    return rec


def _first_span_start(rec, name: str) -> dict[int, int]:
    """Start (ns) of the first ``name`` span of every run id."""
    cols = rec.columns()
    if name not in rec.names:
        return {}
    nid = rec.names.index(name)
    out: dict[int, int] = {}
    for n, start, run in zip(cols["name"], cols["start"], cols["run"]):
        if n == nid:
            out[int(run)] = min(out.get(int(run), start), int(start))
    return out


def _finish_trace(rec, req: dict, min_run: int = 0) -> dict:
    from ledger import ledger

    led = ledger(rec, min_run=min_run)
    if req.get("spans_path"):
        os.makedirs(os.path.dirname(req["spans_path"]), exist_ok=True)
        rec.save(req["spans_path"])
    return led


def main() -> int:
    req = json.loads(sys.argv[1])
    if req["op"] == "oracle":
        result = oracle(req)
    elif WORKLOADS[req["workload"]].kind == "daemon":
        result = daemon_rep(req)
    else:
        result = inprocess_rep(req)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
