"""The benchmark's workloads: which simulated runs make up one repetition.

Every workload is a fixed list of runs over the nine study targets.  A
run is a plain dict (``app``, ``mode``, ``variant``, ``scale``,
``seed``) so it crosses process boundaries as JSON.  ``mode`` is a study
pass name (:func:`repro.study.passes.pass_env`) or ``individual_all``:
FPSpy individual mode with no filter and no sampler, so every Inexact
traps.

The run set is a pure function of the workload and the ``--seed``
argument; the programs only ever see the generated runs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Layers the workload drives hard / leaves almost idle.
    loads: tuple[str, ...]
    bypasses: tuple[str, ...]
    #: "inprocess": the runs execute in the benchmark's own interpreter;
    #: "daemon": they are submitted to a CampaignDaemon over HTTP.
    kind: str
    passes: tuple[str, ...]
    scale: float
    #: Timed campaign jobs per repetition (daemon workload only).
    jobs: int = 0


#: Each trap-path layer has a workload that exercises it
#: (individual_all, study_individual) and one that bypasses it
#: (study_masked), and the masked-path layers the other way round.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="study_masked",
        why=("Study passes baseline+aggregate on all 9 targets, masked FP: "
             "loads kernel, blockexec, vectorfast, batchfloat; bypasses signal"
             " delivery, storm, trace writer. Bypass case for trap-path "
             "changes."),
        loads=("kernel", "machine.blockexec", "fp.vectorfast",
               "fp.batchfloat", "trace.reader"),
        bypasses=("machine.cpu delivery", "machine.storm", "trace.writer",
                  "campaign"),
        kind="inprocess", passes=("baseline", "aggregate"), scale=0.3,
    ),
    Workload(
        name="study_individual",
        why=("Passes filtered+sampled (paper individual mode): loads trap "
             "delivery, FPSpy handlers, sampler timers, storm admission, "
             "blockexec; storm rarely commits, vectorfast nearly idle."),
        loads=("kernel", "machine.cpu delivery", "machine.storm admission",
               "machine.blockexec", "isa.semantics memo", "trace.writer"),
        bypasses=("machine.storm commit", "fp.vectorfast", "campaign"),
        kind="inprocess", passes=("filtered", "sampled"), scale=0.3,
    ),
    Workload(
        name="individual_all",
        why=("Individual mode, no filter or sampler, every Inexact traps: the "
             "trap-storm regime (paper sec. 4). Loads delivery, storm commits,"
             " batchfloat, op memo, trace writer; vectorfast idle."),
        loads=("kernel", "machine.cpu delivery", "machine.storm",
               "fp.batchfloat", "isa.semantics memo", "trace.writer"),
        bypasses=("fp.vectorfast", "campaign"),
        kind="inprocess", passes=("individual_all",), scale=0.2,
    ),
    Workload(
        name="campaign_daemon",
        why=("Closed loop, one client: 27-run figbench jobs (aggregate, "
             "filtered, sampled passes) to a CampaignDaemon over HTTP, then "
             "result+figures. Only load on planner, pool, store, analytics."),
        loads=("campaign.planner", "campaign.pool", "campaign.runner",
               "campaign.report", "campaign.artifacts", "campaign.daemon",
               "analytics"),
        bypasses=(),
        kind="daemon", passes=("aggregate", "filtered", "sampled"),
        scale=0.3, jobs=3,
    ),
)}


def job_seed(seed: int, job: int) -> int:
    """App seed of campaign job ``job`` (0 = the warm-up job).

    Every job of a repetition gets its own seed, so the daemon's
    spec-hash dedup never applies.
    """
    return seed * 16 + job


def run_set(workload: Workload, seed: int) -> list[dict]:
    """The runs of one repetition, in execution order.

    For the daemon workload this is the timed jobs' runs, job by job, in
    :func:`repro.campaign.spec.figbench_campaign` order -- exactly the
    specs the client submits.  Imports the program, so only child
    interpreters call it.
    """
    from repro.campaign.spec import figbench_campaign
    from repro.study.passes import pass_variant
    from repro.study.targets import TARGET_NAMES

    if workload.kind == "daemon":
        return [
            {"app": r.app, "mode": r.mode, "variant": r.variant,
             "scale": r.scale, "seed": r.seed}
            for j in range(1, workload.jobs + 1)
            for r in figbench_campaign(
                scale=workload.scale, seed=job_seed(seed, j)).runs
        ]
    return [
        {"app": app, "mode": mode,
         "variant": ("default" if mode == "individual_all"
                     else pass_variant(mode, app)),
         "scale": workload.scale, "seed": seed}
        for mode in workload.passes
        for app in TARGET_NAMES
    ]


def run_label(run: dict) -> str:
    """The label ``RunSpec.label`` gives the same run."""
    return f"{run['app']}/{run['mode']}@{run['scale']:g}#{run['seed']}"
