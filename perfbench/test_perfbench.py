"""Self-tests of the benchmark: its output check can fail, its span
ledger adds up, and its description matches ``BENCHMARK.json``.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402
from ledger import SpanRecorder, ledger  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_matches_run_py():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    units = {k: {m["name"]: m["unit"] for m in doc[k]}
             for k in ("end_to_end", "per_layer")}
    assert units["end_to_end"] == bench_run.END_TO_END
    assert units["per_layer"] == bench_run.PER_LAYER


@pytest.fixture(scope="module")
def checked():
    """One real repetition of ``individual_all`` and its oracle."""
    children = bench_run.Children(time.monotonic() + 150)
    try:
        oracle, problems = bench_run.compute_oracle(
            children, "individual_all", 5)
        rep, err = children.run(
            {"op": "rep", "workload": "individual_all", "seed": 5})
    finally:
        children.kill_all()
    assert not problems and err is None
    return oracle, rep


def test_clean_repetition_passes(checked):
    oracle, rep = checked
    attempted, failed = bench_run.check_rep(rep, oracle)
    assert (attempted, failed) == (len(oracle), 0)


def test_injected_digest_mismatch_is_counted(checked):
    oracle, rep = checked
    bad = copy.deepcopy(rep)
    run = next(r for r in bad["runs"] if r["digest"])
    path, size, _sha = run["digest"][0]
    run["digest"][0] = [path, size, "0" * 64]
    attempted, failed = bench_run.check_rep(bad, oracle)
    assert failed == 1
    assert failed / attempted > 0  # failed_ratio
    assert bench_run.end_to_end([bad], attempted, failed)["ok_ratio"] < 1.0


def test_cycle_mismatch_error_and_lost_runs_are_counted(checked):
    oracle, rep = checked
    bad = copy.deepcopy(rep)
    bad["runs"][0]["cycles"] += 1
    bad["runs"][1] = {"label": bad["runs"][1]["label"], "error": "boom"}
    del bad["runs"][-1]
    assert bench_run.check_rep(bad, oracle) == (len(oracle), 3)
    assert bench_run.check_rep(None, oracle) == (
        len(oracle), len(oracle))


def test_ledger_self_times_sum_to_root():
    rec = SpanRecorder()
    leaf = rec.wrap("leaf", lambda: time.sleep(0.002))

    def mid():
        leaf()
        time.sleep(0.001)

    mid = rec.wrap("mid", mid)

    def root():
        mid()
        leaf()

    rec.wrap("kernel.run", root)()
    led = ledger(rec)
    layers, tree = led["layers"], led["tree"]
    assert layers["leaf"]["calls"] == 2 and led["spans"] == 4
    assert tree["outside_parent"] == 0
    assert tree["self_sum_s"] == pytest.approx(tree["root_s"], abs=1e-9)
    assert tree["root_s"] == layers["kernel.run"]["total_s"]
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(
        tree["root_s"], abs=1e-9)
    assert 0.0009 < layers["mid"]["self_s"] < layers["mid"]["total_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study_masked",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
