"""Whole-program oracle check of the batch FP entry point.

GROMACS (binary32, FMA-heavy), Miniaero and LAGHOS (binary64) run at
small scale in aggregate mode -- masked blocks batched by the block
engine -- and in unfiltered individual mode -- every Inexact traps, so
the storm driver batches the trap lifecycles.  With every fast path on,
the trace files and the cycle clock must equal the all-off precise
engine's.  LAGHOS is the target that leaves the most lanes uncertified,
so its runs must exercise the per-lane scalar fallback.
"""

import hashlib

import pytest

from repro.fp.batchfloat import batch_stats
from repro.fpspy import fpspy_env
from repro.kernel.kernel import Kernel, KernelConfig
from repro.study.passes import pass_env
from repro.study.targets import make_targets
from repro.telemetry.procfs import PROC_ROOT

_ORACLE = KernelConfig(blockexec=False, trapfast=False, stormbatch=False)
_ENVS = {
    "aggregate": lambda: pass_env("aggregate"),
    "individual": lambda: fpspy_env("individual"),
}
_TARGETS = make_targets()


def _run(app: str, mode: str, config: KernelConfig):
    kernel = Kernel(config)
    _TARGETS[app].launch(kernel, _ENVS[mode](), 0.5, "default", 1)
    kernel.run()
    digests = {
        path: hashlib.sha256(kernel.vfs.read(path)).hexdigest()
        for path in kernel.vfs.listdir("")
        if not path.startswith(PROC_ROOT)
    }
    return kernel.cycles, digests


@pytest.mark.parametrize("mode", sorted(_ENVS))
@pytest.mark.parametrize("app", ["GROMACS", "LAGHOS", "Miniaero"])
def test_fast_paths_match_all_off_oracle(app, mode):
    before = batch_stats()
    cycles, digests = _run(app, mode, KernelConfig())
    after = batch_stats()
    assert after["lanes"] > before["lanes"], "no batch ever ran"
    if app == "LAGHOS":
        assert after["fallback_lanes"] > before["fallback_lanes"], (
            "no lane reached the scalar fallback")
    assert digests, "the run wrote no trace files"
    assert (cycles, digests) == _run(app, mode, _ORACLE)
