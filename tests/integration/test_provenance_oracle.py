"""Whole-program oracle check of provenance under the batched paths.

Coils are host-side observations, but they carry guest cycle stamps
(origin ``cycle``, ``last_cycle``, sink cycles), so a batched commit
must observe every exceptional group at the cycle the precise sub-step
observes it at.  Miniaero and LAGHOS produce NaN/Inf/denorm chains in
both the aggregate pass (every block committed in chunks while
quiescent) and the filtered pass (non-faulting runs committed in chunks
while the capture set is unmasked); with every fast path on, their
coils must equal the all-off precise engine's.
"""

import pytest

from repro.kernel.kernel import Kernel, KernelConfig
from repro.study.passes import pass_env, pass_variant
from repro.study.targets import make_targets

_TARGETS = make_targets()


def _coils(app: str, pass_name: str, **fast_paths):
    kernel = Kernel(KernelConfig(tracing=True, trace_tail=False, **fast_paths))
    _TARGETS[app].launch(
        kernel, pass_env(pass_name), 0.3, pass_variant(pass_name, app), 1)
    kernel.run()
    return kernel.provenance.coils()


@pytest.mark.parametrize("pass_name", ["aggregate", "filtered"])
@pytest.mark.parametrize("app", ["LAGHOS", "Miniaero"])
def test_coils_match_all_off_oracle(app, pass_name):
    coils = _coils(app, pass_name)
    assert coils, "the run produced no coil"
    assert coils == _coils(
        app, pass_name, blockexec=False, trapfast=False, stormbatch=False)
