"""The study harness: the paper's section 4 methodology, end to end.

Four passes over nine targets (seven applications plus the PARSEC and
NAS suites):

1. **source code analysis** -- static symbol inventory (Figure 8);
2. **aggregate-mode tracing** -- event sets at ~zero overhead (Figs 9, 10);
3. **individual-mode tracing with filtering** -- every faulting
   instruction except Inexact (Figures 11, 12, 13);
4. **individual-mode tracing with 5% Poisson sampling** -- everything,
   including Inexact (Figures 14, 15, 16, 17, 18, 19).
"""

from repro.study.targets import (
    RunResult,
    StudyTarget,
    make_targets,
    TARGET_NAMES,
)
from repro.study.passes import (
    Study,
    get_study,
    STUDY_SEED,
    FILTER_NO_INEXACT,
    POISSON_5PCT,
)
from repro.study import figures

__all__ = [
    "RunResult",
    "StudyTarget",
    "make_targets",
    "TARGET_NAMES",
    "Study",
    "get_study",
    "STUDY_SEED",
    "FILTER_NO_INEXACT",
    "POISSON_5PCT",
    "figures",
]
