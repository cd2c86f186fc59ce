"""Figure 8: static source-code analysis of intercepted symbols."""

from benchmarks.conftest import paper_frame
from repro.analytics import AnalyticsContext
from repro.analytics.figures_paper import FIG8_SYMBOLS


def test_fig08_source_analysis(benchmark):
    # Static inventory: no campaign needed.
    frame = paper_frame(
        benchmark, "fig08_source_analysis", AnalyticsContext())
    rows: dict[str, list[str]] = {}
    for r in frame.rows:
        symbols = rows.setdefault(r["code"], [])
        if r["present"]:
            symbols.append(r["symbol"])
    rows = {code: sorted(symbols) for code, symbols in rows.items()}

    # The paper's exact per-code inventories.
    assert rows["Miniaero"] == []
    assert rows["LAMMPS"] == ["clone"]
    assert rows["LAGHOS"] == []
    assert set(rows["MOOSE"]) == {
        "clone", "pthread_create", "sigaction", "feenableexcept",
        "fedisableexcept",
    }
    assert rows["WRF"] == ["fesetenv"]
    assert rows["ENZO"] == ["clone"]
    assert set(rows["PARSEC 3.0"]) == {
        "fork", "clone", "pthread_create", "sigaction", "feenableexcept",
        "fesetround", "SIGTRAP", "SIGFPE",
    }
    assert rows["NAS 3.0"] == []
    assert set(rows["GROMACS"]) == {
        "clone", "pthread_create", "pthread_exit", "sigaction",
        "feenableexcept", "fedisableexcept", "SIGFPE",
    }
    # Column catalogue covers the paper's full header.
    assert "feholdexcept" in FIG8_SYMBOLS and "REG_EFL" in FIG8_SYMBOLS
    assert len(FIG8_SYMBOLS) == 26
