"""Tests for the study report builder (runs the scale-1.0 study)."""

from repro.study.report import SECTIONS, build_report, section


def test_report_contains_every_figure_section():
    # Reuses the session-cached study if tests ran study tests already;
    # otherwise runs it once here.
    text = build_report(1.0, 1234)
    assert len(SECTIONS) == 14
    for ident in (
        "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
        "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
    ):
        assert f"## {ident}:" in text, ident
    assert text.startswith("# FPSpy reproduction")
    # Figure 18's section renders the registry frame the text shows.
    frame = section("fig18", 1.0, 1234).data["frame"]
    assert sum(r["gromacs_only"] for r in frame.rows) == 25
