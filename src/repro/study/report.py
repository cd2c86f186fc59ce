"""One report path: every evaluation figure, as text sections.

``python -m repro.study report`` renders every section into a markdown
document mirroring the paper's evaluation; ``python -m repro.study
figures [--only figNN ...]`` prints the same sections.  Figures 7-9,
11, 14, 15 and 17-19 render from their analytics registry frames over
the in-memory study (:meth:`~repro.analytics.frames.Figure.to_text`;
heatmap frames print as T/f grids).  Figures 6, 10, 12, 13 and 16 need
dedicated runs or raw timelines, so they stay live-only
(:mod:`repro.study.figures`).
"""

from __future__ import annotations

from repro.analytics.generate import AnalyticsContext
from repro.analytics.registry import all_figures
from repro.study import figures as F
from repro.study.passes import STUDY_SEED, get_study

#: Every section, in the paper's figure order.
SECTIONS = tuple(f"fig{n:02d}" for n in range(6, 20))

#: The live-only sections and how each is produced.
_LIVE = {
    "fig06": F.fig06_overhead,
    "fig10": F.fig10_parsec,
    "fig12": lambda scale, seed: F.fig12_enzo_nans(get_study(scale, seed)),
    "fig13": lambda scale, seed: F.fig13_laghos_bursts(
        get_study(scale, seed)),
    "fig16": lambda scale, seed: F.fig16_cumulative(get_study(scale, seed)),
}


def section(ident: str, scale: float = 1.0,
            seed: int = 1234) -> F.FigureResult:
    """One figure's section; ``data["frame"]`` holds a registry frame."""
    if ident in _LIVE:
        return _LIVE[ident](scale, seed)
    (fdef,) = [d for d in all_figures(group="paper")
               if d.name.startswith(ident + "_")]
    # A figure that needs no campaign (Figure 8's static inventory)
    # renders without running the study.
    fig = fdef.fn(AnalyticsContext()) or fdef.fn(
        get_study(scale, seed).context())
    return F.FigureResult(
        ident=ident, title=fdef.title,
        text=fig.to_text(),
        data={"frame": fig.frame})


def build_report(scale: float = 1.0, seed: int = 1234) -> str:
    """Render the complete study as markdown."""
    out = [
        "# FPSpy reproduction — study report",
        "",
        f"Configuration: scale={scale}, app seed={seed}, "
        f"sampler seed={STUDY_SEED}.",
        "",
    ]
    for ident in SECTIONS:
        result = section(ident, scale, seed)
        out.append(f"## {result.ident}: {result.title}")
        out.append("")
        out.append("```")
        out.append(result.text.rstrip("\n"))
        out.append("```")
        out.append("")
    return "\n".join(out) + "\n"
