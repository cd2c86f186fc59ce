"""The in-memory study and its ``campaign.json`` render the same figures.

The study (:func:`repro.study.passes.get_study`) is the builtin
``figures`` campaign run in-process, and every ``paper``-group figure
renders only from its registry generator.  These tests hold the two
inputs that generator sees together: the merged result still in memory,
and the same result written as ``campaign.json`` and reloaded with
:meth:`CampaignData.load` -- byte-identical CSV for every figure -- and
close the loop through the ``figures generate``/``diff`` CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.analytics import (
    CampaignData,
    all_figures,
    build_context,
    diff_figures,
    generate_figures,
)
from repro.study.passes import get_study

SCALE = 0.3
SEED = 1234

PAPER_FIGURES = [d.name for d in all_figures(group="paper")]


@pytest.fixture(scope="module")
def study():
    return get_study(SCALE, SEED)


@pytest.fixture(scope="module")
def campaign_dir(study, tmp_path_factory):
    """The study's merged result written out as campaign artifacts."""
    assert not study.result.failed
    out = tmp_path_factory.mktemp("figcamp")
    (out / "campaign.json").write_text(
        json.dumps(study.result.to_dict()), encoding="utf-8")
    (out / "campaign_report.txt").write_text(
        study.result.report_text, encoding="utf-8")
    return out


@pytest.fixture(scope="module")
def ctx(campaign_dir):
    return build_context(campaign_dirs=[campaign_dir])


@pytest.mark.parametrize("name", PAPER_FIGURES)
def test_csv_matches_reloaded_campaign(study, ctx, name):
    assert isinstance(ctx.campaign, CampaignData)
    (fdef,) = all_figures(names=[name])
    in_memory = fdef.fn(study.context())
    loaded = fdef.fn(ctx)
    assert in_memory is not None, f"{name} skipped on the full study"
    assert loaded is not None, f"{name} skipped on the reloaded campaign"
    assert in_memory.frame.to_csv_bytes() == loaded.frame.to_csv_bytes()


def test_full_campaign_regenerates_enough_paper_figures(ctx, tmp_path):
    manifest = generate_figures(tmp_path / "figs", ctx, group="paper")
    generated = [
        name for name, entry in manifest["figures"].items()
        if entry["status"] == "generated"]
    assert len(generated) >= 6, generated
    # And the acceptance loop closes: a fresh generation diffs clean
    # against itself via the same machinery the CI gate runs.
    generate_figures(tmp_path / "figs2", ctx, group="paper")
    assert diff_figures(tmp_path / "figs", tmp_path / "figs2") == []


def test_cli_round_trip_generate_then_diff(campaign_dir, tmp_path, capsys):
    from repro.study.cli import main

    out = tmp_path / "cli-figs"
    rc = main(["figures", "generate", "--campaign", str(campaign_dir),
               "--out", str(out), "--group", "paper"])
    assert rc == 0
    assert (out / "index.html").exists()
    rc = main(["figures", "diff", "--baseline", str(out),
               "--new", str(out), "--group", "paper"])
    assert rc == 0
    # Corrupt one data cell: the gate must fail loudly.
    csv_path = out / "fig15_inexact_counts.csv"
    text = csv_path.read_text().splitlines()
    head, first = text[0], text[1].split(",")
    first[1] = str(int(first[1]) + 1)
    drifted = tmp_path / "drifted"
    drifted.mkdir()
    for p in out.iterdir():
        (drifted / p.name).write_bytes(p.read_bytes())
    (drifted / "fig15_inexact_counts.csv").write_text(
        "\n".join([head, ",".join(first)] + text[2:]) + "\n")
    capsys.readouterr()
    rc = main(["figures", "diff", "--baseline", str(out),
               "--new", str(drifted), "--group", "paper"])
    assert rc == 1
    assert "fig15_inexact_counts" in capsys.readouterr().err
