"""Tests for the trace dump tool and the study CLI."""

import pytest

from repro.fp.formats import float_to_bits64 as b64
from repro.fpspy import fpspy_env
from repro.isa.instruction import CodeLayout, FPInstruction
from repro.kernel.kernel import Kernel
from repro.study.cli import build_parser, main as cli_main
from repro.trace.dump import dump_individual, dump_vfs, format_record


def traced_kernel():
    layout = CodeLayout()
    div = layout.site("divsd")

    def main():
        for _ in range(5):
            yield FPInstruction(div, ((b64(1.0), b64(0.0)),))

    k = Kernel()
    k.exec_process(main, env=fpspy_env("individual"), name="dumptest")
    k.run()
    return k


class TestDump:
    def test_dump_individual_renders_rows(self):
        k = traced_kernel()
        (path,) = [p for p in k.vfs.listdir() if p.endswith(".ind")]
        text = dump_individual(k.vfs.read(path))
        assert "divsd" in text
        assert "DivideByZero" in text
        assert text.count("\n") == 6  # header + 5 rows, newline-terminated

    def test_dump_limit_elides(self):
        k = traced_kernel()
        (path,) = [p for p in k.vfs.listdir() if p.endswith(".ind")]
        text = dump_individual(k.vfs.read(path), limit=2)
        assert "3 more records" in text

    def test_dump_vfs_includes_meta(self):
        k = traced_kernel()
        text = dump_vfs(k.vfs)
        assert "fpspy-meta" in text
        assert "dumptest" in text

    def test_format_record_handles_undecodable_insn(self):
        from repro.trace.records import IndividualRecord

        rec = IndividualRecord(
            seq=0, time=0.0, rip=0, rsp=0, mxcsr=0, sicode=0, codes=1,
            insn=b"\xde\xad\xbe\xef\x00",
        )
        assert "deadbeef" in format_record(rec)


class TestCLI:
    def test_parser_subcommands(self):
        p = build_parser()
        args = p.parse_args(["figures", "--only", "fig08"])
        assert args.command == "figures" and args.only == ["fig08"]
        args = p.parse_args(["spy", "miniaero", "--mode", "individual"])
        assert args.app == "miniaero"

    def test_figures_fig08_only(self, capsys):
        assert cli_main(["figures", "--only", "fig08"]) == 0
        out = capsys.readouterr().out
        assert "Source code analysis" in out
        assert "GROMACS" in out

    def test_figures_written_to_directory(self, tmp_path, capsys):
        assert cli_main(
            ["figures", "--only", "fig08", "--out", str(tmp_path)]
        ) == 0
        assert (tmp_path / "fig08.txt").exists()

    def test_figures_unknown_id_exits_2(self, capsys):
        assert cli_main(["figures", "--only", "fig08", "fig6"]) == 2
        assert "fig6" in capsys.readouterr().err

    def test_spy_unknown_app(self, capsys):
        assert cli_main(["spy", "nonexistent"]) == 2

    def test_spy_runs_app(self, capsys):
        assert cli_main(["spy", "moose", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "moose" in out and "simulated wall time" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli_main([])


class TestTelemetryCLI:
    def test_run_dumps_table_and_snapshot(self, tmp_path, capsys):
        out_json = tmp_path / "snap.json"
        assert cli_main(
            ["telemetry", "run", "moose", "--scale", "0.2",
             "--out", str(out_json)]
        ) == 0
        out = capsys.readouterr().out
        assert "fpspy-telemetry enabled" in out
        assert "kernel.sched.slices" in out
        assert out_json.exists()

    def test_run_unknown_app(self, capsys):
        assert cli_main(["telemetry", "run", "nonexistent"]) == 2

    def test_run_profile_prints_table(self, capsys):
        assert cli_main(
            ["telemetry", "run", "moose", "--scale", "0.2", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "component" in out and "guest" in out

    def test_diff_identical_snapshots_exits_zero(self, tmp_path, capsys):
        snap = tmp_path / "a.json"
        assert cli_main(
            ["telemetry", "run", "moose", "--scale", "0.2",
             "--out", str(snap)]
        ) == 0
        assert cli_main(
            ["telemetry", "diff", str(snap), str(snap)]
        ) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_regression_exits_nonzero(self, tmp_path, capsys):
        import json

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"cycles": 1, "scopes": {
            "cpu": {"site_cache.hits": 90, "site_cache.misses": 10}}}))
        b.write_text(json.dumps({"cycles": 1, "scopes": {
            "cpu": {"site_cache.hits": 50, "site_cache.misses": 50}}}))
        assert cli_main(["telemetry", "diff", str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regression" in captured.err
        # The same drop passes under a looser threshold.
        assert cli_main(
            ["telemetry", "diff", str(a), str(b), "--threshold", "0.5"]
        ) == 0
