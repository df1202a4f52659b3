"""Tests for report generation."""

import re

import pytest

from repro.experiments import run_experiments
from repro.harness.report import generate_report, write_report


class TestGenerateReport:
    def test_restricted_ids(self, ctx):
        text = generate_report(ctx, run_experiments(ctx, ["T1", "T3"]))
        assert "## T1" in text
        assert "## T3" in text
        assert "## F1" not in text

    def test_header_mentions_scale_and_benchmarks(self, ctx):
        text = generate_report(ctx, run_experiments(ctx, ["T1"]))
        assert text.startswith("# repro experiment report")
        assert f"`{ctx.scale.name}`" in text
        assert "ammp" in text

    def test_unknown_id_rejected(self):
        # Checked before any experiment runs: the context is never read.
        with pytest.raises(KeyError, match=r"\['F99', 'X99'\]"):
            run_experiments(object(), ["T1", "F99", "X99"])


class TestWriteReport:
    def test_writes_file(self, ctx, tmp_path):
        runs = run_experiments(ctx, ["T1"])
        path = write_report(ctx, tmp_path / "sub" / "report.md", runs)
        assert path.exists()
        assert "## T1" in path.read_text()


class TestCliReport:
    def test_report_command(self, ctx, tmp_path, capsys, monkeypatch):
        import repro.experiments as experiments
        from repro.cli import main

        monkeypatch.setattr(experiments, "_CONTEXTS", {ctx.scale.name: ctx})
        monkeypatch.setattr("repro.cli.get_scale", lambda name=None: ctx.scale)
        output = tmp_path / "r.md"
        assert main(["report", "--output", str(output), "--only", "T1"]) == 0
        assert output.exists()
        assert "wrote" in capsys.readouterr().out

    def test_report_command_bad_id(self, ctx, tmp_path, capsys, monkeypatch):
        import repro.experiments as experiments
        from repro.cli import main

        monkeypatch.setattr(experiments, "_CONTEXTS", {ctx.scale.name: ctx})
        monkeypatch.setattr("repro.cli.get_scale", lambda name=None: ctx.scale)
        assert main(
            ["report", "--output", str(tmp_path / "r.md"), "--only", "NOPE"]
        ) == 2
        assert "['NOPE']" in capsys.readouterr().err
        assert not (tmp_path / "r.md").exists()

    def test_report_blocks_match_run_output(
        self, ctx, tmp_path, capsys, monkeypatch
    ):
        """`run` and `report` share one experiment loop: each experiment's
        text in the report is exactly what `run` printed for it."""
        import repro.experiments as experiments
        from repro.cli import main

        monkeypatch.setattr(experiments, "_CONTEXTS", {ctx.scale.name: ctx})
        monkeypatch.setattr("repro.cli.get_scale", lambda name=None: ctx.scale)
        assert main(["run", "T1", "T3"]) == 0
        printed = capsys.readouterr().out
        output = tmp_path / "r.md"
        assert main(["report", "--output", str(output), "--only", "T1", "T3"]) == 0
        report = output.read_text()

        report_blocks = re.findall(
            r"^## (\w+) — .*?\n```\n(.*?)\n```$", report, flags=re.M | re.S
        )
        assert [i for i, _ in report_blocks] == ["T1", "T3"]
        assert re.findall(r"^=== (\w+): ", printed, flags=re.M) == ["T1", "T3"]
        for experiment_id, text in report_blocks:
            # header, the text, one blank line, then the next header, the
            # campaign summary or the end of the output
            block = re.compile(
                rf"^=== {experiment_id}: .* ===\n{re.escape(text)}\n\n"
                r"(?==== |campaign execution|\Z)",
                flags=re.M,
            )
            assert block.search(printed), experiment_id
