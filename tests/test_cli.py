"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
import repro.experiments as experiments


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "F9b" in out and "X3" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "375,000" in out
        assert "262,500" in out

    def test_unknown_experiment_id(self, capsys):
        assert main(["run", "F99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_scale_choices_validated(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "T1", "--scale", "galactic"])


class TestRun:
    def test_run_t1_with_shared_context(self, ctx, capsys, monkeypatch):
        # reuse the session context instead of building a 'ci' one
        monkeypatch.setattr(experiments, "_CONTEXTS", {ctx.scale.name: ctx})
        monkeypatch.setenv("REPRO_SCALE", "ci")
        monkeypatch.setattr(
            "repro.cli.get_scale", lambda name=None: ctx.scale
        )
        assert main(["run", "T1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "375,000" in out

    def test_run_multiple_ids(self, ctx, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "_CONTEXTS", {ctx.scale.name: ctx})
        monkeypatch.setattr(
            "repro.cli.get_scale", lambda name=None: ctx.scale
        )
        assert main(["run", "T1", "T3"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "T3" in out


def test_removed_executor_options_rejected(capsys):
    # One executor and one recovery path: no backend switch, no
    # worker-management command, no retry budget and no chunk timeout.
    parser = build_parser()
    for argv in (
        ["run", "F1", "--backend", "pool"],
        ["sweep", "--run-dir", "coord"],
        ["workers", "status"],
        ["run", "F1", "--retries", "2"],
        ["run", "F1", "--chunk-timeout", "120"],
        ["sweep", "--retries", "2"],
        ["sweep", "--chunk-timeout", "120"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv)
        assert excinfo.value.code == 2
    capsys.readouterr()


def test_removed_analyzer_options_rejected(capsys):
    # The analyzer has one in-process pass and always uses its summary
    # cache: no worker count and no cache switch.
    parser = build_parser()
    for argv in (
        ["analyze", "src", "--jobs", "2"],
        ["analyze", "src", "--no-cache"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv)
        assert excinfo.value.code == 2
    capsys.readouterr()


class TestObservabilityFlags:
    def test_run_and_sweep_parsers_accept_trace_and_metrics(self):
        args = build_parser().parse_args(
            ["run", "T1", "--trace", "out.jsonl", "--metrics"]
        )
        assert args.trace == "out.jsonl" and args.metrics is True
        args = build_parser().parse_args(
            ["sweep", "--space", "sampling", "--trace", "t.jsonl"]
        )
        assert args.space == "sampling" and args.trace == "t.jsonl"
        assert args.metrics is False

    def test_verbosity_flags_set_log_level(self):
        import logging

        from repro.cli import _configure_logging

        logger = logging.getLogger("repro")
        _configure_logging(verbose=0, quiet=False)
        assert logger.level == logging.WARNING
        _configure_logging(verbose=1, quiet=False)
        assert logger.level == logging.INFO
        _configure_logging(verbose=2, quiet=False)
        assert logger.level == logging.DEBUG
        _configure_logging(verbose=0, quiet=True)
        assert logger.level == logging.ERROR
        # idempotent: repeated configuration adds no duplicate handlers
        _configure_logging(verbose=0, quiet=False)
        marked = [
            h for h in logger.handlers
            if getattr(h, "_repro_cli", False)
        ]
        assert len(marked) == 1

    def test_run_with_trace_writes_valid_file(
        self, ctx, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(experiments, "_CONTEXTS", {ctx.scale.name: ctx})
        monkeypatch.setattr(
            "repro.cli.get_scale", lambda name=None: ctx.scale
        )
        trace_path = tmp_path / "run.jsonl"
        assert main(
            ["run", "T1", "--trace", str(trace_path), "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert "--- metrics ---" in out
        assert trace_path.exists()
        assert main(["trace", "validate", str(trace_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_trace_summary_and_tree(self, tmp_path, capsys):
        from repro.obs import configure_tracing, disable_tracing, get_tracer

        path = tmp_path / "t.jsonl"
        configure_tracing(path)
        with get_tracer().span("outer"):
            with get_tracer().span("inner"):
                pass
        disable_tracing()
        assert main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "outer" in out and "inner" in out and "2 spans" in out
        assert main(["trace", "tree", str(path)]) == 0
        tree = capsys.readouterr().out
        assert "outer" in tree and "└─" in tree

    def test_trace_commands_fail_cleanly_on_missing_file(self, capsys):
        assert main(["trace", "summary", "/no/such/trace.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1

    def test_trace_validate_rejects_corruption(self, tmp_path, capsys):
        from repro.obs import configure_tracing, disable_tracing, get_tracer

        path = tmp_path / "t.jsonl"
        configure_tracing(path)
        with get_tracer().span("ok"):
            pass
        disable_tracing()
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace('"ok"', '"KO"')
        path.write_text("\n".join(lines) + "\n")
        assert main(["trace", "validate", str(path)]) == 2
        assert "checksum" in capsys.readouterr().err


    def test_trace_validate_rejects_duplicate_ids(self, tmp_path, capsys):
        """Two tracers appending to one file each number their spans from
        ``s1``: the file checks out line by line, but its ids collide."""
        from repro.obs import TraceSink, Tracer

        path = tmp_path / "t.jsonl"
        for writer in ("driver", "worker"):
            tracer = Tracer(TraceSink(path))
            with tracer.span(writer):
                pass
            tracer.set_sink(None)
        assert main(["trace", "validate", str(path)]) == 2
        assert "duplicate record id 's1'" in capsys.readouterr().err


class TestErrorHygiene:
    """Expected operational errors print one line and exit 2."""

    def test_scale_error_is_one_line(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        assert main(["info"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_artifact_error_is_one_line(self, capsys, monkeypatch):
        from repro.harness import ArtifactError

        def explode(*args, **kwargs):
            raise ArtifactError("artifact went missing")

        monkeypatch.setattr("repro.cli.shared_context", explode)
        assert main(["run", "T1", "--scale", "ci"]) == 2
        err = capsys.readouterr().err
        assert "error: artifact went missing" in err
        assert "Traceback" not in err

    def test_sweep_error_is_one_line(self, capsys, monkeypatch):
        from repro.harness import SweepError

        def explode(*args, **kwargs):
            raise SweepError("bad sweep configuration")

        monkeypatch.setattr("repro.cli.shared_context", explode)
        assert main(["sweep", "--scale", "ci"]) == 2
        err = capsys.readouterr().err
        assert "error: bad sweep configuration" in err

    def test_chunk_failure_prints_report_summary(self, capsys, monkeypatch):
        from repro.harness import ChunkFailure, RunReport

        report = RunReport(total_chunks=8, completed=3)
        report.failure = "chunk 5 ('gzip', 'train') failed: injected"

        def explode(*args, **kwargs):
            raise ChunkFailure(report.failure, report)

        monkeypatch.setattr("repro.cli.shared_context", explode)
        assert main(["run", "T1", "--scale", "ci"]) == 2
        err = capsys.readouterr().err
        assert "chunks 3/8" in err
        assert "chunk 5" in err


class TestAnalyze:
    """End-to-end coverage of the `repro analyze` subcommand."""

    def _write_bad_file(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            '"""Doc."""\n\n\ndef read(path):\n    try:\n'
            "        return open(path).read()\n"
            "    except:  # noqa: E722\n        return None\n"
        )
        return bad

    def test_analyze_json_smoke(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        bad = self._write_bad_file(tmp_path)
        assert main(["analyze", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["files_analyzed"] == 1
        assert payload["summary"]["error"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "HYG001"
        assert finding["line"] == 7
        assert finding["path"].endswith("bad.py")

    def test_analyze_text_clean_exits_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        good = tmp_path / "good.py"
        good.write_text('"""Doc."""\n\nVALUE = 1\n')
        assert main(["analyze", str(good)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_analyze_strict_fails_on_warnings(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        warn = tmp_path / "warn.py"
        warn.write_text(
            '"""Doc."""\n\n\ndef is_half(x):\n    return x == 0.5\n'
        )
        assert main(["analyze", str(warn)]) == 0  # warnings don't fail
        assert main(["analyze", str(warn), "--strict"]) == 1
        capsys.readouterr()

    def test_analyze_write_baseline_then_clean(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self._write_bad_file(tmp_path)
        assert main(["analyze", str(tmp_path), "--write-baseline"]) == 0
        assert (tmp_path / "analysis-baseline.json").exists()
        capsys.readouterr()
        # baselined finding no longer fails, even in strict mode... but the
        # TODO reason is the author's cue to justify it for the gate tests.
        assert main(["analyze", str(tmp_path), "--strict"]) == 0
        assert "suppressed by baseline" in capsys.readouterr().out

    def test_analyze_list_rules(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "NUM001", "LAY001", "CON001", "HYG001"):
            assert rule_id in out

    def test_analyze_select_and_missing_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = self._write_bad_file(tmp_path)
        assert main(["analyze", str(bad), "--select", "NUM001"]) == 0
        capsys.readouterr()
        assert main(["analyze", str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_analyze_non_python_file_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        notes = tmp_path / "notes.md"
        notes.write_text("# notes\n")
        assert main(["analyze", str(notes)]) == 2
        assert "not a Python file" in capsys.readouterr().err

    def test_analyze_cache_round_trip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self._write_bad_file(tmp_path)
        assert main(["analyze", str(tmp_path)]) == 1
        capsys.readouterr()
        assert (tmp_path / ".repro_cache" / "analysis").is_dir()
        assert main(["analyze", str(tmp_path)]) == 1
        assert "bad.py" in capsys.readouterr().out

    def test_analyze_graph_dumps_json(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        flow = tmp_path / "flow.py"
        flow.write_text(
            '"""Doc."""\n\n'
            "def work(chunk):\n"
            "    return chunk\n\n"
            "def drive(pool, chunks):\n"
            "    return [pool.submit(work, c) for c in chunks]\n"
        )
        assert main(["analyze", str(flow), "--graph"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entrypoints"] == ["flow.work"]
        assert payload["calls"]["flow.drive"] == ["flow.work"]
