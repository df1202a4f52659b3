"""Analysis driver: collect files, run rules, apply the baseline.

:func:`analyze_paths` is the single entry point used by the CLI, the
pytest gate and CI.  It parses every ``.py`` file under the given paths,
runs module-scoped rules per file and project-scoped rules once over the
whole tree, then filters the findings through the baseline.
:func:`dataflow_index` (``repro analyze --graph``) runs the same module
phase and keeps only the summaries.

The module phase walks each tree once (:attr:`ModuleContext.nodes`) and
runs in-process.  With ``cache_dir`` set it reads and writes the summary
cache: per-file module findings and the dataflow summary, keyed by a
sha256 over the file's content, its relpath, the module-rule set and the
summary schema version.  On a warm cache, unchanged files skip the
module rules and summarization (the driver still parses, because
project-scoped rules walk the trees).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .baseline import Baseline, BaselineEntry
from .context import ModuleContext, ProjectContext, build_module_context
from .dataflow import (
    DataflowIndex,
    ModuleSummary,
    SummaryCache,
    build_index,
    cache_key,
    summarize_module,
)
from .findings import Finding, Severity
from .registry import Rule, select_rules

#: Rule id attached to files that fail to parse.
PARSE_RULE_ID = "PARSE"

#: Default cache location, relative to the analysis root.
CACHE_SUBDIR = Path(".repro_cache") / "analysis"

_SKIP_DIRS = {"__pycache__", ".git", ".repro_cache", "build", "dist"}


class UsageError(ValueError):
    """A caller mistake (bad path argument) — CLI exits 2, not 1."""


def collect_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list.

    Directories are walked recursively for ``*.py``; an explicit file
    argument that is not Python raises :class:`UsageError` (silently
    analyzing zero files hides typos like ``repro analyze notes.md``).
    """
    seen: Dict[Path, None] = {}
    for path in paths:
        path = Path(path)
        if path.is_dir():
            candidates = sorted(
                candidate
                for candidate in path.rglob("*.py")
                if not any(
                    part in _SKIP_DIRS or part.startswith(".")
                    for part in candidate.relative_to(path).parts
                )
            )
        elif path.suffix == ".py":
            candidates = [path]
        else:
            raise UsageError(
                f"not a Python file or directory: {path} "
                "(explicit file arguments must end in .py)"
            )
        for candidate in candidates:
            seen.setdefault(candidate.resolve(), None)
    return sorted(seen)


@dataclass
class AnalysisReport:
    """Outcome of one analysis run."""

    root: Path
    files_analyzed: int
    rule_ids: List[str]
    findings: List[Finding]
    suppressed: List[Tuple[Finding, BaselineEntry]] = field(default_factory=list)
    stale_baseline: List[BaselineEntry] = field(default_factory=list)
    #: Files whose module phase was served from the summary cache.
    cache_hits: int = 0

    def counts(self) -> Dict[str, int]:
        """Finding tally by severity label."""
        tally = {severity.label: 0 for severity in Severity}
        for finding in self.findings:
            tally[finding.severity.label] += 1
        return tally

    def exit_code(self, strict: bool = False) -> int:
        """0 when clean.

        Non-strict: fail only on error-severity findings.  Strict: fail on
        any finding and on stale baseline entries.
        """
        if strict:
            return 1 if (self.findings or self.stale_baseline) else 0
        has_errors = any(
            finding.severity >= Severity.ERROR for finding in self.findings
        )
        return 1 if has_errors else 0


def _parse_failure(path: Path, root: Path, message: str) -> Finding:
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    return Finding(
        rule=PARSE_RULE_ID,
        severity=Severity.ERROR,
        path=relpath,
        line=1,
        message=message,
    )


def _module_findings(ctx: ModuleContext, rules: Sequence[Rule]) -> List[Finding]:
    """All module-scoped findings for one context."""
    found: List[Finding] = []
    for rule in rules:
        if rule.exempt_tests and ctx.is_test:
            continue
        found.extend(rule.check_module(ctx))
    return found


@dataclass
class _ModulePhase:
    """Parsed contexts, their summaries and module-scoped findings."""

    contexts: List[ModuleContext] = field(default_factory=list)
    summaries: List[ModuleSummary] = field(default_factory=list)
    #: Module-rule findings plus one PARSE finding per unparsable file.
    findings: List[Finding] = field(default_factory=list)
    cache_hits: int = 0


def _module_phase(
    files: Sequence[Path],
    root: Path,
    module_rules: Sequence[Rule],
    cache_dir: Optional[Path],
) -> _ModulePhase:
    """Parse each file, then run the module rules and summarize it.

    A file whose entry is in the summary cache takes its findings and
    summary from there; a miss is computed and stored.
    """
    cache = SummaryCache(Path(cache_dir)) if cache_dir is not None else None
    rule_ids = tuple(sorted(rule.id for rule in module_rules))
    phase = _ModulePhase()
    for path in files:
        ctx, error = build_module_context(path, root)
        if ctx is None:
            phase.findings.append(
                _parse_failure(path, root, error or "unreadable")
            )
            continue
        phase.contexts.append(ctx)
        entry = None
        if cache is not None:
            key = cache_key(ctx.relpath, ctx.source.encode("utf-8"), rule_ids)
            entry = cache.load(key)
        if entry is not None:
            summary, findings = entry
            phase.cache_hits += 1
        else:
            findings = _module_findings(ctx, module_rules)
            summary = summarize_module(ctx)
            if cache is not None:
                cache.store(key, summary, findings)
        phase.summaries.append(summary)
        phase.findings.extend(findings)
    return phase


def analyze_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
    cache_dir: Optional[Path] = None,
) -> AnalysisReport:
    """Run the selected rules over ``paths`` and apply ``baseline``.

    ``cache_dir`` enables the content-addressed summary cache (opt-in:
    library callers and fixture-rooted test runs should not sprout cache
    directories).
    """
    root = Path(root) if root is not None else Path.cwd()
    selected: List[Rule] = select_rules(rules)
    files = collect_files(paths)
    phase = _module_phase(
        files,
        root,
        [rule for rule in selected if rule.scope == "module"],
        cache_dir,
    )

    raw_findings = phase.findings
    project = ProjectContext(
        root=root, modules=phase.contexts, summaries=phase.summaries
    )
    for rule in selected:
        if rule.scope == "project":
            raw_findings.extend(rule.check_project(project))

    raw_findings.sort(key=Finding.sort_key)
    baseline = baseline or Baseline.empty()
    active, suppressed, stale = baseline.partition(
        raw_findings, ran_rules=[rule.id for rule in selected] + [PARSE_RULE_ID]
    )
    return AnalysisReport(
        root=root,
        files_analyzed=len(files),
        rule_ids=[rule.id for rule in selected],
        findings=active,
        suppressed=suppressed,
        stale_baseline=stale,
        cache_hits=phase.cache_hits,
    )


def dataflow_index(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    cache_dir: Optional[Path] = None,
) -> DataflowIndex:
    """Build just the interprocedural index (``repro analyze --graph``).

    Runs :func:`analyze_paths`'s module phase with every module rule, so
    it shares the CLI's summary-cache entries.
    """
    root = Path(root) if root is not None else Path.cwd()
    module_rules = [rule for rule in select_rules(None) if rule.scope == "module"]
    phase = _module_phase(collect_files(paths), root, module_rules, cache_dir)
    return build_index(phase.summaries)
