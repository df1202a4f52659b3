"""On-disk per-file summary cache for the incremental runner.

Each analyzed source file gets one JSON entry under the cache directory
(default ``.repro_cache/analysis/``), named by a sha256 over the schema
version, the file's repo-relative path, the selected module-rule ids,
and the file's content bytes.  Any of those changing — an edit, a rule
added or removed, a schema bump — changes the key, so stale entries are
simply never looked up again.  Nothing removes them: entries only
accumulate, and ``rm -rf .repro_cache/analysis`` clears them.

Entries store both the module's dataflow summary and the module-scoped
findings, so a warm run skips the module rules and summarization for
unchanged files.  Loads are tolerant: a corrupt or unreadable entry
behaves like a miss.  Writes go through a temp file + ``os.replace`` so
a concurrent run never observes a half-written entry, and IO failures
are swallowed: the cache degrades to a no-op rather than failing the
analysis.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ..findings import Finding
from .summaries import SUMMARY_SCHEMA_VERSION, ModuleSummary


def cache_key(
    relpath: str, content: bytes, rule_ids: Sequence[str]
) -> str:
    """Content-addressed key for one file's cache entry."""
    digest = hashlib.sha256()
    digest.update(f"v{SUMMARY_SCHEMA_VERSION}\n".encode())
    digest.update(relpath.encode())
    digest.update(b"\n")
    digest.update(",".join(sorted(rule_ids)).encode())
    digest.update(b"\n")
    digest.update(content)
    return digest.hexdigest()


class SummaryCache:
    """Content-keyed store of (summary, module findings) per file."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)

    def _entry_path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(
        self, key: str
    ) -> Optional[Tuple[ModuleSummary, List[Finding]]]:
        """The cached entry for ``key``, or None on any failure."""
        try:
            raw = self._entry_path(key).read_text(encoding="utf-8")
            payload = json.loads(raw)
            summary = ModuleSummary.from_dict(payload["summary"])
            findings = [
                Finding.from_dict(f) for f in payload.get("findings", [])
            ]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return summary, findings

    def store(
        self,
        key: str,
        summary: ModuleSummary,
        findings: Sequence[Finding],
    ) -> None:
        """Atomically persist one entry; IO failures are swallowed."""
        payload = {
            "summary": summary.to_dict(),
            "findings": [f.to_dict() for f in findings],
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(self.directory), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle)
                os.replace(tmp, self._entry_path(key))
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError:
            return  # an unwritable cache leaves the run uncached
