"""Content-hash-keyed incremental store for the dataflow layer.

CFG + summary analysis costs real time where the syntactic rules cost
almost none, so everything derived is cached on disk under
``.repro-analysis-cache/`` (git-ignored) keyed purely by content
hashes:

* ``locals-<domain>`` — one entry per module, keyed by the module
  *source hash*: the module's local summary equations (concrete marks
  + symbolic callee references).  Valid as long as the module's bytes
  are unchanged — callee references are recorded by stable
  ``module:qualname`` key, so editing a callee never stales a caller's
  equations.
* ``findings-<rule>`` — one entry per (rule, file), keyed by the file
  source hash *plus* the resolved summary-table hash: editing any file
  re-runs that file's rules, and everyone else's entries survive
  unless the resolved summaries actually changed.

Entries are JSON, written atomically (temp file + ``os.replace``) so
concurrent runs sharing a cache directory can race on the same key
harmlessly.  The cache is an accelerator only: every read validates
shape and any IO/parse problem falls back to recomputation, and a cold
run and a warm run produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

__all__ = ["AnalysisCache", "CACHE_DIR_NAME", "content_hash"]

#: Directory created under the analysis root.
CACHE_DIR_NAME = ".repro-analysis-cache"

#: Bumped whenever any cached payload's meaning changes; part of every
#: key, so stale layouts miss instead of deserializing garbage.
CACHE_VERSION = 2


def content_hash(data: bytes | str) -> str:
    """Stable hex digest of ``data`` (the cache's only key primitive)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


class AnalysisCache:
    """Best-effort JSON store; ``directory=None`` disables it."""

    def __init__(self, directory: str | Path | None):
        self.directory = Path(directory) if directory is not None else None

    @property
    def enabled(self) -> bool:
        return self.directory is not None

    def _path(self, section: str, key: str) -> Path:
        return self.directory / section / f"{key}-v{CACHE_VERSION}.json"

    def get(self, section: str, key: str):
        """The stored payload, or None on miss/corruption."""
        if self.directory is None:
            return None
        try:
            return json.loads(
                self._path(section, key).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None

    def put(self, section: str, key: str, payload) -> None:
        """Store ``payload`` atomically; failures are silently dropped
        (a cache that cannot write is just a cache that never hits)."""
        if self.directory is None:
            return
        path = self._path(section, key)
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - defensive
                pass
