"""Content-hash lint cache.

Re-linting an unchanged tree is the common case (pre-commit hooks, CI
re-runs, editor integrations), so the engine can persist per-file
verdicts into a small JSON document and replay them when nothing
relevant changed.  A cached entry is keyed by everything its verdict
depends on:

* the file's **content digest** — any edit invalidates it;
* the **active rule set** (sorted codes) — ``--select``/``--ignore``
  changes and newly registered rules invalidate it;
* the **engine cache version** — bumped when rule semantics change.

Every rule reads only the file it checks, so no other file's content
is part of the key: editing one file never spoils another's entry.

The cache stores violations only; suppression accounting happens
before a verdict is cached, so replayed entries are byte-identical to
a fresh run.  A corrupt or foreign cache file is ignored, never fatal.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro_lint.violations import Violation

CACHE_SCHEMA = "repro_lint.cache/v1"

#: Bump when rule or engine semantics change in a way that should
#: invalidate previously cached verdicts wholesale.
ENGINE_CACHE_VERSION = "3"


def file_digest(data: bytes) -> str:
    """Content digest of one source file."""
    return hashlib.sha256(data).hexdigest()


def cache_key(
    rel_path: str,
    path_str: str,
    digest: str,
    rules_signature: str,
) -> str:
    """Composite key for one file's cached verdict."""
    blob = "\x00".join(
        (
            ENGINE_CACHE_VERSION,
            rel_path,
            path_str,
            digest,
            rules_signature,
        )
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class LintCache:
    """One cache file: load, query, update, save."""

    path: Path
    entries: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    _touched: Dict[str, bool] = field(default_factory=dict, repr=False)

    @classmethod
    def load(cls, path: Path) -> "LintCache":
        cache = cls(path=path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache
        if not isinstance(doc, dict) or doc.get("schema") != CACHE_SCHEMA:
            return cache
        entries = doc.get("entries")
        if isinstance(entries, dict):
            cache.entries = {
                key: value
                for key, value in entries.items()
                if isinstance(value, list)
            }
        return cache

    def get(self, key: str) -> Optional[List[Violation]]:
        """Cached violations for ``key`` (None = miss)."""
        cached = self.entries.get(key)
        if cached is None:
            self.misses += 1
            return None
        try:
            violations = [Violation(**item) for item in cached]
        except TypeError:
            self.misses += 1
            return None
        self.hits += 1
        self._touched[key] = True
        return violations

    def put(self, key: str, violations: List[Violation]) -> None:
        self.entries[key] = [v.to_dict() for v in violations]
        self._touched[key] = True

    def save(self) -> None:
        """Persist only the entries this run touched (prunes stale keys)."""
        doc = {
            "schema": CACHE_SCHEMA,
            "entries": {
                key: self.entries[key]
                for key in sorted(self._touched)
                if key in self.entries
            },
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(
                json.dumps(doc, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        except OSError:
            pass  # a read-only checkout must not fail the lint run
