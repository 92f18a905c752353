"""Lint engine: per-file analysis, rule dispatch, suppression.

Each discovered file is parsed once and every active rule runs over
it; hits are filtered through suppression comments (recording which
suppressions actually fired, the raw material of RL011), and the run
returns a deterministic, sorted violation list.  A rule reads only the
file it checks.

Two optional accelerators keep the engine pre-commit fast:

* a content-hash cache (``cache_path``) replays per-file verdicts when
  neither the file nor the active rule set changed;
* ``jobs > 1`` fans the files out over worker processes, with results
  re-ordered so output is byte-identical to a serial run.

All domain knowledge lives in the rules; all output formatting in the
reporters.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro_lint.cache import LintCache, cache_key, file_digest
from repro_lint.context import FileContext
from repro_lint.registry import Rule, rule_codes, select_rules
from repro_lint.suppressions import STALE_RULE_CODE, parse_suppressions
from repro_lint.violations import Violation

#: Directories never descended into during discovery.  ``fixtures``
#: holds the lint-rule test corpus — files that violate rules on
#: purpose (they are still linted explicitly by tests/lint).
_SKIP_DIRS = {
    "fixtures",
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    ".benchmarks",
    "results",
    "results_full",
    "build",
    "dist",
}

#: Code used for files that do not parse (always active, never a rule).
PARSE_ERROR_CODE = "RL000"


@dataclass
class LintReport:
    """Outcome of one engine run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def discover_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted unique ``.py`` file list."""
    seen = set()
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            candidates: Iterable[Path] = [path]
        elif path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not (set(p.parts) & _SKIP_DIRS)
            )
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for p in candidates:
            key = p.resolve()
            if key not in seen:
                seen.add(key)
                out.append(p)
    return out


def rel_path_for(path: Path, root: Optional[Path]) -> str:
    """Repo-relative posix path used for scoping and cross-file keys."""
    try:
        rel = path.resolve().relative_to((root or Path.cwd()).resolve())
    except ValueError:
        rel = path
    return rel.as_posix()


def _build_context(path: Path, root: Optional[Path]) -> FileContext:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return FileContext(
        path=str(path),
        rel_path=rel_path_for(path, root),
        source=source,
        tree=tree,
    )


def lint_file(
    path: Path,
    rules: Sequence[Rule],
    root: Optional[Path] = None,
) -> List[Violation]:
    """Run ``rules`` over one file, honouring suppression comments."""
    try:
        ctx = _build_context(path, root)
    except SyntaxError as exc:
        return [
            Violation(
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code=PARSE_ERROR_CODE,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    suppressions = parse_suppressions(ctx.source)
    hits: List[Violation] = []
    active = {rule.code for rule in rules}
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for violation in rule.check(ctx):
            if not suppressions.suppress(violation.code, violation.line):
                hits.append(violation)
    if STALE_RULE_CODE in active:
        registry = set(rule_codes())
        # A wildcard entry is only provably stale when every registered
        # rule had the chance to fire on this run.
        assess_wildcard = registry.issubset(active)
        for line, scope, code in suppressions.stale_entries(
            active, registry, assess_wildcard
        ):
            if suppressions.is_suppressed(STALE_RULE_CODE, line):
                continue
            hits.append(
                Violation(
                    path=str(path),
                    line=line,
                    col=0,
                    code=STALE_RULE_CODE,
                    message=(
                        f"stale suppression: {scope}[{code}] silences "
                        "nothing on this run; remove it or restore the "
                        "code it excused"
                    ),
                )
            )
    return hits


# ----------------------------------------------------------------------
# --jobs worker plumbing.  Workers are primed once per process with the
# (picklable) rule selection and root, then receive bare path strings —
# the cheap part of each task.
_WORKER_STATE: Dict[str, object] = {}


def _init_worker(
    select: Tuple[str, ...], ignore: Tuple[str, ...], root: Optional[str]
) -> None:
    _WORKER_STATE["rules"] = select_rules(select, ignore)
    _WORKER_STATE["root"] = Path(root) if root else None


def _lint_one(path_str: str) -> List[Violation]:
    return lint_file(
        Path(path_str),
        _WORKER_STATE["rules"],  # type: ignore[arg-type]
        root=_WORKER_STATE["root"],  # type: ignore[arg-type]
    )


def _lint_parallel(
    files: Sequence[Path],
    select: Tuple[str, ...],
    ignore: Tuple[str, ...],
    root: Optional[Path],
    jobs: int,
) -> Optional[List[List[Violation]]]:
    """Fan the files out over processes; None when a pool cannot start."""
    import concurrent.futures

    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(select, ignore, str(root) if root else None),
        ) as pool:
            return list(pool.map(_lint_one, [str(p) for p in files]))
    except (OSError, ValueError, RuntimeError, PermissionError):
        return None  # sandboxed / restricted env: fall back to serial


def lint_paths(
    paths: Sequence[str],
    select: Iterable[str] = (),
    ignore: Iterable[str] = (),
    root: Optional[Path] = None,
    jobs: int = 1,
    cache_path: Optional[Path] = None,
) -> LintReport:
    """Lint every ``.py`` file reachable from ``paths``.

    Parameters
    ----------
    paths:
        Files and/or directories (directories are walked recursively).
    select, ignore:
        Optional rule-code filters (``select`` empty = all rules).
    root:
        Base for the repo-relative paths used by path-scoped rules;
        defaults to the current working directory.
    jobs:
        Worker processes (1 = in-process serial).  Output is
        byte-identical either way.
    cache_path:
        When given, per-file verdicts are replayed from / persisted to
        this JSON cache (see :mod:`repro_lint.cache` for the key).
    """
    select = tuple(select)
    ignore = tuple(ignore)
    rules = select_rules(select, ignore)
    files = discover_files(paths)
    report = LintReport(files_checked=len(files))
    results: Dict[int, List[Violation]] = {}

    cache: Optional[LintCache] = None
    keys: Dict[int, str] = {}
    if cache_path is not None:
        cache = LintCache.load(cache_path)
        signature = ",".join(sorted(rule.code for rule in rules))
        for idx, path in enumerate(files):
            try:
                digest = file_digest(path.read_bytes())
            except OSError:
                digest = ""
            keys[idx] = cache_key(
                rel_path_for(path, root), str(path), digest, signature
            )
            cached = cache.get(keys[idx])
            if cached is not None:
                results[idx] = cached

    todo = [idx for idx in range(len(files)) if idx not in results]

    # Per-file rules, parallel when asked and worthwhile.
    fresh: Optional[List[List[Violation]]] = None
    if jobs > 1 and len(todo) > 1:
        fresh = _lint_parallel(
            [files[idx] for idx in todo], select, ignore, root, jobs
        )
    if fresh is not None:
        for idx, violations in zip(todo, fresh):
            results[idx] = violations
    else:
        for idx in todo:
            results[idx] = lint_file(files[idx], rules, root=root)

    if cache is not None:
        for idx in todo:
            cache.put(keys[idx], results[idx])
        cache.save()
        report.cache_hits = cache.hits
        report.cache_misses = cache.misses

    for idx in range(len(files)):
        report.violations.extend(results[idx])
    report.violations.sort()
    return report
