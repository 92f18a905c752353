"""Content-hash cache and ``--jobs`` parallelism.

The contract for both accelerators is the same: *observably identical
output* to a cold serial run.  The cache must replay verdicts only
while nothing relevant changed — the file itself or the active rule
set.  Every rule reads only the file it checks, so other files' edits
never spoil an entry.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro_lint import lint_paths
from repro_lint.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def _seed_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "proj"
    tree.mkdir()
    shutil.copy(FIXTURES / "rl002_bad.py", tree / "alpha.py")
    shutil.copy(FIXTURES / "rl004_bad.py", tree / "beta.py")
    (tree / "clean.py").write_text("VALUE = 1\n", encoding="utf-8")
    return tree


# ---------------------------------------------------------------------------
# Cache semantics.


def test_cache_replays_identical_report(tmp_path: Path):
    tree = _seed_tree(tmp_path)
    cache = tmp_path / "lint-cache.json"
    cold = lint_paths([str(tree)], root=tmp_path, cache_path=cache)
    warm = lint_paths([str(tree)], root=tmp_path, cache_path=cache)
    assert cold.cache_hits == 0 and cold.cache_misses == 3
    assert warm.cache_hits == 3 and warm.cache_misses == 0
    assert warm.violations == cold.violations
    assert warm.files_checked == cold.files_checked


def test_cache_invalidates_on_file_edit(tmp_path: Path):
    tree = _seed_tree(tmp_path)
    cache = tmp_path / "lint-cache.json"
    lint_paths([str(tree)], root=tmp_path, cache_path=cache)
    target = tree / "clean.py"
    target.write_text("VALUE = 2\n", encoding="utf-8")
    warm = lint_paths([str(tree)], root=tmp_path, cache_path=cache)
    assert warm.cache_misses == 1 and warm.cache_hits == 2


def test_cache_invalidates_on_rule_set_change(tmp_path: Path):
    tree = _seed_tree(tmp_path)
    cache = tmp_path / "lint-cache.json"
    lint_paths([str(tree)], root=tmp_path, cache_path=cache)
    filtered = lint_paths(
        [str(tree)], select=["RL002"], root=tmp_path, cache_path=cache
    )
    assert filtered.cache_hits == 0 and filtered.cache_misses == 3
    assert {v.code for v in filtered.violations} == {"RL002"}


def test_adding_an_unrelated_file_leaves_other_entries_warm(tmp_path: Path):
    # A verdict depends on its own file only: a new module costs one
    # miss and replays the rest.
    tree = _seed_tree(tmp_path)
    cache = tmp_path / "lint-cache.json"
    lint_paths([str(tree)], root=tmp_path, cache_path=cache)
    (tree / "delta.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Opt:\n"
        "    a: int = 0\n",
        encoding="utf-8",
    )
    warm = lint_paths([str(tree)], root=tmp_path, cache_path=cache)
    assert warm.cache_hits == 3 and warm.cache_misses == 1


def test_corrupt_cache_is_ignored_not_fatal(tmp_path: Path):
    tree = _seed_tree(tmp_path)
    cache = tmp_path / "lint-cache.json"
    cache.write_text("{not json", encoding="utf-8")
    report = lint_paths([str(tree)], root=tmp_path, cache_path=cache)
    assert report.files_checked == 3
    assert json.loads(cache.read_text(encoding="utf-8"))["schema"] == (
        "repro_lint.cache/v1"
    )


# ---------------------------------------------------------------------------
# --jobs N must be byte-identical to serial.


def test_jobs_report_identical_to_serial(tmp_path: Path):
    tree = _seed_tree(tmp_path)
    serial = lint_paths([str(tree)], root=tmp_path, jobs=1)
    parallel = lint_paths([str(tree)], root=tmp_path, jobs=2)
    assert parallel.violations == serial.violations
    assert parallel.files_checked == serial.files_checked


def test_jobs_cli_output_byte_identical(tmp_path: Path, capsys):
    tree = _seed_tree(tmp_path)
    base = ["--root", str(tmp_path), "--format", "json", str(tree)]
    assert main(base) == 1
    serial_out = capsys.readouterr().out
    assert main(["--jobs", "2", *base]) == 1
    parallel_out = capsys.readouterr().out
    assert parallel_out == serial_out


def test_jobs_rejects_nonpositive(capsys):
    assert main(["--jobs", "0", "src"]) == 2
    assert "jobs" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [1, 2])
def test_cache_and_jobs_compose(tmp_path: Path, jobs: int):
    tree = _seed_tree(tmp_path)
    cache = tmp_path / f"cache-{jobs}.json"
    cold = lint_paths([str(tree)], root=tmp_path, jobs=jobs, cache_path=cache)
    warm = lint_paths([str(tree)], root=tmp_path, jobs=jobs, cache_path=cache)
    assert warm.violations == cold.violations
    assert warm.cache_hits == 3
