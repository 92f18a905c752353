"""Dogfood gate: the repository itself lints clean.

This is the machine-checked form of the conventions the linter
enforces — if a new kernel reintroduces a raw ``np.exp`` accept, a
global-RNG call, or ad-hoc kernel timing, this test fails with the
exact file:line and the fix direction.
"""

from __future__ import annotations

from pathlib import Path

from repro_lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repository_is_lint_clean():
    # `tools` includes the linter itself: repro_lint lints repro_lint.
    report = lint_paths(
        [
            str(REPO_ROOT / "src"),
            str(REPO_ROOT / "tests"),
            str(REPO_ROOT / "benchmarks"),
            str(REPO_ROOT / "tools"),
        ],
        root=REPO_ROOT,
    )
    assert report.files_checked > 150
    assert report.ok, "\n".join(v.format() for v in report.violations)


def test_expanded_rule_set_is_active():
    # The dogfood gate only means something if RL008, RL010 and RL011
    # actually ran.
    from repro_lint import rule_codes

    assert {"RL008", "RL010", "RL011"} <= set(rule_codes())
