"""Every lint rule, demonstrated by a failing and a passing fixture."""

from __future__ import annotations

import shutil
from collections import Counter
from pathlib import Path

import pytest

from repro_lint import lint_file, lint_paths, rule_codes, select_rules

FIXTURES = Path(__file__).parent / "fixtures"


def codes_in(path: Path, root: Path | None = None) -> Counter:
    violations = lint_file(path, select_rules(), root=root)
    return Counter(v.code for v in violations)


def test_all_ten_rules_registered():
    assert rule_codes() == [
        "RL001",
        "RL002",
        "RL003",
        "RL004",
        "RL005",
        "RL006",
        "RL007",
        "RL008",
        "RL010",
        "RL011",
    ]


@pytest.mark.parametrize(
    "fixture, code, count",
    [
        ("rl001_bad.py", "RL001", 3),
        ("rl002_bad.py", "RL002", 5),
        ("rl003_bad.py", "RL003", 3),
        ("rl003_async_bad.py", "RL003", 4),
        ("rl003_gateway_bad.py", "RL003", 4),
        ("rl004_bad.py", "RL004", 4),
        ("rl005_bad.py", "RL005", 2),
        ("rl011_bad.py", "RL011", 3),
    ],
)
def test_positive_fixture_fails(fixture: str, code: str, count: int):
    hits = codes_in(FIXTURES / fixture)
    assert hits[code] == count, f"expected {count}×{code}, got {dict(hits)}"
    assert set(hits) == {code}, f"unexpected cross-rule hits: {dict(hits)}"


@pytest.mark.parametrize(
    "fixture",
    [
        "rl001_good.py",
        "rl002_good.py",
        "rl003_good.py",
        "rl003_async_good.py",
        "rl003_gateway_good.py",
        "rl004_good.py",
        "rl005_good.py",
        "rl006_good.py",
        "rl011_good.py",
    ],
)
def test_negative_fixture_is_clean(fixture: str):
    assert codes_in(FIXTURES / fixture) == Counter()


# ---------------------------------------------------------------------------
# RL006 is path-scoped: the same file is a violation inside a repro/
# solver package and clean anywhere else.


def test_rl006_flags_kernel_timing_under_repro(tmp_path: Path):
    kernel_dir = tmp_path / "src" / "repro" / "ising"
    kernel_dir.mkdir(parents=True)
    target = kernel_dir / "kernel.py"
    shutil.copy(FIXTURES / "rl006_bad.py", target)
    hits = codes_in(target, root=tmp_path)
    assert hits == Counter({"RL006": 4})


def test_rl006_allows_timing_in_runtime_layer(tmp_path: Path):
    runtime_dir = tmp_path / "src" / "repro" / "runtime"
    runtime_dir.mkdir(parents=True)
    target = runtime_dir / "telemetry.py"
    shutil.copy(FIXTURES / "rl006_bad.py", target)
    assert codes_in(target, root=tmp_path) == Counter()


def test_rl006_ignores_files_outside_repro():
    # At its real location (tests/lint/fixtures) the rule does not apply.
    assert codes_in(FIXTURES / "rl006_bad.py") == Counter()


def test_rl006_stopwatch_kernel_is_clean(tmp_path: Path):
    kernel_dir = tmp_path / "src" / "repro" / "ising"
    kernel_dir.mkdir(parents=True)
    target = kernel_dir / "kernel.py"
    shutil.copy(FIXTURES / "rl006_good.py", target)
    assert codes_in(target, root=tmp_path) == Counter()


# ---------------------------------------------------------------------------
# RL007 is path-scoped like RL006: hand-rolled retry loops are only a
# violation inside the repro/ package.


def test_rl007_flags_adhoc_retries_under_repro(tmp_path: Path):
    pkg_dir = tmp_path / "src" / "repro" / "runtime"
    pkg_dir.mkdir(parents=True)
    target = pkg_dir / "client.py"
    shutil.copy(FIXTURES / "rl007_bad.py", target)
    hits = codes_in(target, root=tmp_path)
    assert hits == Counter({"RL007": 4})


def test_rl007_backoff_paced_retry_is_clean(tmp_path: Path):
    pkg_dir = tmp_path / "src" / "repro" / "runtime"
    pkg_dir.mkdir(parents=True)
    target = pkg_dir / "client.py"
    shutil.copy(FIXTURES / "rl007_good.py", target)
    assert codes_in(target, root=tmp_path) == Counter()


def test_rl007_ignores_files_outside_repro():
    # At its real location (tests/lint/fixtures) the rule does not apply.
    assert codes_in(FIXTURES / "rl007_bad.py") == Counter()


# ---------------------------------------------------------------------------
# RL008 is scoped to the async serving path: repro/runtime/service.py
# and repro/gateway/**.


def _copied(tmp_path: Path, fixture: str, sub: str) -> Path:
    target = tmp_path / sub
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(FIXTURES / fixture, target)
    return target


@pytest.mark.parametrize(
    "sub", ["src/repro/gateway/server.py", "src/repro/runtime/service.py"]
)
def test_rl008_flags_blocking_calls_on_serving_path(
    tmp_path: Path, sub: str
):
    target = _copied(tmp_path, "rl008_bad.py", sub)
    assert codes_in(target, root=tmp_path) == Counter({"RL008": 6})


def test_rl008_async_idioms_are_clean(tmp_path: Path):
    target = _copied(tmp_path, "rl008_good.py", "src/repro/gateway/server.py")
    assert codes_in(target, root=tmp_path) == Counter()


def test_rl008_blocking_allowed_off_serving_path(tmp_path: Path):
    # Solver kernels are synchronous by design; only the serving path
    # is loop-sensitive.
    target = _copied(tmp_path, "rl008_bad.py", "src/repro/ising/gibbs.py")
    assert codes_in(target, root=tmp_path) == Counter()


# ---------------------------------------------------------------------------
# RL010 is scoped to batched kernels (repro/**/batched.py).


@pytest.mark.parametrize(
    "sub", ["src/repro/ising/batched.py", "src/repro/annealer/batched.py"]
)
def test_rl010_flags_float_reductions_in_batched_kernels(
    tmp_path: Path, sub: str
):
    target = _copied(tmp_path, "rl010_bad.py", sub)
    assert codes_in(target, root=tmp_path) == Counter({"RL010": 5})


def test_rl010_serial_gap_idiom_is_clean(tmp_path: Path):
    target = _copied(tmp_path, "rl010_good.py", "src/repro/ising/batched.py")
    assert codes_in(target, root=tmp_path) == Counter()


def test_rl010_reductions_allowed_outside_batched_kernels(tmp_path: Path):
    target = _copied(tmp_path, "rl010_bad.py", "src/repro/ising/gibbs.py")
    assert codes_in(target, root=tmp_path) == Counter()


# ---------------------------------------------------------------------------
# RL011 interplay with rule filtering: an entry for a skipped rule is
# not judged, and ignore[RL011] silences the stale report itself.


def test_rl011_not_judged_for_skipped_rules(tmp_path: Path):
    target = tmp_path / "module.py"
    target.write_text(
        "VALUE = 1  # repro-lint: ignore[RL004]\n", encoding="utf-8"
    )
    # Full run: the entry is stale.
    assert codes_in(target)["RL011"] == 1
    # RL004 skipped: the entry had no chance to fire, so not judged.
    filtered = lint_file(
        target, select_rules(select=["RL002", "RL011"])
    )
    assert filtered == []


def test_rl011_suppressible_on_its_own_line(tmp_path: Path):
    target = tmp_path / "module.py"
    target.write_text(
        "VALUE = 1  # repro-lint: ignore[RL004,RL011]\n", encoding="utf-8"
    )
    assert codes_in(target) == Counter()


# ---------------------------------------------------------------------------
# Engine behaviour around broken input and filtering.


def test_syntax_error_reported_as_rl000(tmp_path: Path):
    bad = tmp_path / "broken.py"
    bad.write_text("def incomplete(:\n", encoding="utf-8")
    report = lint_paths([str(bad)])
    assert [v.code for v in report.violations] == ["RL000"]


def test_select_and_ignore_filter_rules():
    path = FIXTURES / "rl002_bad.py"
    only_rl001 = lint_file(path, select_rules(select=["RL001"]))
    assert only_rl001 == []
    without_rl002 = lint_file(path, select_rules(ignore=["RL002"]))
    assert without_rl002 == []
    with pytest.raises(KeyError):
        select_rules(select=["RL999"])


def test_discovery_skips_fixture_corpus():
    # The fixture corpus violates rules on purpose; directory discovery
    # must not sweep it into a repo-wide run.
    report = lint_paths([str(Path(__file__).parent)])
    assert report.ok, [v.format() for v in report.violations]
