"""Reporter round-trips: text, the JSON schema, and SARIF 2.1.0."""

from __future__ import annotations

import json
from pathlib import Path

from repro_lint import (
    lint_paths,
    render_json,
    render_sarif,
    render_text,
    rule_codes,
)
from repro_lint.reporters import JSON_SCHEMA, SARIF_VERSION

FIXTURES = Path(__file__).parent / "fixtures"


def test_text_report_lines_and_summary():
    report = lint_paths([str(FIXTURES / "rl004_bad.py")])
    text = render_text(report)
    lines = text.splitlines()
    # One line per violation: path:line:col: CODE message.
    assert len(lines) == len(report.violations) + 1
    for line, violation in zip(lines, report.violations):
        assert line == violation.format()
        assert f": {violation.code} " in line
    assert "RL004×4" in lines[-1]


def test_text_report_clean():
    report = lint_paths([str(FIXTURES / "rl001_good.py")])
    assert render_text(report) == "clean: 1 file(s) checked"


def test_json_round_trip():
    report = lint_paths([str(FIXTURES / "rl002_bad.py")])
    payload = json.loads(render_json(report))
    assert payload["schema"] == JSON_SCHEMA
    assert payload["files_checked"] == 1
    assert payload["n_violations"] == len(report.violations) == 5
    assert payload["counts_by_code"] == {"RL002": 5}
    assert len(payload["violations"]) == 5
    for item, violation in zip(payload["violations"], report.violations):
        assert item == violation.to_dict()
        assert set(item) == {"path", "line", "col", "code", "message"}


def test_reporters_round_trip_new_rule_codes():
    # RL004/RL011 fire at the fixtures' real location (content-scoped);
    # text and JSON must carry them like any older code.
    report = lint_paths(
        [str(FIXTURES / "rl004_bad.py"), str(FIXTURES / "rl011_bad.py")]
    )
    payload = json.loads(render_json(report))
    assert payload["counts_by_code"] == {"RL004": 4, "RL011": 3}
    text = render_text(report)
    assert "RL004×4" in text and "RL011×3" in text


def test_sarif_shape_validates_2_1_0():
    report = lint_paths([str(FIXTURES / "rl002_bad.py")])
    doc = json.loads(render_sarif(report))
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro_lint"
    # Every registered rule (plus RL000) is described for annotations.
    ids = [r["id"] for r in driver["rules"]]
    assert ids == ["RL000", *rule_codes()]
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
        assert rule["fullDescription"]["text"]
    for result in run["results"]:
        assert result["level"] in ("warning", "error")
        assert result["message"]["text"]
        (loc,) = result["locations"]
        region = loc["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1
        assert loc["physicalLocation"]["artifactLocation"]["uri"]


def test_sarif_carries_every_json_violation():
    report = lint_paths(
        [
            str(FIXTURES / "rl002_bad.py"),
            str(FIXTURES / "rl004_bad.py"),
            str(FIXTURES / "rl011_bad.py"),
        ]
    )
    payload = json.loads(render_json(report))
    sarif = json.loads(render_sarif(report))
    results = sarif["runs"][0]["results"]
    assert len(results) == payload["n_violations"] > 0
    json_keys = [
        (v["path"], v["line"], v["code"]) for v in payload["violations"]
    ]
    sarif_keys = [
        (
            r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
            r["locations"][0]["physicalLocation"]["region"]["startLine"],
            r["ruleId"],
        )
        for r in results
    ]
    assert sarif_keys == json_keys


def test_sarif_marks_parse_errors_as_error_level(tmp_path: Path):
    broken = tmp_path / "broken.py"
    broken.write_text("def nope(:\n", encoding="utf-8")
    doc = json.loads(render_sarif(lint_paths([str(broken)])))
    (result,) = doc["runs"][0]["results"]
    assert result["ruleId"] == "RL000"
    assert result["level"] == "error"


def test_json_report_is_sorted_and_deterministic():
    paths = [
        str(FIXTURES / "rl005_bad.py"),
        str(FIXTURES / "rl001_bad.py"),
    ]
    first = json.loads(render_json(lint_paths(paths)))
    second = json.loads(render_json(lint_paths(list(reversed(paths)))))
    assert first["violations"] == second["violations"]
    keys = [(v["path"], v["line"], v["col"]) for v in first["violations"]]
    assert keys == sorted(keys)
