"""CLI behaviour: exit codes, formats, rule listing, arg errors."""

from __future__ import annotations

import json
from pathlib import Path

from repro_lint import rule_codes
from repro_lint.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def test_exit_1_on_violations(capsys):
    assert main([str(FIXTURES / "rl001_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out
    assert "boltzmann_accept_probability" in out


def test_exit_0_on_clean_input(capsys):
    assert main([str(FIXTURES / "rl001_good.py")]) == 0
    assert "clean" in capsys.readouterr().out


def test_exit_2_on_missing_path(capsys):
    assert main(["definitely/not/a/path.py"]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_2_on_unknown_rule_code(capsys):
    assert main(["--select", "RL999", str(FIXTURES)]) == 2
    assert "RL999" in capsys.readouterr().err


def test_exit_2_when_no_paths_given(capsys):
    assert main([]) == 2
    assert "no paths" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in rule_codes():
        assert code in out


def test_select_filters_rules(capsys):
    bad = str(FIXTURES / "rl002_bad.py")
    assert main(["--select", "RL001", bad]) == 0
    assert main(["--select", "RL002", bad]) == 1


def test_ignore_filters_rules(capsys):
    bad = str(FIXTURES / "rl002_bad.py")
    assert main(["--ignore", "RL002", bad]) == 0


def test_json_format(capsys):
    assert main(["--format", "json", str(FIXTURES / "rl003_bad.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts_by_code"] == {"RL003": 3}


def test_sarif_format(capsys):
    assert main(["--format", "sarif", str(FIXTURES / "rl004_bad.py")]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert [r["ruleId"] for r in doc["runs"][0]["results"]] == ["RL004"] * 4


def test_cache_path_flag_round_trips(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    target = str(FIXTURES / "rl011_bad.py")
    assert main(["--cache-path", str(cache), target]) == 1
    first = capsys.readouterr().out
    assert cache.exists()
    assert main(["--cache-path", str(cache), target]) == 1
    assert capsys.readouterr().out == first
