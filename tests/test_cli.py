"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.tsp.generators import random_uniform
from repro.tsp.tsplib import write_tsplib


class TestCapacity:
    def test_prints_table(self, capsys):
        assert main(["capacity", "--sizes", "1000", "85900"]) == 0
        out = capsys.readouterr().out
        assert "85900" in out
        assert "46.4 Mb" in out

    def test_custom_p(self, capsys):
        assert main(["capacity", "--sizes", "100", "--p", "2"]) == 0
        assert "p_max = 2" in capsys.readouterr().out


class TestSramCurve:
    def test_default(self, capsys):
        assert main(["sram-curve", "--samples", "300"]) == 0
        out = capsys.readouterr().out
        assert "V_DD" in out and "800" in out

    def test_bl_cap_label(self, capsys):
        assert main(["sram-curve", "--samples", "100", "--bl-cap", "4"]) == 0
        assert "x4" in capsys.readouterr().out


class TestPPA:
    def test_flagship_numbers(self, capsys):
        assert main(["ppa", "--n", "85900", "--p", "3"]) == 0
        out = capsys.readouterr().out
        assert "46.4 Mb" in out
        assert "43.81 mm^2" in out
        assert "4295" in out


class TestMaxcut:
    def test_runs(self, capsys):
        assert main(["maxcut", "--nodes", "60", "--sweeps", "30"]) == 0
        out = capsys.readouterr().out
        assert "annealed" in out and "cut =" in out

    def test_rudy_file(self, tmp_path, capsys):
        path = tmp_path / "square.mc"
        path.write_text("4 4\n1 2 1\n2 3 1\n3 4 1\n4 1 1\n", encoding="utf-8")
        assert main(["maxcut", "--file", str(path), "--sweeps", "20"]) == 0
        out = capsys.readouterr().out
        assert "square" in out and "cut =" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["maxcut", "--file", str(tmp_path / "nope.mc")]) == 2
        assert "error" in capsys.readouterr().err


class TestProblemsCLI:
    def test_choices_literal_pin_registry(self):
        # cli.py duplicates the family/backends as literals so --help
        # stays import-light; these pins keep the copies in sync.
        from repro.backends import list_backends, resolve_backend
        from repro.cli import (
            _FAMILY_BLURBS,
            _FAMILY_CHOICES,
            _QUBO_BACKEND_CHOICES,
        )
        from repro.problems import list_families

        assert _FAMILY_CHOICES == list_families()
        assert tuple(sorted(_FAMILY_BLURBS)) == list_families()
        assert _QUBO_BACKEND_CHOICES == tuple(
            name
            for name in list_backends()
            if "qubo" in resolve_backend(name).capabilities().problem_kinds
        )

    def test_list_renders_families(self, capsys):
        assert main(["problems", "list"]) == 0
        out = capsys.readouterr().out
        for family in ("coloring", "knapsack", "maxsat"):
            assert family in out
        assert "docs/problems.md" in out

    def test_solve_family_end_to_end(self, capsys):
        assert main(
            ["problems", "solve", "--family", "knapsack", "--size", "6",
             "--backend", "cluster-cim", "--reference"]
        ) == 0
        out = capsys.readouterr().out
        assert "qubo     :" in out
        assert "ops      :" in out and "macs=" in out
        assert "decoded  : items=" in out
        assert "feasible=" in out
        assert "baseline : knapsack reference objective" in out
        assert "optimal ratio" in out

    def test_solve_every_family_parses_and_decodes(self, capsys):
        for family, marker in (
            ("coloring", "colors="),
            ("knapsack", "items="),
            ("maxsat", "assignment="),
        ):
            assert main(
                ["problems", "solve", "--family", family, "--size", "5",
                 "--backend", "dense-ising"]
            ) == 0
            assert marker in capsys.readouterr().out

    def test_solve_qubo_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.qubo"
        path.write_text(
            "p qubo 0 3 3 2\n0 0 -1.0\n1 1 -1.0\n2 2 2.0\n"
            "0 1 3.0\n1 2 -0.5\n",
            encoding="utf-8",
        )
        assert main(
            ["problems", "solve", "--file", str(path), "--backend", "simcim"]
        ) == 0
        out = capsys.readouterr().out
        assert "energy=" in out
        assert "decoded" not in out  # raw QUBOs have no family decode

    def test_solve_bad_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.qubo"
        bad.write_text("p qubo 0 2\n", encoding="utf-8")
        assert main(
            ["problems", "solve", "--file", str(bad)]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_convert_round_trip(self, tmp_path, capsys):
        src = tmp_path / "inst.qubo"
        src.write_text(
            "p qubo 0 2 2 1\n0 0 1.0\n1 1 -1.0\n0 1 -2.0\n",
            encoding="utf-8",
        )
        dst = tmp_path / "inst.json"
        assert main(["problems", "convert", str(src), str(dst)]) == 0
        out = capsys.readouterr().out
        assert "repro.qubo/v1" in out
        from repro.problems import load_qubo

        assert load_qubo(dst).n_vars == 2

    def test_convert_missing_input_exits_2(self, tmp_path, capsys):
        assert main(
            ["problems", "convert", str(tmp_path / "none.qubo"),
             str(tmp_path / "out.json")]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_submit_parser_defaults(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["problems", "submit", "--url", "http://127.0.0.1:1"]
        )
        assert args.family == "coloring"
        assert args.size == 16
        assert args.backend == "cluster-cim"
        assert args.ensemble == 1
        assert args.tag == "cli"

    def test_submit_unreachable_gateway_exits_1(self, capsys):
        assert main(
            ["problems", "submit", "--url", "http://127.0.0.1:9",
             "--family", "maxsat", "--size", "4"]
        ) == 1
        assert "cannot reach gateway" in capsys.readouterr().err

    def test_unknown_family_exits(self):
        with pytest.raises(SystemExit):
            main(["problems", "solve", "--family", "sudoku"])

    def test_family_and_file_mutually_exclusive(self):
        # argparse only counts non-default values as "seen", so the
        # conflict needs a family other than the coloring default.
        with pytest.raises(SystemExit):
            main(
                ["problems", "solve", "--family", "maxsat",
                 "--file", "x.qubo"]
            )

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["problems"])


class TestSolve:
    def test_synthetic(self, capsys):
        assert main(
            ["solve", "--family", "uniform", "--n", "120", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "solution" in out and "length=" in out

    def test_with_reference_and_ppa(self, capsys):
        assert main(
            ["solve", "--family", "clustered", "--n", "150", "--seed", "2",
             "--reference", "--ppa"]
        ) == 0
        out = capsys.readouterr().out
        assert "optimal ratio" in out
        assert "hardware" in out

    def test_tsplib_file(self, tmp_path, capsys):
        inst = random_uniform(60, seed=3)
        path = tmp_path / "demo.tsp"
        with open(path, "w") as f:
            write_tsplib(inst, f)
        assert main(["solve", "--tsplib", str(path)]) == 0
        assert "n=60" in capsys.readouterr().out

    def test_strategy_option(self, capsys):
        assert main(
            ["solve", "--family", "uniform", "--n", "80", "--strategy", "2"]
        ) == 0
        assert "length=" in capsys.readouterr().out


class TestSolveBackend:
    def test_choices_literal_pins_registry(self):
        # cli.py duplicates the registry names as literals so --help
        # stays import-light; this pin keeps the two in sync.
        from repro.backends import DEFAULT_BACKEND, list_backends
        from repro.cli import _BACKEND_CHOICES, _DEFAULT_BACKEND

        assert _BACKEND_CHOICES == list_backends()
        assert _DEFAULT_BACKEND == DEFAULT_BACKEND

    def test_maxcut_sb_single(self, capsys):
        assert main(
            ["solve", "--backend", "maxcut-sb", "--n", "30", "--seed", "2",
             "--reference"]
        ) == 0
        out = capsys.readouterr().out
        assert "backend=maxcut-sb" in out
        assert "objective=" in out
        assert "optimal ratio" in out

    def test_dense_ising_single(self, capsys):
        assert main(
            ["solve", "--backend", "dense-ising", "--n", "10", "--seed", "1"]
        ) == 0
        assert "backend=dense-ising" in capsys.readouterr().out

    def test_simcim_ensemble(self, capsys):
        assert main(
            ["solve", "--backend", "simcim", "--n", "24", "--seed", "3",
             "--ensemble", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "ensemble : 2 runs" in out

    def test_unknown_backend_exits(self):
        with pytest.raises(SystemExit):
            main(["solve", "--backend", "not-a-backend", "--n", "30"])

    def test_ppa_needs_default_backend(self, capsys):
        assert main(
            ["solve", "--backend", "simcim", "--n", "24", "--ppa"]
        ) == 2
        assert "--ppa" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["maxcut-sb", "simcim"])
    def test_svg_needs_tsp_backend(self, backend, capsys, tmp_path):
        assert main(
            ["solve", "--backend", backend, "--n", "30",
             "--svg", str(tmp_path / "t.svg")]
        ) == 2
        assert "--svg" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["simcim", "maxcut-sb"])
    def test_tsplib_rejected_for_non_tsp_backend(
        self, backend, tmp_path, capsys
    ):
        inst = random_uniform(30, seed=3)
        path = tmp_path / "demo.tsp"
        with open(path, "w") as f:
            write_tsplib(inst, f)
        assert main(
            ["solve", "--backend", backend, "--tsplib", str(path)]
        ) == 2
        assert "--tsplib" in capsys.readouterr().err

    def test_dense_ising_size_cap_maps_to_exit_2(self, capsys):
        assert main(
            ["solve", "--backend", "dense-ising", "--n", "80"]
        ) == 2
        assert "64 cities" in capsys.readouterr().err


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])

    def test_missing_required_exits(self):
        with pytest.raises(SystemExit):
            main(["ppa"])  # --n is required


class TestSolveSvg:
    def test_svg_written(self, tmp_path, capsys):
        out = tmp_path / "tour.svg"
        assert main(
            ["solve", "--family", "uniform", "--n", "60", "--svg", str(out)]
        ) == 0
        assert out.read_text().startswith("<svg")
        assert "tour SVG" in capsys.readouterr().out


class TestSolveEnsemble:
    def test_ensemble_summary_printed(self, capsys):
        assert main(
            ["solve", "--family", "uniform", "--n", "70", "--seed", "4",
             "--ensemble", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "ensemble : 2 runs" in out
        assert "throughput=" in out
        assert "ratio mean=" in out

    def test_workers_flag_parallel_mode(self, capsys):
        assert main(
            ["solve", "--family", "uniform", "--n", "70", "--seed", "4",
             "--ensemble", "2", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "workers=2" in out
        assert "mode=parallel" in out or "mode=serial-fallback" in out

    def test_telemetry_out_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "telemetry.json"
        assert main(
            ["solve", "--family", "uniform", "--n", "70", "--seed", "1",
             "--ensemble", "2", "--telemetry-out", str(path)]
        ) == 0
        assert "telemetry:" in capsys.readouterr().out
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro.ensemble_telemetry/v1"
        assert payload["n_runs"] == 2
        runs = payload["runs"]
        assert [r["seed"] for r in runs] == [1, 2]
        assert all(r["wall_time_s"] > 0 for r in runs)
        assert all(r["trials_proposed"] > 0 for r in runs)

    def test_telemetry_without_ensemble_defaults_to_one_run(
        self, tmp_path, capsys
    ):
        path = tmp_path / "single.json"
        assert main(
            ["solve", "--family", "uniform", "--n", "60",
             "--telemetry-out", str(path)]
        ) == 0
        assert "ensemble : 1 runs" in capsys.readouterr().out
        assert path.exists()


class TestSolveStream:
    def test_stream_emits_one_json_line_per_run(self, capsys):
        import json

        assert main(
            ["solve", "--family", "uniform", "--n", "60", "--seed", "5",
             "--ensemble", "2", "--stream"]
        ) == 0
        out = capsys.readouterr().out
        lines = [
            json.loads(line)
            for line in out.splitlines()
            if line.startswith("{")
        ]
        assert [rec["seed"] for rec in lines] == [5, 6]
        assert all(
            rec["schema"] == "repro.run_telemetry/v1" for rec in lines
        )
        assert all(rec["worker"].endswith("@cli-0001") for rec in lines)
        assert "ensemble : 2 runs" in out

    def test_stream_matches_unstreamed_solve(self, capsys):
        args = ["solve", "--family", "uniform", "--n", "60", "--seed", "7",
                "--ensemble", "2"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main([*args, "--stream"]) == 0
        streamed = capsys.readouterr().out
        def pick(text):
            return [line for line in text.splitlines() if "length=" in line]

        assert pick(plain) == pick(streamed)

    def test_max_inflight_flag_accepted(self, capsys):
        assert main(
            ["solve", "--family", "uniform", "--n", "60", "--seed", "8",
             "--ensemble", "3", "--stream", "--max-inflight", "1"]
        ) == 0
        assert "ensemble : 3 runs" in capsys.readouterr().out


class TestServeSubmitFlags:
    """Parser-level pins for the gateway resilience flags (the live
    serve/submit round trip runs in CI's gateway-smoke job)."""

    def test_serve_resilience_defaults(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["serve"])
        assert args.probe_interval == 0.25
        assert args.failover_budget == 2
        assert args.stall_timeout == 30.0

    def test_serve_resilience_flags_parse(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["serve", "--probe-interval", "0.05", "--failover-budget", "5",
             "--stall-timeout", "2.5"]
        )
        assert args.probe_interval == 0.05
        assert args.failover_budget == 5
        assert args.stall_timeout == 2.5

    def test_submit_deadline_flag(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["submit", "--url", "http://127.0.0.1:1", "--deadline", "12.5"]
        )
        assert args.deadline == 12.5
        default = _build_parser().parse_args(
            ["submit", "--url", "http://127.0.0.1:1"]
        )
        assert default.deadline is None

    @pytest.mark.parametrize("command", [["submit"], ["problems", "submit"]])
    def test_submit_bad_tag_exits_2(self, command, capsys):
        assert main(
            command + ["--url", "http://127.0.0.1:9", "--tag", "team/a"]
        ) == 2
        assert capsys.readouterr().err.startswith("error: tag may use only")

    def test_submit_non_numeric_deadline_exits(self):
        from repro.cli import _build_parser

        with pytest.raises(SystemExit):
            _build_parser().parse_args(
                ["submit", "--url", "http://127.0.0.1:1",
                 "--deadline", "soon"]
            )


class TestSolveChaos:
    def test_chaos_seed_enables_fault_injection(self, capsys):
        assert main(
            ["solve", "--family", "uniform", "--n", "60", "--seed", "3",
             "--ensemble", "4", "--chaos-seed", "11",
             "--chaos-crash-rate", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "ensemble : 4 runs" in out
        assert "chaos    : seed=11" in out
        assert "pool_rebuilds=" in out

    def test_chaos_quality_matches_fault_free_solve(self, capsys):
        # The chaos layer must not change the answer, only the journey:
        # the quality line is bit-identical with and without injection.
        args = ["solve", "--family", "uniform", "--n", "60", "--seed", "9",
                "--ensemble", "2"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(
            [*args, "--chaos-seed", "1", "--chaos-crash-rate", "0.4"]
        ) == 0
        chaotic = capsys.readouterr().out

        def pick(text):
            return [ln for ln in text.splitlines() if "quality" in ln]

        assert pick(plain) == pick(chaotic)
