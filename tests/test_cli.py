"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.core import batch
from repro.cli import build_parser, main


@pytest.fixture
def seen_records(monkeypatch):
    """The run record each command sees while it runs, in call order."""
    seen = []

    def spy(command):
        def run(args):
            seen.append(batch.run_config())
            return command(args)

        return run

    for name, command in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, spy(command))
    return seen


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "--model", "VGG-16", "--machine", "simba"]
        )
        assert args.model == "VGG-16"
        assert args.machine == "simba"
        assert not args.layer_by_layer

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--model", "AlexNet"])

    def test_rejects_unknown_section(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--section", "fig99"])


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "--model", "ResNet-50", "--machine", "spacx"]) == 0
        out = capsys.readouterr().out
        assert "SPACX / ResNet-50" in out
        assert "execution time" in out
        assert "network" in out

    def test_run_per_layer(self, capsys):
        code = main(
            ["run", "--model", "VGG-16", "--machine", "simba", "--per-layer"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fc6" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "interface MRRs" in out
        assert "Table II" in out

    def test_report_single_section(self, capsys):
        assert main(["report", "--section", "area"]) == 0
        out = capsys.readouterr().out
        assert "VIII-G" in out
        assert "MRRs under chiplet" in out

    def test_advise(self, capsys):
        assert main(["advise", "--model", "ResNet-50", "--objective", "edp"]) == 0
        out = capsys.readouterr().out
        assert "recommended" in out
        assert "objective=edp" in out

    def test_layers(self, capsys):
        assert main(["layers", "--model", "ResNet-50", "--unique"]) == 0
        out = capsys.readouterr().out
        assert "conv1" in out
        assert "21 layers" in out

    def test_layers_with_duplicates(self, capsys):
        assert main(["layers", "--model", "VGG-16"]) == 0
        out = capsys.readouterr().out
        assert "16 layers" in out


class TestBudgetFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["tables"])
        assert args.deadline is None
        assert args.max_rss is None
        assert args.max_failures is None
        assert not args.drain_signal
        assert not args.retry_quarantined

    def test_budget_flags_configure_defaults(self, seen_records):
        assert (
            main(
                [
                    "--deadline",
                    "120",
                    "--max-rss",
                    "512",
                    "--max-failures",
                    "7",
                    "--retry-quarantined",
                    "layers",
                    "--model",
                    "VGG-16",
                ]
            )
            == 0
        )
        [config] = seen_records
        budget = config.budget
        assert budget is not None
        assert budget.deadline_s == 120.0
        assert budget.max_rss_mb == 512.0
        assert budget.max_failures == 7
        assert config.retry_quarantined is True

    def test_no_budget_flags_leave_defaults_alone(self, seen_records):
        assert main(["layers", "--model", "VGG-16"]) == 0
        [config] = seen_records
        assert config.budget is None
        assert config.retry_quarantined is False

    def test_expired_deadline_exits_3(self, capsys):
        from repro.core.budget import EXIT_BUDGET_STOPPED

        code = main(
            ["--deadline", "0.000001", "run", "--model", "MobileNetV2"]
        )
        assert code == EXIT_BUDGET_STOPPED
        err = capsys.readouterr().err
        assert "campaign stopped early" in err
        assert "deadline" in err

    def test_stopped_report_exits_3_without_traceback(self, capsys, tmp_path):
        # With every job skipped, the report renderer crashes on empty
        # row sets; the CLI must surface the budget stop (exit 3, one
        # stderr line), not the downstream symptom's traceback.
        from repro.core.budget import EXIT_BUDGET_STOPPED

        code = main(
            [
                "--deadline",
                "0.000001",
                "--cache-dir",
                str(tmp_path),
                "report",
            ]
        )
        assert code == EXIT_BUDGET_STOPPED
        err = capsys.readouterr().err
        assert "campaign stopped early" in err
        assert "deadline" in err
        assert "Traceback" not in err

    def test_negative_deadline_exits_2(self, capsys):
        assert main(["--deadline", "-5", "layers", "--model", "VGG-16"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "deadline_s" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--timeout", "-1"], "timeout_s"),
            (["--timeout", "0"], "timeout_s"),
            (["--retries", "-1"], "retries"),
        ],
    )
    def test_bad_retry_policy_exits_2(self, capsys, flags, field):
        argv = [*flags, "run", "--model", "ResNet-50", "--machine", "spacx"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {field}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--deadline", "nan"], "deadline_s"),
            (["--max-rss", "nan"], "max_rss_mb"),
        ],
    )
    def test_nan_budget_exits_2(self, capsys, flags, field):
        argv = [*flags, "run", "--model", "ResNet-50", "--machine", "spacx"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {field}" in err
        assert "Traceback" not in err

    def test_drain_signal_restores_handlers(self, capsys):
        import signal

        before = signal.getsignal(signal.SIGINT)
        assert main(["--drain-signal", "layers", "--model", "VGG-16"]) == 0
        assert signal.getsignal(signal.SIGINT) == before


class TestBatchFlag:
    def test_batch_run(self, capsys):
        code = main(
            ["run", "--model", "MobileNetV2", "--machine", "spacx", "--batch", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batch 4" in out

    def test_batch_default_untouched(self, capsys):
        assert main(["run", "--model", "MobileNetV2"]) == 0
        out = capsys.readouterr().out
        assert "batch" not in out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_batch_below_one_exits_2(self, capsys, count):
        assert main(["run", "--model", "VGG-16", f"--batch={count}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_extension_sections_render(self, capsys):
        assert main(["report", "--section", "motivation"]) == 0
        out = capsys.readouterr().out
        assert "crossover" in out


class TestFaultsCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.model == "ResNet-50"
        assert args.samples == 128
        assert args.seed == 2022
        assert args.rates is None
        assert args.threshold == 1.5

    def test_faults_runs_and_reports_all_machines(self, capsys):
        code = main(
            [
                "faults",
                "--model",
                "MobileNetV2",
                "--samples",
                "8",
                "--seed",
                "5",
                "--rates",
                "0.001,0.01",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for machine in ("SPACX", "Simba", "POPSTAR"):
            assert machine in out
        assert "avail %" in out
        assert "seed 5" in out

    def test_faults_deterministic_across_invocations(self, capsys):
        argv = [
            "faults",
            "--model",
            "MobileNetV2",
            "--samples",
            "8",
            "--seed",
            "7",
            "--rates",
            "0.005",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_faults_rejects_empty_rates(self, capsys):
        assert main(["faults", "--rates", ","]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_faults_rejects_malformed_rates(self, capsys):
        assert main(["faults", "--rates", "0.1,banana"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--samples", "0"],
            ["--threshold", "0.5"],
            ["--rates=-1"],
            ["--threshold", "nan"],
            ["--rates", "nan"],
        ],
    )
    def test_faults_rejects_out_of_range_arguments(self, capsys, argv):
        assert main(["faults", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


class TestDoctorCommand:
    def test_doctor_default_is_clean(self, capsys):
        assert main(["doctor", "--no-simulate"]) == 0
        out = capsys.readouterr().out
        assert "spacx: ok" in out
        assert "0 error(s)" in out

    def test_doctor_with_simulation(self, capsys):
        code = main(
            ["doctor", "--machine", "spacx", "--model", "MobileNetV2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spacx [simulated]: ok" in out

    def test_doctor_json_output(self, capsys):
        import json

        code = main(
            ["doctor", "--no-simulate", "--json", "--machine", "simba"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["errors"] == 0
        assert any(r["subject"] == "simba" for r in payload["reports"])

    def test_doctor_unknown_machine_exits_2(self, capsys):
        assert main(["doctor", "--machine", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown machine" in err
        assert "Traceback" not in err

    def test_doctor_unknown_model_exits_2(self, capsys):
        assert main(["doctor", "--model", "AlexNet-9000"]) == 2
        err = capsys.readouterr().err
        assert "unknown model" in err
        assert "Traceback" not in err

    def test_doctor_broken_config_exits_nonzero(self, capsys, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text('{"machine": "spacx", "laser_power_mw": -3}')
        assert main(["doctor", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert "PHO-LASER" in out

    def test_doctor_overdense_wdm_exits_nonzero(self, capsys, tmp_path):
        config = tmp_path / "dense.json"
        config.write_text(
            '{"machine": "spacx", "wavelengths_per_waveguide": 96}'
        )
        assert main(["doctor", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert "PHO-WDM-DENSITY" in out

    def test_doctor_config_crosstalk_breaks_link_budget(
        self, capsys, tmp_path
    ):
        config = tmp_path / "xtalk.json"
        config.write_text(
            '{"machine": "spacx", "chiplets": 16, "pes_per_chiplet": 32, '
            '"ef_granularity": 2, "k_granularity": 32, '
            '"crosstalk": {"suppression_db": 12}}'
        )
        assert main(["doctor", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert "PHO-LINK-BUDGET" in out

    @pytest.mark.parametrize(
        "value", ["1" * 400, "NaN", "true"], ids=["huge-int", "nan", "bool"]
    )
    def test_doctor_non_numeric_crosstalk_is_a_finding(
        self, capsys, tmp_path, value
    ):
        config = tmp_path / "xtalk.json"
        config.write_text(
            '{"machine": "spacx", "crosstalk": {"suppression_db": %s}}' % value
        )
        assert main(["doctor", "--config", str(config), "--json"]) == 1
        out = capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(out, parse_constant=reject)
        codes = [
            d["code"]
            for report in payload["reports"]
            for d in report["diagnostics"]
        ]
        assert codes == ["DOC-TYPE"]

    def test_doctor_malformed_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "malformed.json"
        config.write_text("this is not JSON {")
        assert main(["doctor", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_doctor_missing_config_exits_2(self, capsys, tmp_path):
        assert main(["doctor", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_doctor_all_static(self, capsys):
        assert main(["doctor", "--all", "--no-simulate"]) == 0
        out = capsys.readouterr().out
        assert "spacx-ba: ok" in out
        assert "spacx-aggressive: ok" in out


class TestSearchCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.space == "tiny"
        assert args.objective is None
        assert args.strategy == "pruned"
        assert args.validation is None
        assert args.top == 10
        assert not args.as_json

    def test_rejects_unknown_objective(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--objective", "happiness"])

    def test_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--strategy", "vibes"])

    def test_tiny_preset_search(self, capsys):
        assert main(["search", "--space", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "best (objective=execution_time, strategy=pruned)" in out
        assert "pruned" in out
        assert "candidate(s)" in out

    def test_exhaustive_matches_pruned_best(self, capsys):
        assert main(["search", "--space", "tiny", "--strategy", "pruned"]) == 0
        pruned = capsys.readouterr().out.splitlines()[-1]
        assert (
            main(["search", "--space", "tiny", "--strategy", "exhaustive"])
            == 0
        )
        exhaustive = capsys.readouterr().out.splitlines()[-1]
        assert pruned.split("): ")[1] == exhaustive.split("): ")[1]

    def test_json_schema(self, capsys):
        import json

        assert main(["search", "--space", "tiny", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in (
            "ok",
            "objective",
            "strategy",
            "n_candidates",
            "n_feasible",
            "n_evaluated",
            "n_pruned",
            "n_rejected",
            "best",
            "evaluated",
        ):
            assert key in payload, key
        assert payload["ok"] is True
        assert payload["best"]["config"]["machine"] == "spacx"

    @pytest.mark.parametrize("argv", [["--top", "0", "--json"], ["--top=-1"]])
    def test_top_below_one_exits_2(self, capsys, argv):
        assert main(["search", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_json_space_file(self, capsys, tmp_path):
        import json

        space = tmp_path / "space.json"
        space.write_text(
            json.dumps(
                {
                    "machine": ["spacx"],
                    "k_granularity": [8, 16],
                    "model": ["MobileNetV2"],
                }
            )
        )
        assert main(["search", "--space", str(space), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == "edp"  # JSON-space default
        assert payload["n_candidates"] == 2

    def test_unknown_space_exits_2(self, capsys):
        assert main(["search", "--space", "warp"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "unknown space" in err
        assert "Traceback" not in err

    def test_missing_space_file_exits_2(self, capsys, tmp_path):
        assert main(["search", "--space", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert "cannot read space" in err
        assert "Traceback" not in err

    def test_malformed_space_file_exits_2(self, capsys, tmp_path):
        space = tmp_path / "broken.json"
        space.write_text("this is not JSON {")
        assert main(["search", "--space", str(space)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_bad_dimension_exits_2(self, capsys, tmp_path):
        import json

        space = tmp_path / "space.json"
        space.write_text(json.dumps({"warp_speed": [1, 2]}))
        assert main(["search", "--space", str(space)]) == 2
        err = capsys.readouterr().err
        assert "unknown dimension" in err
        assert "Traceback" not in err

    def test_unhashable_dimension_value_exits_2(self, capsys, tmp_path):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"machine": [["spacx"]]}))
        assert main(["search", "--space", str(space)]) == 2
        err = capsys.readouterr().err
        assert "unhashable" in err
        assert "Traceback" not in err

    def test_nothing_feasible_exits_1(self, capsys, tmp_path):
        import json

        space = tmp_path / "space.json"
        space.write_text(
            json.dumps(
                {
                    "machine": ["spacx"],
                    "k_granularity": [7],  # divides nothing
                    "model": ["MobileNetV2"],
                }
            )
        )
        assert main(["search", "--space", str(space)]) == 1
        out = capsys.readouterr().out
        assert "no feasible configuration" in out


class TestResilienceFlags:
    def test_global_flags_feed_sweep_defaults(self, capsys, seen_records):
        code = main(
            [
                "--timeout",
                "30",
                "--retries",
                "2",
                "--on-error",
                "skip",
                "run",
                "--model",
                "MobileNetV2",
            ]
        )
        assert code == 0
        [config] = seen_records
        assert config.timeout_s == 30.0
        assert config.retries == 2
        assert config.on_error == "skip"
        assert config.resume is False

    def test_resume_flag(self, capsys, seen_records, tmp_path):
        code = main(
            [
                "--cache-dir",
                str(tmp_path),
                "--resume",
                "run",
                "--model",
                "MobileNetV2",
            ]
        )
        assert code == 0
        [config] = seen_records
        assert config.resume is True
        # The manifest was written next to the cache shards.
        assert (tmp_path / "campaign.jsonl").exists()

    def test_rejects_bad_on_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--on-error", "explode", "tables"])


class TestRunRecord:
    def test_flags_do_not_leak_into_later_calls(self, monkeypatch):
        """A flag-less ``main()`` after a flagged one, and library code
        after both return, see the environment's defaults."""
        for name in (
            "REPRO_SWEEP_WORKERS",
            "REPRO_SWEEP_CACHE",
            "REPRO_SWEEP_CACHE_DIR",
        ):
            monkeypatch.delenv(name, raising=False)
        seen = []

        def observe():
            runner = batch.SweepRunner(cache=batch.NullCache(), manifest=False)
            seen.append((runner.audit, runner.retries, runner.budget))

        def layers(args):
            observe()
            return 0

        monkeypatch.setitem(cli._COMMANDS, "layers", layers)
        flagged = ["--no-audit", "--retries", "2", "--deadline", "100"]
        assert main([*flagged, "layers", "--model", "VGG-16"]) == 0
        assert main(["layers", "--model", "VGG-16"]) == 0
        observe()
        (audit, retries, budget), later, library = seen
        assert (audit, retries, budget.deadline_s) == (False, 2, 100.0)
        assert later == library == (True, 0, None)

    def test_removed_exec_plan_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--exec-plan", "pool", "run", "--model", "ResNet-50"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage: repro")
