import csv
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from microdispatch import cli, controllers
from microdispatch.cli import main
from microdispatch.domain import DispatchSetpoint, TariffSchedule
from microdispatch.drl import MlpNetwork


def run(argv):
    return main(argv)


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def small_year(tmp_path_factory):
    """A 30-day dataset: proportional split gives a few test days quickly."""
    path = tmp_path_factory.mktemp("data") / "small.csv"
    assert run(["generate", "--days", "30", "--seed", "5", "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def full_year(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "year.csv"
    assert run(["generate", "--days", "365", "--seed", "2", "-o", str(path)]) == 0
    return path


class TestGenerate:
    def test_full_year_row_count(self, tmp_path):
        out = tmp_path / "data.csv"
        assert run(["generate", "--days", "365", "--seed", "7", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 365 * 24 + 1  # header + rows

    def test_missing_output_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(["generate", "--days", "10"])
        assert exc_info.value.code == 1

    def test_same_flags_twice_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["generate", "--days", "40", "--seed", "3", "-o", str(a)]) == 0
        assert run(["generate", "--days", "40", "--seed", "3", "-o", str(b)]) == 0
        assert file_hash(a) == file_hash(b)


class TestDayAhead:
    def test_commitment_file_written(self, small_year, tmp_path, capsys):
        out = tmp_path / "commitment.json"
        assert run(["day-ahead", "--data", str(small_year), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["grid_buy_kw"]) == 24
        assert len(payload["buying"]) == 24
        work = re.search(r"\((\d+) nodes, (\d+) simplex iterations, \d+\.\d s\)$",
                         capsys.readouterr().out.strip())
        assert work and int(work[2]) > 0

    def test_missing_data_file_is_runtime_error(self, tmp_path):
        out = tmp_path / "commitment.json"
        assert run(["day-ahead", "--data", str(tmp_path / "nope.csv"),
                    "--out", str(out)]) == 2


@pytest.fixture
def infeasible_config(tmp_path):
    """A grid capped at 100 kW and a 2000 kW generator: no day-ahead plan
    covers the `small_year` load."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "microgrid": {"grid_power_cap": 100.0, "dg_power_max": 2000.0,
                      "dg_startup_ramp": 2000.0, "dg_shutdown_ramp": 2000.0},
        "tariff": {"hourly_price": list(TariffSchedule().hourly_price)}}))
    return path


@pytest.mark.parametrize("argv", [
    "day-ahead --data {data} --config {config} --out {out}",
    "train-drl --data {data} --config {config} --out {out} --curve {out}.csv",
    "compare --data {data} --config {config} --controllers rule-based --days 1 "
    "--out {out}",
])
def test_an_infeasible_day_ahead_is_one_error_line(small_year, infeasible_config, tmp_path,
                                                  capsys, argv):
    out = tmp_path / "out"
    assert run(argv.format(data=small_year, config=infeasible_config, out=out).split()) == 2
    assert capsys.readouterr().err == "error: day-ahead solve ended infeasible\n"


def test_a_float_action_count_is_one_error_line(small_year, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "microgrid": {"drl_action_count": 40.0},
        "tariff": {"hourly_price": list(TariffSchedule().hourly_price)}}))
    assert run(["train-drl", "--data", str(small_year), "--config", str(config),
                "--episodes", "1", "--out", str(tmp_path / "w.json"),
                "--curve", str(tmp_path / "curve.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: drl_action_count must be an integer, got 40.0\n")
    assert not (tmp_path / "w.json").exists()


def test_a_non_finite_config_value_is_one_error_line(small_year, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "microgrid": {"dg_unit_cost": float("nan")},
        "tariff": {"hourly_price": list(TariffSchedule().hourly_price)}}))
    assert run(["compare", "--data", str(small_year), "--config", str(config),
                "--controllers", "rule-based,mpc-perfect", "--days", "1",
                "--out", str(tmp_path / "cmp")]) == 2
    assert capsys.readouterr().err == f"error: {config}: dg_unit_cost must be finite\n"


class TestTrainDrl:
    def test_prints_training_time_and_rate(self, small_year, tmp_path, capsys):
        weights = tmp_path / "w.json"
        assert run(["train-drl", "--data", str(small_year), "--episodes", "2",
                    "--out", str(weights), "--curve", str(tmp_path / "curve.csv")]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert re.match(r"trained 2 episodes over \d+ days in \d+\.\d s "
                        r"\(\d+ steps/s\); weights -> ", line)

    def test_zero_episode_smoke(self, small_year, tmp_path):
        weights = tmp_path / "w.json"
        curve = tmp_path / "curve.csv"
        assert run(["train-drl", "--data", str(small_year), "--episodes", "0",
                    "--out", str(weights), "--curve", str(curve)]) == 0
        payload = json.loads(weights.read_text())
        assert payload["layer_sizes"] == [6, 64, 128, 128, 64, 40]
        assert curve.read_text().splitlines() == ["episode,total_reward"]

    def test_training_months_set_default_episode_count(self, full_year, tmp_path):
        weights = tmp_path / "w.json"
        curve = tmp_path / "curve.csv"
        assert run(["train-drl", "--data", str(full_year), "--train-months", "1",
                    "--epsilon-decay-steps", "400",
                    "--out", str(weights), "--curve", str(curve)]) == 0
        # one pass over November: one episode per day
        assert len(curve.read_text().splitlines()) == 1 + 30

    def test_negative_episodes_is_usage_error(self, small_year, tmp_path, capsys):
        weights = tmp_path / "w.json"
        with pytest.raises(SystemExit) as exc_info:
            run(["train-drl", "--data", str(small_year), "--episodes", "-1",
                 "--out", str(weights), "--curve", str(tmp_path / "curve.csv")])
        assert exc_info.value.code == 1
        assert "--episodes" in capsys.readouterr().err
        assert not weights.exists()

    def test_negative_epsilon_decay_steps_is_usage_error(self, small_year, tmp_path,
                                                         capsys):
        weights = tmp_path / "w.json"
        with pytest.raises(SystemExit) as exc_info:
            run(["train-drl", "--data", str(small_year), "--episodes", "1",
                 "--epsilon-decay-steps", "-5",
                 "--out", str(weights), "--curve", str(tmp_path / "curve.csv")])
        assert exc_info.value.code == 1
        assert "--epsilon-decay-steps" in capsys.readouterr().err
        assert not weights.exists()

    def test_same_seed_same_weight_hash(self, small_year, tmp_path):
        files = []
        for tag in ("a", "b"):
            weights = tmp_path / f"w_{tag}.json"
            curve = tmp_path / f"c_{tag}.csv"
            assert run(["train-drl", "--data", str(small_year), "--episodes", "2",
                        "--seed", "9", "--out", str(weights),
                        "--curve", str(curve)]) == 0
            files.append(weights)
        assert file_hash(files[0]) == file_hash(files[1])


class TestSimulateCompareValidate:
    def test_simulate_writes_report_and_trace(self, small_year, tmp_path):
        report = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        assert run(["simulate", "--data", str(small_year),
                    "--controller", "rule-based", "--days", "2",
                    "--out", str(report), "--trace", str(trace)]) == 0
        payload = json.loads(report.read_text())
        assert payload["controller"] == "rule-based"
        assert payload["hours"] == 48
        assert len(payload["ledger"]) == 48
        assert len(trace.read_text().splitlines()) == 49

    def test_training_months_leave_the_december_test_window(self, full_year, tmp_path):
        # one trailing training month (November); the test window stays December
        report = tmp_path / "report.json"
        assert run(["simulate", "--data", str(full_year), "--controller", "rule-based",
                    "--train-months", "1", "--planning-soc", "contract-end",
                    "--out", str(report)]) == 0
        assert json.loads(report.read_text())["hours"] == 31 * 24

    def test_compare_emits_tables(self, small_year, tmp_path):
        out = tmp_path / "cmp"
        assert run(["compare", "--data", str(small_year),
                    "--controllers", "rule-based,mpc-perfect", "--days", "2",
                    "--out", str(out)]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 3  # header + 2 controllers
        daywise = (out / "daywise.csv").read_text().splitlines()
        assert daywise[0] == "day,rule-based,mpc-perfect"
        assert len(daywise) == 3  # header + 2 days
        assert (out / "trace_rule-based.csv").exists()
        assert (out / "trace_mpc-perfect.csv").exists()
        assert (out / "commitment.json").exists()
        rows = {r["controller"]: r for r in csv.DictReader(summary)}
        assert float(rows["mpc-perfect"]["gap_to_perfect_pct"]) == 0.0
        assert float(rows["rule-based"]["gap_to_perfect_pct"]) > 0.0

    def test_single_controller_compare(self, small_year, tmp_path):
        out = tmp_path / "cmp1"
        assert run(["compare", "--data", str(small_year),
                    "--controllers", "rule-based", "--days", "1",
                    "--out", str(out)]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 2
        # no mpc-perfect report, so no gap to it
        assert next(csv.DictReader(summary))["gap_to_perfect_pct"] == ""

    def test_drl_without_weights_fails(self, small_year, tmp_path, capsys):
        # a usage error, found before any input is read: a missing data file
        # does not hide it
        for data in (small_year, tmp_path / "missing.csv"):
            for argv in (["simulate", "--controller", "drl"],
                         ["compare", "--controllers", "rule-based,drl",
                          "--out", str(tmp_path / "cmp")]):
                with pytest.raises(SystemExit) as exc_info:
                    run([*argv, "--data", str(data), "--days", "1"])
                assert exc_info.value.code == 1
                assert "the drl controller needs --weights" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_malformed_weight_file_names_the_missing_key(self, small_year, tmp_path,
                                                         capsys):
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"format_version": 2, "layer_sizes": [6, 2]}))
        assert run(["simulate", "--data", str(small_year), "--controller", "drl",
                    "--weights", str(weights), "--days", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(weights) in err and "'weights'" in err

    @pytest.mark.parametrize("payload, says", [
        ([1, 2, 3], "JSON list"),
        # the version-1 layout, with its observation scales and fingerprint
        ({"format_version": 1, "weights": [], "biases": [], "layer_sizes": [],
          "normalization": {"load_scale_kw": 1.0}, "config_fingerprint": ""},
         "unsupported weight format 1"),
    ])
    def test_malformed_weight_file_is_an_error_line(self, small_year, tmp_path, capsys,
                                                    payload, says):
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps(payload))
        assert run(["simulate", "--data", str(small_year), "--controller", "drl",
                    "--weights", str(weights), "--days", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {weights}: ")
        assert says in err

    @pytest.mark.parametrize("sizes, inputs, outputs", [
        ([6, 16, 10], 6, 10),   # reaches only the lowest 10 of the 40 power levels
        ([6, 16, 60], 6, 60),   # an argmax past 39 aborts the run midway
        ([5, 16, 40], 5, 40),   # refuses the 6-entry observation
    ], ids=["10-outputs", "60-outputs", "5-inputs"])
    def test_weight_file_of_the_wrong_sizes_is_an_error_line(
            self, small_year, tmp_path, capsys, sizes, inputs, outputs):
        weights = tmp_path / "w.json"
        MlpNetwork.initialize(sizes, np.random.default_rng(0)).save(weights)
        out = tmp_path / "cmp"
        assert run(["compare", "--data", str(small_year), "--controllers", "drl",
                    "--weights", str(weights), "--days", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {weights}: the network maps {inputs} inputs to {outputs} "
            f"actions; the controller needs 6 to 40\n")
        assert not out.exists()

    def test_bad_planning_soc_is_usage_error(self, small_year, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(["simulate", "--data", str(small_year), "--controller", "rule-based",
                 "--planning-soc", "foo"])
        assert exc_info.value.code == 1
        assert "--planning-soc" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, line", [
        ([], "carry-over mode: gap % is not a bound"),
        (["--reset-soc", "12500"],
         "reset mode: SOC 12500 kWh, generator off at each midnight"),
    ])
    def test_compare_names_its_soc_mode(self, small_year, tmp_path, capsys, flags, line):
        assert run(["compare", "--data", str(small_year), "--controllers", "rule-based",
                    "--days", "1", "--out", str(tmp_path / "cmp"), *flags]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            line, f"{'controller':16s} {'avg $/h':>10s} {'avg DG $/h':>11s} "
                  f"{'s/decision':>11s} {'blackout h':>10s} {'gap %':>8s}"]

    def test_compare_clean_controllers(self, small_year, tmp_path, capsys):
        assert run(["compare", "--data", str(small_year),
                    "--controllers", "rule-based,mpc-perfect", "--days", "1",
                    "--out", str(tmp_path / "cmp")]) == 0
        assert capsys.readouterr().err == ""

    def test_compare_without_controllers_is_an_error(self, small_year, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(["compare", "--data", str(small_year), "--controllers", " , ",
                 "--out", str(tmp_path / "cmp")])
        assert exc_info.value.code == 1
        assert "argument --controllers: expected comma-separated kinds" in \
            capsys.readouterr().err

    def test_validate_subcommand_is_gone(self, small_year, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(["validate", "--data", str(small_year), "--controllers", "rule-based"])
        assert exc_info.value.code == 1

    @pytest.mark.parametrize("argv", [
        "simulate --data {data} --controller rule-based --days 1",
        "compare --data {data} --controllers rule-based --days 1 --out {out}",
    ])
    def test_a_broken_trajectory_exits_3(self, small_year, tmp_path, capsys,
                                         monkeypatch, argv):
        real_step = controllers.step_plant

        def drifting_step(*step_args):
            outcome = real_step(*step_args)
            return dataclasses.replace(outcome, soc_kwh=outcome.soc_kwh + 1.0)

        monkeypatch.setattr(controllers, "step_plant", drifting_step)
        assert run(argv.format(data=small_year, out=tmp_path / "cmp").split()) == 3
        err = capsys.readouterr().err
        assert "rule-based: 24 constraint violations" in err
        assert "soc-recursion" in err

    @pytest.mark.parametrize("argv", [
        "simulate --data {data} --controller rule-based --days 1",
        "compare --data {data} --controllers rule-based --days 1 --out {out}",
    ])
    def test_blackouts_are_reported_not_violations(self, small_year, tmp_path, capsys,
                                                   monkeypatch, argv):
        class Idle:
            kind = "idle"

            def decide(self, state, day, commitment, tariff, config):
                return DispatchSetpoint()

        monkeypatch.setattr(cli, "_build_controller", lambda *_: Idle())
        out = tmp_path / "cmp"
        assert run(argv.format(data=small_year, out=out).split()) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if argv.startswith("simulate"):
            blackouts = int(captured.out.rsplit("blackouts ", 1)[1])
        else:
            blackouts = int(next(csv.DictReader(
                (out / "summary.csv").read_text().splitlines()))["blackout_count"])
        assert blackouts > 0

    @pytest.mark.parametrize("argv, flag", [
        ("simulate --data {data} --controller rule-based --initial-soc 99999",
         "--initial-soc 99999.0"),
        ("compare --data {data} --controllers rule-based --reset-soc 100 --out {out}",
         "--reset-soc 100.0"),
        ("compare --data {data} --controllers rule-based --planning-soc 25000.5 "
         "--out {out}", "--planning-soc 25000.5"),
        ("day-ahead --data {data} --soc -5 --out {out}", "--soc -5.0"),
    ])
    def test_soc_flag_outside_the_ess_bounds_is_named(self, small_year, tmp_path, capsys,
                                                      monkeypatch, argv, flag):
        def no_solve(*_, **__):
            raise AssertionError("solved before checking the SOC flags")

        monkeypatch.setattr(cli, "solve_day_ahead", no_solve)
        monkeypatch.setattr(cli, "compare_controllers", no_solve)
        out = tmp_path / "out"
        assert run(argv.format(data=small_year, out=out).split()) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} outside the ESS bounds [2500, 25000]\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "generate --days 0 -o {out}",
        "simulate --data {data} --controller rule-based --days -2",
        "compare --data {data} --controllers rule-based --days 0 --out {out}",
        "compare --data {data} --controllers rule-based --days -2 --out {out}",
    ])
    def test_days_must_be_positive(self, small_year, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc_info:
            run(argv.format(data=small_year, out=out).split())
        assert exc_info.value.code == 1
        assert "--days" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("months", ["0", "12", "-3"])
    @pytest.mark.parametrize("argv", [
        "day-ahead --data {data} --out {out}",
        "train-drl --data {data} --out {out} --curve {out}.csv",
        "simulate --data {data} --controller rule-based",
        "compare --data {data} --controllers rule-based --out {out}",
    ])
    def test_train_months_outside_1_to_11_is_usage_error(self, small_year, tmp_path,
                                                          capsys, argv, months):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc_info:
            run(argv.format(data=small_year, out=out).split() + ["--train-months", months])
        assert exc_info.value.code == 1
        assert "--train-months" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "generate --seed -1 -o {out}",
        "train-drl --data {data} --seed -1 --out {out} --curve {out}.csv",
        "simulate --data {data} --controller mpc-stochastic --seed -3 --out {out}",
        "simulate --data {data} --controller mpc-forecast --seed -3 --out {out}",
        "compare --data {data} --controllers rule-based --seed -1 --out {out}",
        "compare --data {data} --controllers rule-based --seed x1 --out {out}",
    ])
    def test_seed_must_be_a_nonnegative_integer(self, small_year, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc_info:
            run(argv.format(data=small_year, out=out).split())
        assert exc_info.value.code == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_controller_rejected(self, small_year, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            run(["compare", "--data", str(small_year),
                 "--controllers", "telepathy", "--days", "1",
                 "--out", str(tmp_path / "x")])
        assert exc_info.value.code == 1

    @pytest.mark.parametrize("kinds", ["foo", "rule-based,foo"])
    def test_bad_controllers_fail_before_reading_data(self, tmp_path, capsys, kinds):
        with pytest.raises(SystemExit) as exc_info:
            run(["compare", "--data", str(tmp_path / "missing.csv"), "--controllers", kinds,
                 "--out", str(tmp_path / "x")])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert "argument --controllers: expected comma-separated kinds" in err
        assert repr(kinds) in err
