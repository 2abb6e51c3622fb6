"""CLI subcommands, exit codes, and output files."""

from __future__ import annotations

import json
import math

import pytest

from kinsim.cli import default_config_path, main
from kinsim.model import ModelConfig


@pytest.fixture()
def small_config_file(tmp_path):
    config = ModelConfig.default()
    config.run_length = 300.0
    config.replications = 3
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_shipped_default_config_passes(self):
        assert main(["validate"]) == 0
        assert main(["validate", "--config", default_config_path()]) == 0

    def test_violations_exit_1(self, tmp_path, capsys):
        config = ModelConfig.default().to_dict()
        config["sex_split"] = {"male": 0.7, "female": 0.7}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 1
        assert "sex_split" in capsys.readouterr().out

    def test_malformed_json_exit_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 1

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2


MALFORMED_FIELDS = [
    ("sex_split", {"sex_split": {"male": 0.5}}),
    ("replications", {"replications": "ten"}),
    ("sources", {"sources": {"WP": {"interarrival": 5}}}),
    ("routing_weights", {"routing_weights": {"male": 3}}),
    ("sources", {"sources": {"WP": {"max_arrivals": "many"}}}),
    ("replications", {"replications": 2.7}),
    ("base_seed", {"base_seed": 4.9}),
    ("run_length", {"run_length": True}),
    ("sources", {"sources": {"WP": {"max_arrivals": 3.9}}}),
    ("replication", {"replication": 3}),
    ("sources", {"sources": {"WP": {"max_arrival": 3}}}),
    ("sources", {"sources": {"wp": {"interarrival": {"type": "constant", "value": 2.0}}}}),
    ("sex_split", {"sex_split": {"male": 0.595, "female": 0.405, "males": 0.5}}),
    ("routing_weights", {"routing_weights": {
        "male": {"consanguineous": 35.7, "non_consanguineous": 65.9},
        "female": {"consanguinous": 35.7, "non_consanguineous": 64.2},
    }}),
]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("field, config", MALFORMED_FIELDS)
def test_malformed_field_is_one_line_exit_1(command, field, config, tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "never.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("invalid config: ")
    assert field in captured.out
    assert len(captured.out.splitlines()) == 1
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("run_length", math.inf),
    ("routing_weights.male.consanguineous", math.nan),
    ("sources.WP.interarrival", {"type": "constant", "value": math.nan}),
])
def test_nonfinite_number_is_a_violation_exit_1(field, value, tmp_path, capsys):
    # Each of these once validated and then hung or ran silently wrong.
    config = ModelConfig.default().to_dict()
    *parents, key = field.split(".")
    target = config
    for name in parents:
        target = target[name]
    target[key] = value
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [field]
    out = tmp_path / "never.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [field]
    assert not out.exists()


@pytest.mark.parametrize("interarrival", [
    {"type": "constant", "value": 0.0},
    {"type": "constant", "value": -1.0},
    {"type": "uniform", "low": -1.0, "high": 1.0},
    {"type": "uniform", "low": 0.0, "high": 0.0},
], ids=["constant-0", "constant-negative", "uniform-negative-low", "uniform-0"])
def test_never_positive_interarrival_exit_1(interarrival, tmp_path, capsys):
    config = ModelConfig.default().to_dict()
    config["sources"]["WP"]["interarrival"] = interarrival
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().out.startswith("sources.WP.interarrival: ")
    out = tmp_path / "never.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().out.startswith("sources.WP.interarrival: ")
    assert not out.exists()


@pytest.mark.parametrize("split", [
    {"male": 1.0, "female": 0.0},
    {"male": 0.0, "female": 1.0},
], ids=["female-0", "male-0"])
def test_zero_sex_fraction_exit_1(split, tmp_path, capsys):
    # Once validated, then failed every replication in route_select.  Both
    # fractions lie outside (0, 1), so both are named.
    config = ModelConfig.default().to_dict()
    config["sex_split"] = split
    path = tmp_path / "one_sex.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "never.csv"
    for argv in (["validate"], ["run", "--out", str(out)]):
        assert main(argv + ["--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert [line.split(":")[0] for line in captured.out.splitlines()] == [
            "sex_split.male", "sex_split.female"]
        assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


def test_config_listing_only_wp_validates(tmp_path, capsys):
    path = tmp_path / "wp_only.json"
    path.write_text(json.dumps({"sources": {"WP": {"interarrival": {"type": "constant", "value": 2.0}}}}),
                    encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "config OK\n"


class TestUsageErrors:
    def test_unknown_flag_exit_2(self, capsys):
        assert main(["run", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_subcommand_exit_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exit_2(self, capsys):
        assert main(["explode"]) == 2
        capsys.readouterr()


class TestRun:
    def test_same_seed_byte_identical_reports(self, small_config_file, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["run", "--config", small_config_file, "--seed", "42", "--out", str(out_a)]) == 0
        assert main(["run", "--config", small_config_file, "--seed", "42", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_changes_report(self, small_config_file, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["run", "--config", small_config_file, "--seed", "42", "--out", str(out_a)])
        main(["run", "--config", small_config_file, "--seed", "43", "--out", str(out_b)])
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_replications_override(self, small_config_file, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["run", "--config", small_config_file, "--replications", "1", "--out", str(out)]) == 0
        assert "1 replications" in capsys.readouterr().out

    def test_trace_file_written(self, small_config_file, tmp_path):
        out = tmp_path / "r.csv"
        trace = tmp_path / "trace.tsv"
        with open(small_config_file, encoding="utf-8") as fh:
            config = json.load(fh)
        config["run_length"] = 20.0
        fast = tmp_path / "fast.json"
        fast.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(fast), "--out", str(out), "--trace", str(trace)]) == 0
        assert trace.exists() and trace.stat().st_size > 0

    def test_jobs_do_not_change_report_or_trace_bytes(self, small_config_file, tmp_path):
        outputs = []
        for jobs in ("1", "2"):
            out, trace = tmp_path / f"r{jobs}.csv", tmp_path / f"t{jobs}.tsv"
            assert main(["run", "--config", small_config_file, "--jobs", jobs,
                         "--out", str(out), "--trace", str(trace)]) == 0
            outputs.append((out.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1]

    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_jobs_must_be_a_positive_integer_exit_2(self, jobs, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["run", "--jobs", jobs, "--out", str(out)]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_config_exit_1(self, tmp_path):
        config = ModelConfig.default().to_dict()
        config["replications"] = 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == 2


class TestDemo:
    def test_demo_prints_mean_children_near_2_12(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "children per marriage" in out
        value = float(out.split("children per marriage:")[1].split()[0])
        assert abs(value - 2.12) < 0.05
        assert "conservation" in out


class TestConsoleScript:
    def test_installed_entry_point(self, small_config_file, tmp_path):
        import shutil
        import subprocess

        exe = shutil.which("kinsim")
        if exe is None:
            pytest.skip("console script not installed")
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [exe, "run", "--config", small_config_file, "--replications", "1", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_text(encoding="utf-8").startswith("object_name,data_source,")
