"""CLI subcommands, exit codes, and output files."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

from kinsim.cli import main
from kinsim.model import ModelConfig

SRC = Path(__file__).resolve().parents[1] / "src"


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
        assert main(["validate", "--config", str(SRC / "kinsim" / "data" / "default_config.json")]) == 0

    def test_packaged_config_read_when_kinsim_is_imported_from_a_zip(self, tmp_path):
        archive = tmp_path / "kinsim.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for path in sorted((SRC / "kinsim").rglob("*")):
                if path.is_file() and "__pycache__" not in path.parts:
                    zf.write(path, path.relative_to(SRC).as_posix())
        # -I -S: no PYTHONPATH, no site-packages, so the zip is the only kinsim
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c",
             "import sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import kinsim.cli\n"
             "assert kinsim.cli.__file__.startswith(sys.argv[1]), kinsim.cli.__file__\n"
             "sys.exit(kinsim.cli.main(['validate']))\n",
             str(archive)],
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "config OK\n", "")

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
    ("run_length", {"run_length": "200"}),
    ("replications", {"replications": "3"}),
    ("sex_split", {"sex_split": {"male": 0.5, "female": "0.5"}}),
    ("run_length", {"run_length": 10**400}),
    ("sex_split", {"sex_split": [0.595, 0.405]}),  # only the documented mapping is read
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
    # not numbers at all: once read as 1.0, 2 and 1
    ("sources.WP.interarrival", {"type": "constant", "value": True}),
    ("offspring_distribution", {"type": "discrete", "pairs": [["2", "1.0"]]}),
    ("offspring_distribution", {"type": "discrete", "pairs": [[True, 1.0]]}),
    # seeds outside 64 bits: once aliased 2**64 - 1 and 0
    ("base_seed", -1),
    ("base_seed", 2**64),
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
    # A zero fraction once passed validation, then failed every replication
    # at the sex pick, which needs positive weights.  Both fractions lie
    # outside (0, 1), so both are named.
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


def unreadable_config(tmp_path, name):
    """A config path that ``json.load`` cannot read."""
    path = tmp_path / name
    if name == "config.d":
        path.mkdir()
    elif name == "latin1.json":
        path.write_bytes('{"metadata": {"region": "Zürich"}}'.encode("latin-1"))
    else:  # an integer of 5 001 digits, over Python's conversion limit
        path.write_text('{"run_length": 1' + "0" * 5000 + "}", encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name, code, line", [
    ("config.d", 2, "kinsim: cannot read config: "),
    ("latin1.json", 1, "invalid config: "),
    ("long_int.json", 1, "invalid config: "),
])
def test_unreadable_config_is_one_line(command, name, code, line, tmp_path, capsys):
    out = tmp_path / "never.csv"
    argv = [command, "--config", str(unreadable_config(tmp_path, name))]
    assert main(argv + (["--out", str(out)] if command == "run" else [])) == code
    captured = capsys.readouterr()
    printed = captured.err if code == 2 else captured.out
    assert printed.startswith(line) and len(printed.splitlines()) == 1
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


class TestRemovedSubmodel:
    """The population-growth submodel, its ``demo`` command and its MP and
    FP sources were removed; what still names them is refused cleanly."""

    def test_demo_is_a_usage_error(self, capsys):
        assert main(["demo"]) == 2
        assert "invalid choice: 'demo'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("name", ["MP", "FP"])
    def test_config_naming_a_submodel_source_exits_1_with_one_line(self, tmp_path, capsys,
                                                                   command, name):
        config = ModelConfig.default().to_dict()
        config["sources"][name] = config["sources"]["WP"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "never.csv"
        extra = ["--out", str(out)] if command == "run" else []
        assert main([command, "--config", str(path), *extra]) == 1
        assert capsys.readouterr() == (
            f"invalid config: malformed sources: source {name!r} belonged to the "
            f"population-growth submodel, which was removed; only 'WP' remains\n",
            "",
        )
        assert not out.exists()


class TestConsoleScript:
    def test_installed_entry_point(self, small_config_file, tmp_path):
        import shutil

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


class TestWithoutNumpy:
    """kinsim runs with no numpy: only the tests and kinbench's oracle need it."""

    # The packaged config's report at its own seed (42), as pinned by
    # test_experiment's test_packaged_report_bytes_pinned.
    PACKAGED_SHA256 = "e3da48f63c2a878814b1577bf96b246372fc5ef5f71430835bf23651c85d0dc4"

    def python(self, code: str, *args: str) -> subprocess.CompletedProcess:
        """Run ``code`` with ``args`` in a fresh interpreter that imports kinsim from src."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_packaged_run_with_numpy_blocked(self, tmp_path):
        outs = [tmp_path / "jobs1.csv", tmp_path / "jobs2.csv"]
        proc = self.python(
            "import sys\n"
            "sys.modules['numpy'] = None  # any import of numpy now raises\n"
            "from kinsim.cli import main\n"
            "for jobs, out in zip(('1', '2'), sys.argv[1:]):\n"
            "    code = main(['run', '--seed', '42', '--jobs', jobs, '--out', out])\n"
            "    if code:\n"
            "        sys.exit(code)\n",
            *map(str, outs),
        )
        assert proc.returncode == 0, proc.stderr
        for out in outs:
            assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PACKAGED_SHA256

    def test_import_leaves_numpy_unloaded(self):
        proc = self.python("import sys, kinsim.cli; print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
