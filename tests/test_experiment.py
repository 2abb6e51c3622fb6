"""Replication aggregation, CSV format, determinism, report schema."""

from __future__ import annotations

import hashlib
import os

import pytest

from kinsim import (
    AtomicSpec,
    CoupledSpec,
    ExperimentResult,
    Message,
    ModelConfig,
    ReportRow,
    build_consanguinity_model,
    csv_text,
    export_csv,
    read_csv,
    run_experiment,
)
from kinsim.errors import ConfigurationError, SimulationError


def small_config(**overrides) -> ModelConfig:
    config = ModelConfig.default()
    config.run_length = 300.0
    config.replications = 3
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def failing_builder(config, replication):
    """A generator whose time advance turns negative at its third event."""

    def dint(s):
        s["n"] += 1
        return s

    return CoupledSpec(components={"gen": AtomicSpec(
        initial_state={"n": 0},
        time_advance=lambda s: 1.0 if s["n"] < 3 else -1.0,
        delta_int=dint,
        delta_ext=lambda s, e, xs: s,
        output=lambda s: [Message("out", s["n"])],
        output_ports=("out",),
    )})


@pytest.fixture(scope="module")
def small_result():
    return run_experiment(small_config())


class TestRunExperiment:
    def test_single_replication_mean_equals_total(self):
        result = run_experiment(small_config(replications=1))
        by_key = {}
        for row in result.rows:
            by_key.setdefault((row.object_name, row.data_source), {})[row.statistic] = row.value
        for stats in by_key.values():
            assert stats["Mean"] == stats["Total"]
            assert stats["Min"] == stats["Max"] == stats["Total"]

    def test_total_is_sum_of_replication_values(self, small_result):
        for row in small_result.rows:
            if row.statistic != "Total":
                continue
            per_rep = [
                value
                for stats in small_result.per_replication
                for name, source, _, value in stats.rows
                if (name, source) == (row.object_name, row.data_source)
            ]
            assert len(per_rep) == 3
            assert row.value == sum(per_rep)

    def test_mean_is_quantized_total_over_n(self, small_result):
        for row in small_result.rows:
            if row.statistic != "Mean":
                continue
            total = small_result.row_value(row.object_name, row.data_source, "Total")
            assert row.value == float(format(total / 3, ".6g"))

    def test_min_max_bracket_mean(self, small_result):
        for row in small_result.rows:
            if row.statistic != "Mean":
                continue
            low = small_result.row_value(row.object_name, row.data_source, "Min")
            high = small_result.row_value(row.object_name, row.data_source, "Max")
            assert low <= row.value <= high

    def test_dynamic_object_rows_present(self, small_result):
        for label in ("Child_C", "Child_NC", "MP", "FP"):
            assert small_result.row_value(label, "[Dynamic Object]", "Total") > 0

    def test_category_vocabulary(self, small_result):
        assert {row.category for row in small_result.rows} == {"Throughput", "Content"}
        by_source = {row.data_source: row.category for row in small_result.rows}
        assert by_source["[Dynamic Object]"] == "Throughput"
        assert by_source["[Processed]"] == "Throughput"
        assert by_source["[Travelers]"] == "Throughput"
        assert by_source["[ParentInputBuffer]"] == "Content"

    def test_server_chain_monotone_per_replication(self, small_result):
        for stats in small_result.per_replication:
            for server in ("PopulationG_C", "PopulationG_NC"):
                entered = stats.value(server, "[InputBuffer]")
                processed = stats.value(server, "[Processed]")
                exited = stats.value(server, "[OutputBuffer]")
                assert entered >= processed >= exited

    def test_metadata_echoes_config(self, small_result):
        assert small_result.metadata["base_seed"] == 42
        assert small_result.metadata["replications"] == 3
        assert small_result.metadata["config"]["run_length"] == 300.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment(small_config(replications=0))

    def test_kernel_failure_reports_replication_index(self):
        from kinsim import AtomicSpec, CoupledSpec, Coupling, INFINITY, Message
        from kinsim.errors import SimulationError

        def relay(hot):
            return AtomicSpec(
                initial_state={"hot": hot},
                time_advance=lambda s: 0.0 if s["hot"] else INFINITY,
                delta_int=lambda s: s,
                delta_ext=lambda s, e, xs: (s.__setitem__("hot", True), s)[1],
                output=lambda s: [Message("out", None)],
                input_ports=("in",),
                output_ports=("out",),
            )

        def looping_builder(config, replication):
            return CoupledSpec(
                components={"a": relay(True), "b": relay(False)},
                couplings=[Coupling("a", "out", "b", "in"), Coupling("b", "out", "a", "in")],
            )

        with pytest.raises(SimulationError, match="replication 0"):
            run_experiment(small_config(replications=1), builder=looping_builder)

    def test_trace_path_writes_replication_zero_trace(self, tmp_path):
        trace_file = tmp_path / "events.tsv"
        run_experiment(small_config(run_length=20.0, replications=2), trace_path=str(trace_file))
        lines = trace_file.read_text(encoding="utf-8").splitlines()
        assert lines
        assert all(len(line.split("\t")) == 5 for line in lines)


class TestTraceFile:
    def test_trace_bytes_pinned(self, tmp_path):
        # the first line shows WP#0 under the FP label, and on the FP_C port,
        # that WP's route gave it as it emitted it
        config = ModelConfig.default()
        config.replications = 2
        config.run_length = 2000.0
        path = tmp_path / "events.tsv"
        run_experiment(config, trace_path=str(path))
        data = path.read_bytes()
        assert data.startswith(b"1\tWP\tinternal\tFP_C\tFP#0\n")
        assert data.count(b"\n") == 10812
        assert hashlib.sha256(data).hexdigest() == (
            "c7b75ffc90084bd22c584e6a07e98eced15c33c3cfb1c3ff2216f70682585458"
        )

    def test_wp_port_names_the_entry_it_feeds(self, tmp_path):
        config = ModelConfig.default()
        config.replications = 1
        path = tmp_path / "events.tsv"
        run_experiment(config, trace_path=str(path))
        lines = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
        entry = {"MP": "member_in", "FP": "parent_in"}
        combiner = {"C": "Marriage_C", "NC": "Marriage_NC"}
        routed = 0
        for (_, component, phase, port, payload), following in zip(lines, lines[1:]):
            if (component, phase) != ("WP", "internal"):
                continue
            sex, _, branch = port.partition("_")
            assert following[1:] == [combiner.get(branch), "external", entry.get(sex), payload]
            assert payload.startswith(f"{sex}#")
            routed += 1
        assert routed == 2000

    def test_failed_run_leaves_the_events_before_the_failure(self, tmp_path):
        path = tmp_path / "events.tsv"
        with pytest.raises(SimulationError, match="replication 0") as excinfo:
            run_experiment(small_config(replications=2), builder=failing_builder,
                           trace_path=str(path))
        # excinfo keeps the failing frames alive, so the text below is only
        # all there if run_experiment closed the file itself
        assert "time advance returned -1.0" in str(excinfo.value)
        assert path.read_text(encoding="utf-8") == (
            "1\tgen\tinternal\tout\t0\n"
            "2\tgen\tinternal\tout\t1\n"
        )


class TestDeterminism:
    def test_same_config_same_bytes(self):
        first = csv_text(run_experiment(small_config()))
        second = csv_text(run_experiment(small_config()))
        assert first == second

    def test_packaged_report_bytes_pinned(self):
        # SHA-256 of the packaged config's report at its own seed (42)
        text = csv_text(run_experiment(ModelConfig.default()))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "e3da48f63c2a878814b1577bf96b246372fc5ef5f71430835bf23651c85d0dc4"
        )

    def test_seed_changes_some_stochastic_row(self):
        base = csv_text(run_experiment(small_config()))
        other = csv_text(run_experiment(small_config(base_seed=7)))
        assert base != other


class TestCsv:
    def test_empty_result_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_csv(ExperimentResult(rows=[], per_replication=[]), str(path))
        assert path.read_bytes() == b"object_name,data_source,category,statistic,value\n"

    def test_single_row_exact_bytes(self, tmp_path):
        path = tmp_path / "one.csv"
        row = ReportRow("Marriage_C", "[Processed]", "Throughput", "Total", 74.0)
        export_csv(ExperimentResult(rows=[row], per_replication=[]), str(path))
        assert path.read_bytes() == (
            b"object_name,data_source,category,statistic,value\n"
            b"Marriage_C,[Processed],Throughput,Total,74\n"
        )

    def test_rows_sorted_by_object_source_statistic(self, small_result, tmp_path):
        path = tmp_path / "report.csv"
        export_csv(small_result, str(path))
        rows = read_csv(str(path))
        keys = [(r.object_name, r.data_source, r.statistic) for r in rows]
        assert keys == sorted(keys)

    def test_round_trip_reproduces_rows_exactly(self, small_result, tmp_path):
        path = tmp_path / "report.csv"
        export_csv(small_result, str(path))
        parsed = read_csv(str(path))
        original = sorted(
            small_result.rows, key=lambda r: (r.object_name, r.data_source, r.statistic)
        )
        assert parsed == original

    def test_lf_line_endings_and_utf8(self, small_result, tmp_path):
        path = tmp_path / "report.csv"
        export_csv(small_result, str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        raw.decode("utf-8")

    def test_integral_values_have_no_decimal_point(self, small_result, tmp_path):
        path = tmp_path / "report.csv"
        export_csv(small_result, str(path))
        for line in path.read_text().splitlines()[1:]:
            value = line.rsplit(",", 1)[1]
            if "." in value:
                assert float(value) != int(float(value))

    def test_six_significant_digits(self):
        row = ReportRow("X", "[Processed]", "Throughput", "Mean", 1234.5678)
        text = csv_text(ExperimentResult(rows=[row], per_replication=[]))
        assert text.splitlines()[1].endswith("1234.57")


def birth_heavy_config() -> ModelConfig:
    """Exponential arrivals, even splits and many children per marriage."""
    config = small_config(run_length=1000.0, replications=5)
    config.sources["WP"].interarrival = {"type": "exponential", "mean": 1.0}
    config.sex_split = (0.5, 0.5)
    config.routing_weights = {
        sex: {"consanguineous": 50.0, "non_consanguineous": 50.0} for sex in ("male", "female")
    }
    config.offspring_distribution = {
        "type": "discrete",
        "pairs": [[3, 0.10], [4, 0.25], [5, 0.45], [6, 0.65], [7, 0.80], [8, 0.90], [9, 0.97], [10, 1.00]],
    }
    config.allele_frequency = 0.05
    return config


def replication_facts(result):
    return [
        (stats.rows, stats.created_total, stats.destroyed_individuals, stats.held_individuals,
         stats.affected_by_class)
        for stats in result.per_replication
    ]


class TestJobs:
    @pytest.mark.parametrize("make_config", [ModelConfig.default, birth_heavy_config],
                             ids=["packaged", "birth_heavy"])
    def test_jobs_do_not_change_the_report(self, make_config):
        results = [run_experiment(make_config(), jobs=jobs) for jobs in (1, 2, 7)]
        texts = {csv_text(result) for result in results}
        assert len(texts) == 1
        facts = [replication_facts(result) for result in results]
        assert facts[0] == facts[1] == facts[2]

    def test_closure_builder_runs_in_workers(self):
        built = []

        def builder(config, replication):
            built.append(replication)
            return build_consanguinity_model(config, replication)

        pooled = run_experiment(small_config(), builder=builder, jobs=2)
        # the workers build every replication; this process builds none
        assert built == []
        assert csv_text(pooled) == csv_text(run_experiment(small_config(), jobs=1))

    def test_lowest_failing_replication_is_reported(self):
        def odd_failing_builder(config, replication):
            if replication % 2:
                return failing_builder(config, replication)
            return build_consanguinity_model(config, replication)

        with pytest.raises(SimulationError, match="^replication 1: "):
            run_experiment(small_config(replications=4), builder=odd_failing_builder, jobs=2)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker processes without fork")
    def test_dead_worker_is_a_simulation_error(self):
        parent = os.getpid()

        def dying_builder(config, replication):
            if os.getpid() == parent:
                raise AssertionError("the replication ran in the calling process")
            os._exit(3)

        with pytest.raises(SimulationError, match="worker died"):
            run_experiment(small_config(replications=2), builder=dying_builder, jobs=2)

    def test_zero_jobs_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            run_experiment(small_config(), jobs=0)
