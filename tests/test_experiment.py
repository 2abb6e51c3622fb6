"""Replication aggregation, CSV format, determinism, report schema."""

from __future__ import annotations

import csv
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from _oracles import REPORT_SHA256, TRACE_SHA256, report_bytes, report_value, stat_value
from kinsim import (
    INFINITY,
    AtomicSpec,
    CoupledSpec,
    Coupling,
    ExperimentResult,
    ModelConfig,
    ReportRow,
    build_consanguinity_model,
    export_csv,
    run_experiment,
)
from kinsim.errors import (
    ConfigurationError,
    ContractViolationError,
    IllegitimateModelError,
    SimulationError,
)
from kinsim.experiment import CSV_HEADER
from kinsim.model import _FIELD_PARSERS

SRC = Path(__file__).resolve().parents[1] / "src"


def small_config(**overrides) -> ModelConfig:
    config = ModelConfig()
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
        output=lambda s: [("out", s["n"])],
        output_ports=("out",),
    )})


def relay(hot):
    """A component that, once sent a message, outputs one at every zero delay."""
    return AtomicSpec(
        initial_state={"hot": hot},
        time_advance=lambda s: 0.0 if s["hot"] else INFINITY,
        delta_int=lambda s: s,
        delta_ext=lambda s, e, xs: (s.__setitem__("hot", True), s)[1],
        output=lambda s: [("out", None)],
        input_ports=("in",),
        output_ports=("out",),
    )


def looping_builder(config, replication):
    """Two relays feeding each other: a zero-delay loop the clock never leaves."""
    return CoupledSpec(
        components={"a": relay(True), "b": relay(False)},
        couplings=[Coupling("a", "out", "b", "in"), Coupling("b", "out", "a", "in")],
    )


class TwoPartError(SimulationError):
    """A model's own kernel error whose constructor wants more than a message."""

    def __init__(self, component, why):
        super().__init__(f"{component}: {why}")


def refuse(state):
    raise TwoPartError("gen", "no room")


def generator_builder(time_advance, delta_int=lambda s: s):
    """A builder of one generator with these callbacks."""
    return lambda config, replication: CoupledSpec(components={"gen": AtomicSpec(
        initial_state=None, time_advance=time_advance, delta_int=delta_int,
        delta_ext=lambda s, e, xs: s, output=lambda s: [("out", 0)], output_ports=("out",))})


class UnpicklableError(Exception):
    """An error holding a closure, which pickle refuses."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: message


class UnloadableError(Exception):
    """An error that pickles but cannot be rebuilt: its ``args`` hold only
    the message, and its constructor wants a second argument."""

    def __init__(self, message, detail):
        super().__init__(message)
        self.detail = detail


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
            total = report_value(small_result, row.object_name, row.data_source, "Total")
            assert row.value == float(format(total / 3, ".6g"))

    def test_min_max_bracket_mean(self, small_result):
        for row in small_result.rows:
            if row.statistic != "Mean":
                continue
            low = report_value(small_result, row.object_name, row.data_source, "Min")
            high = report_value(small_result, row.object_name, row.data_source, "Max")
            assert low <= row.value <= high

    def test_dynamic_object_rows_present(self, small_result):
        for label in ("Child_C", "Child_NC", "MP", "FP"):
            assert report_value(small_result, label, "[Dynamic Object]", "Total") > 0

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
                entered = stat_value(stats, server, "[InputBuffer]")
                processed = stat_value(stats, server, "[Processed]")
                exited = stat_value(stats, server, "[OutputBuffer]")
                assert entered >= processed >= exited

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment(small_config(replications=0))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_integral_float_counts_set_in_code_run(self, jobs, tmp_path):
        # The run takes each count as its parser reads it: an int.
        expected = report_bytes(run_experiment(small_config(replications=2, base_seed=7), jobs=jobs),
                                tmp_path / "ints.csv")
        for counts in ({"replications": 2.0, "base_seed": 7}, {"replications": 2, "base_seed": 7.0}):
            result = run_experiment(small_config(**counts), jobs=jobs)
            assert report_bytes(result, tmp_path / "floats.csv") == expected, counts
        build_consanguinity_model(small_config(base_seed=7.0))  # once a TypeError in the seed mix

    def test_run_reads_each_field_once_per_check(self, monkeypatch):
        # One reading checks the run's config, and one each replication's build.
        calls = dict.fromkeys(_FIELD_PARSERS, 0)
        for name, parse in list(_FIELD_PARSERS.items()):
            def counted(value, name=name, parse=parse):
                calls[name] += 1
                return parse(value)
            monkeypatch.setitem(_FIELD_PARSERS, name, counted)
        run_experiment(small_config(replications=3), jobs=1)
        assert calls == dict.fromkeys(_FIELD_PARSERS, 4)

    def test_builder_edits_leave_the_callers_config_alone(self):
        config = small_config()
        before = config.to_dict()

        def editing_builder(checked, replication):
            checked.metadata["edited"] = replication
            checked.offspring_distribution["pairs"][:] = [[2, 1.0]]
            return build_consanguinity_model(checked, replication)
        run_experiment(config, builder=editing_builder, jobs=1)
        assert config.to_dict() == before

    def test_kernel_failure_reports_replication_index(self):
        with pytest.raises(SimulationError, match="replication 0"):
            run_experiment(small_config(replications=1), builder=looping_builder)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("builder, error, match", [
        (looping_builder, IllegitimateModelError, "^replication 0: illegitimate model"),
        (failing_builder, ContractViolationError, "^replication 0: gen: time advance returned -1.0"),
        (generator_builder(lambda s: -1.0), ContractViolationError,
         "^replication 0: gen: time advance of initial state is -1.0$"),
        (generator_builder(lambda s: 1.0, refuse), SimulationError, "^replication 0: gen: no room$"),
    ], ids=["zero-time-loop", "negative-time-advance", "negative-initial-time-advance",
            "error-wanting-two-arguments"])
    def test_kernel_failure_keeps_its_class_at_every_jobs(self, monkeypatch, jobs, builder, error,
                                                          match):
        monkeypatch.setattr("kinsim.kernel.MAX_ZERO_STEPS", 50)
        with pytest.raises(error, match=match):
            run_experiment(small_config(replications=2), builder=builder, jobs=jobs)

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
        config = ModelConfig()
        config.replications = 2
        config.run_length = 2000.0
        path = tmp_path / "events.tsv"
        run_experiment(config, trace_path=str(path))
        data = path.read_bytes()
        assert data.startswith(b"1\tWP\tinternal\tFP_C\tFP#0\n")
        assert data.count(b"\n") == 9172
        assert hashlib.sha256(data).hexdigest() == TRACE_SHA256

    def test_wp_port_names_the_entry_it_feeds(self, tmp_path):
        config = ModelConfig()
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

    def test_zero_delay_loop_writes_only_the_steps_that_ran(self, tmp_path, monkeypatch):
        # The second limit makes a long trace: 2 000 lines.
        for max_steps in (50, 1000):
            monkeypatch.setattr("kinsim.kernel.MAX_ZERO_STEPS", max_steps)
            path = tmp_path / "events.tsv"
            with pytest.raises(SimulationError, match="^replication 0: illegitimate model") as excinfo:
                run_experiment(small_config(replications=1), builder=looping_builder,
                               trace_path=str(path))
            assert isinstance(excinfo.value.__cause__, IllegitimateModelError)
            # steps 1-max_steps ran, each one internal line and one external
            # line (a stays hot and comes first in select order, so it fires
            # every step); the next step raised before it wrote any
            step = "0\ta\tinternal\tout\tNone\n0\tb\texternal\tin\tNone\n"
            assert path.read_text(encoding="utf-8") == step * max_steps


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        first = report_bytes(run_experiment(small_config()), tmp_path / "first.csv")
        second = report_bytes(run_experiment(small_config()), tmp_path / "second.csv")
        assert first == second

    def test_packaged_report_bytes_pinned(self, tmp_path):
        data = report_bytes(run_experiment(ModelConfig()), tmp_path / "report.csv")
        assert hashlib.sha256(data).hexdigest() == REPORT_SHA256

    def test_seed_changes_some_stochastic_row(self, tmp_path):
        base = report_bytes(run_experiment(small_config()), tmp_path / "base.csv")
        other = report_bytes(run_experiment(small_config(base_seed=7)), tmp_path / "other.csv")
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
        with open(path, encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))[1:]
        keys = [(object_name, data_source, statistic)
                for object_name, data_source, _, statistic, _ in records]
        assert keys == sorted(keys)

    def test_round_trip_reproduces_rows_exactly(self, small_result, tmp_path):
        path = tmp_path / "report.csv"
        export_csv(small_result, str(path))
        with open(path, encoding="utf-8", newline="") as fh:
            header, *records = csv.reader(fh)
        assert header == list(CSV_HEADER)
        parsed = [ReportRow(object_name, data_source, category, statistic, float(value))
                  for object_name, data_source, category, statistic, value in records]
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

    def test_six_significant_digits(self, tmp_path):
        row = ReportRow("X", "[Processed]", "Throughput", "Mean", 1234.5678)
        text = report_bytes(ExperimentResult(rows=[row], per_replication=[]),
                            tmp_path / "one.csv").decode("utf-8")
        assert text.splitlines()[1].endswith("1234.57")


def birth_heavy_config() -> ModelConfig:
    """Exponential arrivals, even splits and many children per marriage."""
    config = small_config(run_length=1000.0, replications=5)
    config.sources["WP"]["interarrival"] = {"type": "exponential", "mean": 1.0}
    config.sex_split = {"male": 0.5, "female": 0.5}
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
    @pytest.mark.parametrize("make_config", [ModelConfig, birth_heavy_config],
                             ids=["packaged", "birth_heavy"])
    def test_jobs_do_not_change_the_report(self, make_config, tmp_path):
        # replication 0 writes its trace in a worker at jobs 2 and 7
        results, traces = [], []
        for jobs in (1, 2, 7):
            trace = tmp_path / f"trace-{jobs}.tsv"
            results.append(run_experiment(make_config(), trace_path=str(trace), jobs=jobs))
            traces.append(trace.read_bytes())
        texts = {report_bytes(result, tmp_path / "report.csv") for result in results}
        assert len(texts) == 1
        facts = [replication_facts(result) for result in results]
        assert facts[0] == facts[1] == facts[2]
        assert traces[0] and traces[0] == traces[1] == traces[2]

    def test_closure_builder_runs_in_workers(self, tmp_path):
        built = []

        def builder(config, replication):
            built.append(replication)
            return build_consanguinity_model(config, replication)

        pooled = run_experiment(small_config(), builder=builder, jobs=2)
        # the workers build every replication; this process builds none
        assert built == []
        assert report_bytes(pooled, tmp_path / "pooled.csv") == report_bytes(
            run_experiment(small_config(), jobs=1), tmp_path / "in_process.csv")

    def test_lowest_failing_replication_is_reported(self):
        def odd_failing_builder(config, replication):
            if replication % 2:
                return failing_builder(config, replication)
            return build_consanguinity_model(config, replication)

        with pytest.raises(SimulationError, match="^replication 1: "):
            run_experiment(small_config(replications=4), builder=odd_failing_builder, jobs=2)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker processes without fork")
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_failure_stops_the_workers_above_it(self, tmp_path, jobs):
        def counting_builder(config, replication):
            (tmp_path / f"built-{replication}").touch()
            if replication == 0:
                raise ConfigurationError("no replication 0 here")
            time.sleep(0.2)
            return build_consanguinity_model(config, replication)

        with pytest.raises(ConfigurationError, match="^no replication 0 here$"):
            run_experiment(small_config(replications=20), builder=counting_builder, jobs=jobs)
        built = sorted(int(path.name.removeprefix("built-")) for path in tmp_path.iterdir())
        # the workers above worker 0 would build at least 10 more in 2 s;
        # they were killed once replication 0 had failed, and are reaped
        assert built[0] == 0 and len(built) < 10
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker processes without fork")
    # 4 replications over 2 workers: blocks 0-1 and 2-3
    @pytest.mark.parametrize("slow, failing", [(0, (0, 1)), (1, (1, 2))],
                             ids=["one-block", "two-blocks"])
    def test_lower_failure_reported_after_a_higher_one_wins(self, slow, failing):
        def builder(config, replication):
            if replication == slow:
                time.sleep(0.3)  # the higher failing replication fails first
            if replication in failing:
                raise ConfigurationError(f"no replication {replication} here")
            return build_consanguinity_model(config, replication)

        with pytest.raises(ConfigurationError, match=f"^no replication {slow} here$"):
            run_experiment(small_config(replications=4), builder=builder, jobs=2)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker processes without fork")
    def test_each_worker_runs_one_contiguous_block(self, tmp_path):
        def recording_builder(config, replication):
            with open(tmp_path / str(os.getpid()), "a", encoding="utf-8") as fh:
                fh.write(f"{replication}\n")
            return build_consanguinity_model(config, replication)

        run_experiment(small_config(replications=6), builder=recording_builder, jobs=2)
        assert str(os.getpid()) not in {path.name for path in tmp_path.iterdir()}
        # one file per worker, its replications in the order they ran
        blocks = sorted([int(r) for r in path.read_text(encoding="utf-8").split()]
                        for path in tmp_path.iterdir())
        assert blocks == [[0, 1, 2], [3, 4, 5]]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker processes without fork")
    def test_dead_worker_above_a_failure_is_ignored(self):
        def builder(config, replication):
            if replication == 1:
                os._exit(3)  # at once, before replication 0 fails
            time.sleep(0.2)
            raise ConfigurationError(f"no replication {replication} here")

        with pytest.raises(ConfigurationError, match="^no replication 0 here$"):
            run_experiment(small_config(replications=2), builder=builder, jobs=2)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker processes without fork")
    def test_dead_worker_below_a_failure_is_reported(self):
        def builder(config, replication):
            if replication == 1:
                raise ConfigurationError("no replication 1 here")  # at once
            time.sleep(0.2)
            os._exit(3)

        with pytest.raises(SimulationError, match="worker died"):
            run_experiment(small_config(replications=2), builder=builder, jobs=2)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker processes without fork")
    def test_dead_worker_is_a_simulation_error(self):
        parent = os.getpid()

        def dying_builder(config, replication):
            if os.getpid() == parent:
                raise AssertionError("the replication ran in the calling process")
            os._exit(3)

        with pytest.raises(SimulationError, match="worker died"):
            run_experiment(small_config(replications=2), builder=dying_builder, jobs=2)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker processes without fork")
    def test_worker_leaving_no_result_is_a_simulation_error(self):
        def quitting_builder(config, replication):
            os._exit(0)  # a clean exit that sends nothing

        with pytest.raises(SimulationError, match="worker died: its result was cut short"):
            run_experiment(small_config(replications=2), builder=quitting_builder, jobs=2)

    def test_uneven_split_gives_the_same_report(self, tmp_path):
        # 7 replications over 3 workers: two run 2 each, one runs 3
        results = [run_experiment(small_config(replications=7), jobs=jobs) for jobs in (1, 3)]
        assert report_bytes(results[0], tmp_path / "one.csv") == report_bytes(
            results[1], tmp_path / "three.csv")
        assert replication_facts(results[0]) == replication_facts(results[1])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_builder_error_keeps_its_type(self, jobs):
        def refusing_builder(config, replication):
            if replication == 1:
                raise ConfigurationError("no replication 1 here")
            return build_consanguinity_model(config, replication)

        with pytest.raises(ConfigurationError, match="^no replication 1 here$"):
            run_experiment(small_config(replications=4), builder=refusing_builder, jobs=jobs)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker processes without fork")
    @pytest.mark.parametrize("error", [UnpicklableError("unsendable"),
                                       UnloadableError("unsendable", "detail")],
                             ids=["unpicklable", "unloadable"])
    def test_error_that_cannot_cross_a_pipe_names_its_replication(self, error):
        def raising_builder(config, replication):
            if replication == 1:
                raise error
            return build_consanguinity_model(config, replication)

        name = type(error).__name__
        with pytest.raises(SimulationError, match=rf"^replication 1: {name}\('unsendable'\)$"):
            run_experiment(small_config(replications=2), builder=raising_builder, jobs=2)

    @pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(signal, "setitimer"),
                        reason="needs fork and interval timers")
    def test_interrupted_call_ends_its_workers(self):
        def stalling_builder(config, replication):
            time.sleep(60)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            # a forked child inherits no interval timer, so only this
            # process is interrupted
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                run_experiment(small_config(replications=2), builder=stalling_builder, jobs=2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):  # both workers are gone and reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker processes without fork")
    def test_pending_output_is_written_once(self):
        # stdout is a buffered pipe here, so what the caller printed sits in
        # its buffer when the workers fork
        code = (
            "from kinsim import ModelConfig, build_consanguinity_model, run_experiment\n"
            "config = ModelConfig()\n"
            "config.run_length = 50.0\n"
            "config.replications = 2\n"
            "def builder(config, replication):\n"
            "    print(f'built {replication}')\n"
            "    return build_consanguinity_model(config, replication)\n"
            "print('before', end='')\n"
            "run_experiment(config, builder=builder, jobs=2)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("before") and proc.stdout.count("before") == 1
        assert sorted(proc.stdout[len("before"):].splitlines()) == ["built 0", "built 1"]

    def test_zero_jobs_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            run_experiment(small_config(), jobs=0)
