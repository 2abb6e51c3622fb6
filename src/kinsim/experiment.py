"""Replication control, report aggregation, and CSV export.

A report is a flat table of (object name, data source, category, statistic,
value) rows.  Each replication contributes one integer total per
(object, data source) pair; the aggregate carries four statistic rows per
pair: Total (sum across replications), Mean, Min and Max.  Mean values are
quantized to six significant digits at aggregation time so that the written
CSV reproduces every row exactly when parsed back.

Reports are byte-deterministic for a fixed config and seed: replications use
independent derived streams, aggregation reduces in replication order, and
no timestamp enters the CSV (run metadata stays on the result object).

A run can also write replication 0's event trace.  The kernel streams it to
the file as the run goes, so memory stays flat however long the horizon.

Replications run in a pool of worker processes, one replication per worker
at a time, started with the ``fork`` method so the config, the builder and
the trace path are inherited rather than pickled (closure builders work).
Each worker returns its :class:`~kinsim.model.RunStats`; the parent reduces
them in replication order, so the report and the trace are byte-identical
to an in-process run.  With one job, or where ``fork`` is not available,
the replications run in process, one after another.  When replications
fail, the lowest failing one's error is raised.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import io
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TextIO

from . import __version__
from .errors import ConfigurationError, SimulationError
from .kernel import initialize
from .model import (
    ModelConfig,
    RunStats,
    _require_valid,
    build_consanguinity_model,
    collect_run_stats,
)

CSV_HEADER = ("object_name", "data_source", "category", "statistic", "value")
STATISTICS = ("Total", "Mean", "Min", "Max")


@dataclass(frozen=True)
class ReportRow:
    """One aggregated statistic; (object, source, statistic) is unique per report."""

    object_name: str
    data_source: str
    category: str
    statistic: str
    value: float


@dataclass
class ExperimentResult:
    """Aggregated rows plus the raw per-replication statistics and run metadata."""

    rows: list[ReportRow]
    per_replication: list[RunStats]
    metadata: dict = field(default_factory=dict)

    def row_value(self, object_name: str, data_source: str, statistic: str) -> float:
        for row in self.rows:
            if (row.object_name, row.data_source, row.statistic) == (
                object_name, data_source, statistic,
            ):
                return row.value
        raise KeyError((object_name, data_source, statistic))


def _quantize(value: float) -> float:
    """Round to six significant digits, the precision the CSV carries."""
    return float(format(value, ".6g"))


def run_experiment(
    config: ModelConfig,
    *,
    builder: Callable[[ModelConfig, int], object] = build_consanguinity_model,
    trace_path: Optional[str] = None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Run the configured replications and aggregate their statistics.

    Replication ``r`` builds a fresh model seeded from (base_seed, r) and
    runs it to ``run_length``.  Kernel failures are re-raised with the
    replication index attached.  ``trace_path``, when given, receives the
    event trace of replication 0, written event by event as the run goes
    (see :func:`~kinsim.kernel.initialize` for the format), so the trace
    costs no memory.  The file is closed when replication 0 ends; if the
    run fails, it holds the events up to the failure.

    ``jobs`` is the number of worker processes; ``None`` means the usable
    CPUs.  It is capped at ``config.replications``.  Workers are forked, so
    ``builder`` need not be picklable.  With one job, or on a platform
    without the ``fork`` start method, the replications run in this
    process.  Either way the result is the same: when several replications
    fail, the lowest failing one's :class:`SimulationError` is raised, and a
    worker that dies raises a :class:`SimulationError` too.
    """
    _require_valid(config)
    jobs = _resolve_jobs(jobs, config.replications)
    if jobs == 1 or not hasattr(os, "fork"):
        per_replication = [
            _replicate(config, builder, trace_path, r) for r in range(config.replications)
        ]
    else:
        per_replication = _replicate_in_pool(config, builder, trace_path, jobs)
    rows = _aggregate(per_replication)
    metadata = {
        "config": config.to_dict(),
        "base_seed": config.base_seed,
        "replications": config.replications,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    }
    return ExperimentResult(rows=rows, per_replication=per_replication, metadata=metadata)


def _replicate(
    config: ModelConfig,
    builder: Callable[[ModelConfig, int], object],
    trace_path: Optional[str],
    r: int,
) -> RunStats:
    """Build, run and harvest replication ``r``; only replication 0 is traced."""
    spec = builder(config, r)
    if trace_path is not None and r == 0:
        trace = open(trace_path, "w", encoding="utf-8", newline="")
    else:
        trace = contextlib.nullcontext()
    with trace as trace_file:
        handle = initialize(spec, 0.0, trace_file=trace_file)
        try:
            handle.run_until(config.run_length)
        except SimulationError as exc:
            raise SimulationError(f"replication {r}: {exc}") from exc
    return collect_run_stats(handle)


def _resolve_jobs(jobs: Optional[int], replications: int) -> int:
    """The worker count to use: ``jobs`` or the usable CPUs, at most ``replications``."""
    if jobs is None:
        if hasattr(os, "sched_getaffinity"):
            jobs = len(os.sched_getaffinity(0))
        else:
            jobs = os.cpu_count() or 1
    elif jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, replications)


# (config, builder, trace_path), set by the pool's initializer inside each
# forked worker; the calling process never writes it.
_worker_args: tuple = ()


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _replicate_in_worker(r: int) -> RunStats:
    return _replicate(*_worker_args, r)


def _replicate_in_pool(
    config: ModelConfig,
    builder: Callable[[ModelConfig, int], object],
    trace_path: Optional[str],
    jobs: int,
) -> list[RunStats]:
    # Imported here, not at the top: loading them costs 30-55 ms, which every
    # one-replication run and every `import kinsim` would otherwise pay.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(
            jobs,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(config, builder, trace_path),
        ) as pool:
            # map yields in replication order, so the first error raised is
            # that of the lowest failing replication.
            return list(pool.map(_replicate_in_worker, range(config.replications)))
    except BrokenProcessPool as exc:
        raise SimulationError(f"a replication worker died: {exc}") from exc


def _aggregate(per_replication: Sequence[RunStats]) -> list[ReportRow]:
    n = len(per_replication)
    values: dict[tuple[str, str], list[int]] = {}
    categories: dict[tuple[str, str], str] = {}
    for stats in per_replication:
        for object_name, data_source, category, value in stats.rows:
            key = (object_name, data_source)
            values.setdefault(key, []).append(value)
            categories[key] = category
    rows: list[ReportRow] = []
    for key in sorted(values):
        object_name, data_source = key
        samples = values[key]
        total = sum(samples)
        per_stat = {
            "Total": float(total),
            "Mean": _quantize(total / n),
            "Min": float(min(samples)),
            "Max": float(max(samples)),
        }
        for statistic in sorted(STATISTICS):
            rows.append(ReportRow(object_name, data_source, categories[key], statistic, per_stat[statistic]))
    return rows


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return format(value, ".6g")


def _write_rows(rows: Sequence[ReportRow], fh: TextIO) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    ordered = sorted(rows, key=lambda r: (r.object_name, r.data_source, r.statistic))
    for row in ordered:
        writer.writerow(
            (row.object_name, row.data_source, row.category, row.statistic, _format_value(row.value))
        )


def export_csv(result: ExperimentResult, path: str) -> None:
    """Write the report as UTF-8 CSV with LF line endings.

    Rows are sorted by (object name, data source, statistic); integral
    values carry no decimal point and the rest at most six significant
    digits, so repeated exports of the same result are byte-identical.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_rows(result.rows, fh)


def csv_text(result: ExperimentResult) -> str:
    """The exact text :func:`export_csv` would write."""
    buffer = io.StringIO()
    _write_rows(result.rows, buffer)
    return buffer.getvalue()


def read_csv(path: str) -> list[ReportRow]:
    """Parse a report CSV back into rows (inverse of :func:`export_csv`)."""
    rows: list[ReportRow] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_HEADER:
            raise ConfigurationError(f"{path}: unexpected header {header!r}")
        for record in reader:
            object_name, data_source, category, statistic, value = record
            rows.append(ReportRow(object_name, data_source, category, statistic, float(value)))
    return rows
