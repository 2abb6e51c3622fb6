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

A run can also write replication 0's event trace.  The kernel writes it to
the file in batches of bounded size as the run goes, so memory stays flat
however long the horizon.

Replications run in worker processes forked straight from the caller, so
the config, the builder and the trace path are inherited rather than
pickled (closure builders work).  The split is static: with N workers,
worker k runs replications k, k + N, k + 2N, ... in order, since the
replications of one config cost about the same.  Each worker sends its
:class:`~kinsim.model.RunStats`, or the error that stopped it, back as one
pickle down its own pipe; the parent reads the pipes in worker order and
reduces the results in replication order, so the report and the trace are
byte-identical to an in-process run.  With one job, or where ``fork`` is
not available, the replications run in process, one after another.  When
replications fail or a worker dies, the first dead worker or the lowest
failure decides, and the workers whose replications all lie above a
failure already read are killed rather than left to run them.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import io
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, NoReturn, Optional, Sequence, TextIO

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
    event trace of replication 0, written in batches of bounded size as the
    run goes (see :func:`~kinsim.kernel.initialize` for the format and the
    batches), so the trace's memory does not grow with the horizon.  The
    file is closed when replication 0 ends; if the run fails, it holds
    every event before the failure.

    ``jobs`` is the number of worker processes; ``None`` means the usable
    CPUs.  It is capped at ``config.replications``.  Workers are forked
    directly, worker k running replications k, k + jobs, ... and sending
    its results back through a pipe, so ``builder`` need not be picklable.
    With one job, or on a platform without ``fork``, the replications run
    in this process.  Either way the result is the same: when several
    replications fail, the lowest failing one's exception is raised, and a
    worker that dies raises a :class:`SimulationError`.
    """
    _require_valid(config)
    jobs = _resolve_jobs(jobs, config.replications)
    if jobs == 1 or not hasattr(os, "fork"):
        per_replication = [
            _replicate(config, builder, trace_path, r) for r in range(config.replications)
        ]
    else:
        per_replication = _replicate_in_workers(config, builder, trace_path, jobs)
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
    """Build, run and harvest replication ``r``; only replication 0 is traced.

    The trace is the one file a run writes.  An :class:`OSError` from
    writing or closing it names no file, so it is raised again with
    ``trace_path`` as its filename, as an error from opening it is.
    """
    spec = builder(config, r)
    traced = trace_path is not None and r == 0
    trace = open(trace_path, "w", encoding="utf-8", newline="") if traced else contextlib.nullcontext()
    try:
        with trace as trace_file:
            handle = initialize(spec, 0.0, trace_file=trace_file)
            try:
                handle.run_until(config.run_length)
            except SimulationError as exc:
                raise SimulationError(f"replication {r}: {exc}") from exc
    except OSError as exc:
        if not traced or exc.filename is not None:
            raise
        raise OSError(exc.errno, exc.strerror, trace_path) from exc
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


def _replicate_in_workers(
    config: ModelConfig,
    builder: Callable[[ModelConfig, int], object],
    trace_path: Optional[str],
    jobs: int,
) -> list[RunStats]:
    """Run the replications in ``jobs`` forked children, worker k taking
    replications k, k + jobs, k + 2 * jobs, ... in that order.

    Each child sends its outcomes back as one pickle down its own pipe.
    The pipes are read in worker order, and the first dead worker or the
    lowest failure decides: every replication of a worker above k lies
    above k, so a dead worker k outranks any failure read after it, and a
    failure at replication r outranks every worker above r.  A child that
    exits non-zero, or whose pickle is empty or truncated, raises
    :class:`SimulationError` at once.  Once a child reports a failure at r,
    the children above r are killed and left unread, and the lowest failing
    replication's exception is raised as the child raised it.
    """
    # Imported here, not at the top: `import kinsim` and one-job runs do
    # without them.
    import pickle
    import signal

    # A child inherits the parent's unwritten buffers and would write them
    # out a second time.
    _flush_standard_streams()
    pids: dict[int, int] = {}  # worker -> pid, for the children not yet reaped
    read_fds: dict[int, int] = {}  # worker -> the read end of its pipe, while open
    outcomes: dict[int, object] = {}
    lowest_failure = config.replications  # none yet
    try:
        for k in range(jobs):
            read_fd, write_fd = os.pipe()
            read_fds[k] = read_fd
            try:
                pid = os.fork()
                if pid == 0:
                    _work(config, builder, trace_path, range(k, config.replications, jobs), write_fd)
            finally:
                os.close(write_fd)
            pids[k] = pid
        for k in range(jobs):
            if k > lowest_failure:
                break
            with open(read_fds.pop(k), "rb") as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(k), 0)[1])
            if code:
                how = f"exit code {code}" if code > 0 else f"signal {-code}"
                raise SimulationError(f"a replication worker died ({how})")
            try:
                sent = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise SimulationError(
                    f"a replication worker died: its result was cut short ({exc})"
                ) from None
            outcomes.update(sent)
            r, last = sent[-1]  # a worker stops at its first failure
            if isinstance(last, BaseException) and r < lowest_failure:
                lowest_failure = r
                for j in pids:  # not reaped yet, so each pid is still its own
                    if j > r:
                        os.kill(pids[j], signal.SIGKILL)
    finally:
        for read_fd in read_fds.values():
            os.close(read_fd)
        for pid in pids.values():  # left unread above a failure, or this call stopped early
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    if lowest_failure < config.replications:
        raise outcomes[lowest_failure]
    return [outcomes[r] for r in range(config.replications)]


def _work(
    config: ModelConfig,
    builder: Callable[[ModelConfig, int], object],
    trace_path: Optional[str],
    replications: range,
    write_fd: int,
) -> NoReturn:
    """The body of a forked worker: run ``replications`` in order up to the
    first that raises, write ``[(r, RunStats or exception)]`` to ``write_fd``
    as one pickle and exit.  It never returns into the caller's code, so no
    ``finally`` or ``atexit`` handler of the parent's runs twice."""
    import pickle

    code = 1
    try:
        outcomes: list[tuple[int, object]] = []
        for r in replications:
            try:
                outcomes.append((r, _replicate(config, builder, trace_path, r)))
            except Exception as exc:
                outcomes.append((r, _sendable(r, exc)))
                break
        with open(write_fd, "wb") as pipe:
            pickle.dump(outcomes, pipe)
        code = 0
    finally:
        try:
            _flush_standard_streams()
        finally:
            os._exit(code)


def _sendable(r: int, exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round trip, else a
    :class:`SimulationError` naming replication ``r`` and ``exc``."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # pickling can raise anything an object's __reduce__ does
        return SimulationError(f"replication {r}: {exc!r}")
    return exc


def _flush_standard_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


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
