"""Replication control, report aggregation, and CSV export.

A report is a flat table of (object name, data source, category, statistic,
value) rows.  Each replication contributes one integer total per
(object, data source) pair; the aggregate carries four statistic rows per
pair: Total (sum across replications), Mean, Min and Max.  Mean values are
quantized to six significant digits at aggregation time so that the CSV that
:func:`export_csv` writes reproduces every row exactly when a CSV reader
parses it back.

Reports are byte-deterministic for a fixed config and seed: replications use
independent derived streams, aggregation reduces in replication order, and
no timestamp enters the CSV.

A run can also write replication 0's event trace.  The kernel writes each
event's lines to the file as the event ends, and the file's own buffer
bounds the memory, however long the horizon.

Replications run in worker processes forked straight from the caller, so
the config, the builder and the trace path are inherited rather than
pickled (closure builders work).  The split is static, since the
replications of one config cost about the same: with N workers, worker k
runs one contiguous block of them in order.  Each worker sends its
:class:`~kinsim.model.RunStats`, or the error that stopped it, back as one
pickle down its own pipe; the parent reads the pipes in worker order, so
the results come in replication order and the report and the trace are
byte-identical to an in-process run.  The first worker that died or sent
a failure decides, and the workers above it are killed.  With one job, or
where ``fork`` is not available, the replications run in process, one
after another.
"""

from __future__ import annotations

import contextlib
import csv
import os
import sys
from typing import Callable, NoReturn, Optional, Sequence

from ._record import FrozenRecord, Record
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


class ReportRow(FrozenRecord):
    """One aggregated statistic; (object, source, statistic) is unique per report."""

    __slots__ = ("object_name", "data_source", "category", "statistic", "value")

    def __init__(self, object_name: str, data_source: str, category: str, statistic: str,
                 value: float) -> None:
        super().__init__(object_name, data_source, category, statistic, value)


class ExperimentResult(Record):
    """Aggregated rows plus the raw per-replication statistics."""

    __slots__ = ("rows", "per_replication")

    def __init__(self, rows: list[ReportRow], per_replication: list[RunStats]) -> None:
        self.rows = rows
        self.per_replication = per_replication


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
    runs it to ``run_length``; the builder gets a copy of the config as its
    fields' parsers read it, so a count set as an integral float is an int.
    A kernel error from initializing or running replication ``r`` is raised
    again as its own class, an :class:`~kinsim.errors.IllegitimateModelError`
    say, its message prefixed by ``replication r: ``, at every ``jobs``; an
    error from the builder is raised as the builder raised it.
    ``trace_path``, when given, receives the event trace of replication 0
    (see :func:`~kinsim.kernel.initialize` for the format), each event's
    lines written as the event ends, so the trace's memory is the file's
    buffer however long the horizon.  The file is closed when replication
    0 ends; if the run fails, it holds every event before the failure.

    ``jobs`` is the number of worker processes; ``None`` means the usable
    CPUs.  It is capped at ``config.replications``.  Workers are forked
    directly, each running a contiguous block of replications and sending
    its results back through a pipe, so ``builder`` need not be picklable.
    With one job, or on a platform without ``fork``, the replications run
    in this process.  Either way the result is the same: when several
    replications fail, the lowest failing one's exception is raised, and a
    worker that dies, or cannot be started, raises a :class:`SimulationError`.
    """
    config = _require_valid(config)
    jobs = _resolve_jobs(jobs, config.replications)
    if jobs == 1 or not hasattr(os, "fork"):
        per_replication = [
            _replicate(config, builder, trace_path, r) for r in range(config.replications)
        ]
    else:
        per_replication = _replicate_in_workers(config, builder, trace_path, jobs)
    return ExperimentResult(rows=_aggregate(per_replication), per_replication=per_replication)


def _replicate(
    config: ModelConfig,
    builder: Callable[[ModelConfig, int], object],
    trace_path: Optional[str],
    r: int,
) -> RunStats:
    """Build, run and harvest replication ``r``; only replication 0 is traced.

    A kernel error from initializing or running the model is raised again
    as its own class, named by ``replication r: ``: the pickle that carries
    it out of a worker drops ``__cause__``, so the class must be its own.
    The trace is the one file a run writes.  An :class:`OSError` from
    writing or closing it names no file, so it is raised again with
    ``trace_path`` as its filename, as an error from opening it is.
    """
    spec = builder(config, r)
    traced = trace_path is not None and r == 0
    trace = open(trace_path, "w", encoding="utf-8", newline="") if traced else contextlib.nullcontext()
    try:
        with trace as trace_file:
            try:
                handle = initialize(spec, 0.0, trace_file=trace_file)
                handle.run_until(config.run_length)
            except SimulationError as exc:
                raise _in_replication(r, exc) from exc
    except OSError as exc:
        if not traced or exc.filename is not None:
            raise
        raise OSError(exc.errno, exc.strerror, trace_path) from exc
    return collect_run_stats(handle)


def _in_replication(r: int, exc: SimulationError) -> SimulationError:
    """``exc``'s class with its message prefixed by ``replication r: ``; a
    :class:`SimulationError` when that class takes more than a message."""
    message = f"replication {r}: {exc}"
    try:
        return type(exc)(message)
    except TypeError:
        return SimulationError(message)


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
    """Run the ``n`` replications in ``jobs`` forked children, worker k
    taking the block ``range(k * n // jobs, (k + 1) * n // jobs)`` in order.

    Each child sends its outcomes back as one pickle down its own pipe.
    Every replication of worker k lies below every one of worker k + 1, so
    the pipes are read in worker order and the first worker that failed
    decides: a child that exits non-zero, or whose pickle is empty or
    truncated, raises :class:`SimulationError`, and one that sent a failure
    has its exception raised as the child raised it.  The children above
    it are killed and left unread, as are those already started when a
    worker cannot be, for want of a file descriptor or a process, which
    raises :class:`SimulationError` naming how many had started.
    """
    # Imported here, not at the top: `import kinsim` and one-job runs do
    # without them.
    import pickle
    import signal

    # A child inherits the parent's unwritten buffers and would write them
    # out a second time.
    _flush_standard_streams()
    n = config.replications
    pids: dict[int, int] = {}  # worker -> pid, for the children not yet reaped
    read_fds: dict[int, int] = {}  # worker -> the read end of its pipe, while open
    per_replication: list[RunStats] = []
    try:
        for k in range(jobs):
            try:
                read_fd, write_fd = os.pipe()
                read_fds[k] = read_fd
                try:
                    pid = os.fork()
                    if pid == 0:
                        _work(config, builder, trace_path, range(k * n // jobs, (k + 1) * n // jobs),
                              write_fd)
                finally:
                    os.close(write_fd)
            except OSError as exc:  # out of file descriptors or processes
                raise SimulationError(
                    f"cannot start replication worker {k + 1} of {jobs} ({k} started): {exc}"
                ) from exc
            pids[k] = pid
        for k in range(jobs):
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
            if isinstance(sent[-1], BaseException):  # a worker stops at its first failure
                raise sent[-1]
            per_replication += sent
    finally:
        for read_fd in read_fds.values():
            os.close(read_fd)
        for pid in pids.values():  # left unread above a failure, or this call stopped early
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return per_replication


def _work(
    config: ModelConfig,
    builder: Callable[[ModelConfig, int], object],
    trace_path: Optional[str],
    replications: range,
    write_fd: int,
) -> NoReturn:
    """The body of a forked worker: run ``replications`` in order up to the
    first that raises, write their RunStats, and that one's exception last,
    to ``write_fd`` as one pickled list and exit.  It never returns into the
    caller's code, so no ``finally`` or ``atexit`` handler of the parent's
    runs twice."""
    import pickle

    code = 1
    try:
        outcomes: list[object] = []
        for r in replications:
            try:
                outcomes.append(_replicate(config, builder, trace_path, r))
            except Exception as exc:
                outcomes.append(_sendable(r, exc))
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


def export_csv(result: ExperimentResult, path: str) -> None:
    """Write the report as UTF-8 CSV with LF line endings.

    Rows are sorted by (object name, data source, statistic); integral
    values carry no decimal point and the rest at most six significant
    digits, so repeated exports of the same result are byte-identical.
    """
    ordered = sorted(result.rows, key=lambda r: (r.object_name, r.data_source, r.statistic))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in ordered:
            writer.writerow(
                (row.object_name, row.data_source, row.category, row.statistic, _format_value(row.value))
            )
