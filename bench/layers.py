"""Per-layer CPU costs of kinsim, and the counts of a packaged replication.

Run from anywhere; it imports kinsim from the ``src`` directory of its own
checkout and needs nothing outside the standard library::

    python bench/layers.py --out BENCH_<n>.json
    python bench/layers.py --quick --out bench.json   # one repetition, one process
    python bench/layers.py --compare BENCH_<m>.json BENCH_<n>.json

Each row is CPU time (``time.process_time``) per operation, in
microseconds.  A repetition times one batch of operations and divides by
its size; each of ``PROCESSES`` fresh processes, started one after another
with the ``spawn`` method, makes ``REPETITIONS`` repetitions of every row,
taking the rows in turn so that a slow phase of the host touches them all.
The file records each process's minimum and median, and the minimum and
median of all repetitions pooled.  ``--quick`` makes one repetition in one
process: a smoke run, whose numbers mean little.

The rows:

* ``kernel.step``: one event of the kernel alone, on a ring of plain
  atomics with a constant time advance, each passing one message on;
* ``randomness.uniform``: one ``RngStream.uniform()``;
* ``objects.weighted_pick``: one ``WeightedChoice.pick()`` of the sex split;
* ``model.build``, ``kernel.initialize``, ``model.collect_run_stats``: one
  call each on the packaged model;
* ``replication.run_until`` and ``replication.run_until_traced``: one
  packaged replication's event loop, untraced and traced to a temporary
  file, the file's close included; ``replication.trace_us`` is the
  difference of their pooled medians, what the trace costs;
* ``experiment.aggregate_export``: ``_aggregate`` and ``export_csv`` over
  the 10 replications of a packaged run.

Beside the rows, ``counts`` gives each packaged replication's kernel
steps, draws, entities created and trace lines at seed 42 and one job, by
wrapping the built model's callbacks, and ``context`` the seed-42 report
and trace digests, the commit, the Python version, how many kinsim modules
had a current bytecode cache, the CPUs and the load average.

``--compare A B`` prints one line per row of either file: the two pooled
medians and B's over A's.  A row's spread in a file is its largest
``per_process`` median over its smallest, minus 1; the line ends in
``changed`` only when the ratio differs from 1 by more than the larger of
the row's two spreads.  A row without ``per_process`` medians
(``replication.trace_us``) has no spread and is never flagged, and a row
that one file lacks is listed as such.  A spread is that of one session,
and a host drifts between sessions more than within one: from
``BENCH_38.json`` to ``BENCH_39.json`` the five rows whose code did not
change (``kernel.step``, ``randomness.uniform``, ``objects.weighted_pick``,
``kernel.initialize``, ``model.collect_run_stats``) read B/A 0.909-0.925
against spreads of 0.036-0.072, and all five were flagged; their minima,
read the same way, give 0.906-0.924 against 0.005-0.046.  No statistic of
two sessions' files tells a change from the drift, so ``changed`` holds
only between two files measured back to back in one session, the parent's
taken from a scratch clone and run interleaved with the change's.

End-to-end timing is left to kinbench (``kinbench/run.py``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
# kinsim is imported inside the functions below, so that bytecode_cache()
# sees its caches before an import has read them.

PROCESSES = 3
REPETITIONS = 15
SEED = 42
RING_SIZE = 8
RING_HORIZON = 5000.0  # 4 steps per clock value on a ring of 8

# ---------------------------------------------------------------------------
# The rows, each timed in a fresh process


def _ring(output):
    """A ring of ``RING_SIZE`` plain atomics, each passing one message on
    per unit of time; ``output`` is every atomic's output function."""
    from kinsim import AtomicSpec, Coupling, CoupledSpec

    def keep(state, *_):
        return state

    names = [f"a{i}" for i in range(RING_SIZE)]
    components = {name: AtomicSpec(None, lambda s: 1.0, keep, keep, output, ("in",), ("out",))
                  for name in names}
    couplings = [Coupling(src, "out", dst, "in") for src, dst in zip(names, names[1:] + names[:1])]
    return CoupledSpec(components, couplings)


def _emit(state):
    return [("out", None)]


def ring_steps() -> int:
    """The steps the ring takes to ``RING_HORIZON``, counted on an untimed run."""
    from kinsim import initialize

    ring, fired = _ring(_emit), [0]
    _wrap_outputs(ring, fired)
    initialize(ring).run_until(RING_HORIZON)
    return fired[0]


def _rows(workdir: str, steps: int):
    """Each row's name, its operations per repetition, what one operation
    is, and a function of no arguments that sets one repetition up and
    returns the function that runs it, which ``_measure`` times; the ring
    takes ``steps`` steps."""
    from kinsim import ModelConfig, WeightedChoice, initialize, substream
    from kinsim.experiment import ExperimentResult, _aggregate, export_csv, run_experiment
    from kinsim.model import build_consanguinity_model, collect_run_stats

    config = ModelConfig(base_seed=SEED)
    finished = initialize(build_consanguinity_model(config))
    finished.run_until(config.run_length)
    per_replication = run_experiment(config, jobs=1).per_replication
    trace_path = os.path.join(workdir, "trace.tsv")
    report_path = os.path.join(workdir, "report.csv")
    draws, picks, builds, calls, exports = 100_000, 50_000, 50, 200, 20

    def kernel_step():
        handle = initialize(_ring(_emit))
        return lambda: handle.run_until(RING_HORIZON)

    def uniform():
        draw = substream(SEED, 0).named("bench").uniform
        return lambda: [draw() for _ in range(draws)]

    def weighted_pick():
        sex = WeightedChoice({"MP": 0.595, "FP": 0.405}, stream=substream(SEED, 0).named("bench"))
        return lambda: [sex.pick() for _ in range(picks)]

    def build():
        return lambda: [build_consanguinity_model(config, r) for r in range(builds)]

    def init():
        specs = [build_consanguinity_model(config) for _ in range(calls)]
        return lambda: [initialize(spec) for spec in specs]

    def collect():
        return lambda: [collect_run_stats(finished) for _ in range(calls)]

    def run_until():
        handle = initialize(build_consanguinity_model(config))
        return lambda: handle.run_until(config.run_length)

    def run_until_traced():
        trace = open(trace_path, "w", encoding="utf-8", newline="")
        handle = initialize(build_consanguinity_model(config), trace_file=trace)

        def run():
            with trace:
                handle.run_until(config.run_length)
        return run

    def aggregate_export():
        def run():
            for _ in range(exports):
                export_csv(ExperimentResult(_aggregate(per_replication), per_replication), report_path)
        return run

    return {
        "kernel.step": (steps, "step", kernel_step),
        "randomness.uniform": (draws, "draw", uniform),
        "objects.weighted_pick": (picks, "pick", weighted_pick),
        "model.build": (builds, "call", build),
        "kernel.initialize": (calls, "call", init),
        "model.collect_run_stats": (calls, "call", collect),
        "replication.run_until": (1, "replication", run_until),
        "replication.run_until_traced": (1, "replication", run_until_traced),
        "experiment.aggregate_export": (exports, "call", aggregate_export),
    }


def _measure(repetitions: int, steps: int) -> dict[str, tuple[str, list[float]]]:
    """Each row's unit and its CPU µs per operation, ``repetitions``
    samples, in this process; the ring takes ``steps`` steps."""
    with tempfile.TemporaryDirectory() as workdir:
        rows = _rows(workdir, steps)
        samples: dict[str, list[float]] = {name: [] for name in rows}
        for _ in range(repetitions):
            for name, (ops, _, setup) in rows.items():
                run = setup()
                gc.collect()
                start = time.process_time()
                run()
                elapsed = time.process_time() - start
                samples[name].append(elapsed * 1e6 / ops)
    return {name: (f"us per {per}", samples[name]) for name, (_, per, _) in rows.items()}


# ---------------------------------------------------------------------------
# Counts and context, in the calling process


def _wrap_outputs(spec, fired: list[int]) -> None:
    """Count each step of a built model by wrapping every atomic's output."""
    for child in spec.components.values():
        if hasattr(child, "components"):
            _wrap_outputs(child, fired)
            continue
        output = child.output

        def counted(state, output=output):
            fired[0] += 1
            return output(state)
        child.output = counted


def replication_counts() -> list[dict[str, int]]:
    """Steps, draws, entities created and trace lines of each packaged
    replication at seed ``SEED``, run in turn in this process."""
    from kinsim import ModelConfig, RngStream, initialize
    from kinsim.model import build_consanguinity_model, collect_run_stats

    config = ModelConfig(base_seed=SEED)
    uniform = RngStream.uniform
    drawn = [0]

    def counted_uniform(self):
        drawn[0] += 1
        return uniform(self)

    counts = []
    RngStream.uniform = counted_uniform  # before the build: triggers bind it then
    try:
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "trace.tsv")
            for r in range(config.replications):
                drawn[0] = 0
                fired = [0]
                spec = build_consanguinity_model(config, r)
                _wrap_outputs(spec, fired)
                with open(path, "w", encoding="utf-8", newline="") as trace:
                    handle = initialize(spec, trace_file=trace)
                    handle.run_until(config.run_length)
                with open(path, "rb") as trace:
                    lines = trace.read().count(b"\n")
                counts.append({"steps": fired[0], "draws": drawn[0],
                               "entities": collect_run_stats(handle).created_total,
                               "trace_lines": lines})
    finally:
        RngStream.uniform = uniform
    return counts


def digests() -> dict[str, str]:
    """SHA-256 of the report and the trace that ``kinsim run --seed 42
    --jobs 1 --trace`` writes."""
    from kinsim import ModelConfig, export_csv, run_experiment

    with tempfile.TemporaryDirectory() as workdir:
        report = os.path.join(workdir, "report.csv")
        trace = os.path.join(workdir, "trace.tsv")
        export_csv(run_experiment(ModelConfig(base_seed=SEED), jobs=1, trace_path=trace), report)
        found = {}
        for name, path in (("report_sha256", report), ("trace_sha256", trace)):
            with open(path, "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
        return found


def bytecode_cache() -> dict[str, object]:
    """How many kinsim modules have a cached bytecode file that this
    interpreter would load as it is, read before kinsim is imported."""
    package = os.path.join(SRC, "kinsim")
    modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    current = 0
    for name in modules:
        source = os.path.join(package, name)
        try:
            with open(importlib.util.cache_from_source(source), "rb") as cached:
                header = cached.read(16)
        except OSError:
            continue
        stat = os.stat(source)
        current += header == (importlib.util.MAGIC_NUMBER + bytes(4)
                              + (int(stat.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
                              + (stat.st_size & 0xFFFFFFFF).to_bytes(4, "little"))
    return {"modules": len(modules), "current": current,
            "writes_bytecode": not sys.dont_write_bytecode}


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


# ---------------------------------------------------------------------------


def _summary(per_process: list[dict[str, tuple[str, list[float]]]]) -> dict[str, dict]:
    rows = {}
    for name, (unit, _) in per_process[0].items():
        runs = [samples[name][1] for samples in per_process]
        pooled = [s for samples in runs for s in samples]
        rows[name] = {
            "unit": unit,
            "min": min(pooled),
            "median": statistics.median(pooled),
            "per_process": [{"min": min(samples), "median": statistics.median(samples)}
                            for samples in runs],
        }
    rows["replication.trace_us"] = {
        "unit": "us per replication",
        "median": rows["replication.run_until_traced"]["median"]
        - rows["replication.run_until"]["median"],
    }
    return rows


def _spread(row: dict) -> float | None:
    """The row's largest ``per_process`` median over its smallest, minus 1."""
    medians = [run["median"] for run in row.get("per_process", ())]
    return max(medians) / min(medians) - 1 if medians else None


def compare(path_a: str, path_b: str) -> list[str]:
    """One line per row of either file, as the module docstring describes;
    its ``changed`` holds only for two files of one session."""
    rows = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            rows.append(json.load(fh)["rows"])
    rows_a, rows_b = rows
    lines = []
    for name in [*rows_a, *(name for name in rows_b if name not in rows_a)]:
        if name not in rows_a or name not in rows_b:
            lines.append(f"{name:<30} only in {path_a if name in rows_a else path_b}")
            continue
        a, b = rows_a[name], rows_b[name]
        ratio = b["median"] / a["median"]
        spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
        spread = f"{max(spreads):.3f}" if spreads else "-"
        changed = bool(spreads) and abs(ratio - 1) > max(spreads)
        lines.append(f"{name:<30} {a['median']:>12.3f} -> {b['median']:>12.3f} {a['unit']:<20}"
                     f" B/A {ratio:.3f}  spread {spread}{'  changed' if changed else ''}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="the JSON file to write")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="print each row's median in B over its median in A")
    parser.add_argument("--quick", action="store_true",
                        help="one repetition in one process: a smoke run")
    args = parser.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0
    processes, repetitions = (1, 1) if args.quick else (PROCESSES, REPETITIONS)

    cache = bytecode_cache()  # before anything imports kinsim
    load_before = os.getloadavg()
    steps = ring_steps()
    context = multiprocessing.get_context("spawn")
    per_process = []
    for _ in range(processes):
        with context.Pool(1) as pool:
            per_process.append(pool.apply(_measure, (repetitions, steps)))
    status = _git("status", "--porcelain", "--", "src")
    document = {
        "rows": _summary(per_process),
        "processes": processes,
        "repetitions": repetitions,
        "ring": {"atomics": RING_SIZE, "horizon": RING_HORIZON, "steps": steps},
        "counts": {"seed": SEED, "jobs": 1, "per_replication": replication_counts()},
        "context": {
            **digests(),
            "commit": _git("rev-parse", "HEAD"),
            "src_modified": None if status is None else bool(status),
            "python": platform.python_version(),
            "bytecode_cache": cache,
            "cpus": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
