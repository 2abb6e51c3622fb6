"""Benchmark of ``kinsim run``: end-to-end figures or, traced, per-layer ones.

Usage (from the repository root):

    python3 kinbench/run.py --workload packaged|long_trace|birth_heavy \\
        --seed N --seconds S --trace 0|1

kinsim is a batch job, so each measured operation is one ``kinsim run``
call on the workload's config, made in a fresh interpreter (see
``worker.py``), one after another with no arrival schedule, until S
seconds have passed (at least three calls).  Every report is checked
against ``reference.py``, which derives the counts without kinsim; a
long_trace trace file is also checked against properties the run must
have.  The last line printed is one JSON object::

    {"correct": bool, "attempted": replications, "failed": replications,
     "metrics": {name: {"value": v, "unit": u}}}

with the end-to-end metrics under ``--trace 0`` (``report_s`` is that of
the fastest call; README.md says why) and the per-layer metrics of traced
calls under ``--trace 1``.  Earlier lines give the sample count, the
median and spread of the call times, and each report's SHA-256.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".kinbench"
MIN_CALLS = 3
WORKER_TIMEOUT_S = 120
INDIVIDUAL_CLASSES = ("WP", "Child_C", "Child_NC")
EXACT_UNITS = ("count", "bytes", "ratio")


class RunFailed(Exception):
    """A ``kinsim run`` call that did not finish with a report."""


def run_worker(workdir: Path, seed: int, record_trace: bool, spans: Path | None) -> tuple[float, dict]:
    """Run one worker; return its set-up time and its result object."""
    cmd = [sys.executable, str(WORKER), str(workdir / "config.json"), str(seed),
           str(workdir / "report.csv")]
    if record_trace:
        cmd += ["--trace-file", str(workdir / "trace.tsv")]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, KINBENCH_SRC=str(SRC))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}: {err.strip()[-500:]}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def read_report(path: Path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return {(obj, source, stat): (category, float(value))
            for obj, source, category, stat, value in rows[1:]}


def report_problems(got: dict, expected: dict) -> list[str]:
    """Differences between a report and the reference, at most five."""
    problems = [f"row {key} missing" for key in expected.keys() - got.keys()]
    problems += [f"row {key} not in reference" for key in got.keys() - expected.keys()]
    problems += [f"{key}: report {got[key]} != reference {expected[key]}"
                 for key in sorted(got.keys() & expected.keys()) if got[key] != expected[key]]
    return problems[:5]


def trace_problems(path: Path, replication0: dict) -> list[str]:
    """Check replication 0's trace: monotone times, WP emissions, sink arrivals."""
    problems = []
    last = float("-inf")
    wp_internal = 0
    sink_external: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            stamp, component, phase, _ = line.split("\t", 3)
            t = float(stamp)
            if t < last and not problems:
                problems.append(f"trace line {number}: time {t} after {last}")
            last = t
            if phase == "internal" and component == "WP":
                wp_internal += 1
            elif phase == "external" and component.startswith("NewPopulation_"):
                sink_external[component] = sink_external.get(component, 0) + 1
    rows = replication0["rows"]
    if wp_internal != rows["WP", "[Dynamic Object]"][1]:
        problems.append(f"trace has {wp_internal} WP internal lines, "
                        f"report WP total is {rows['WP', '[Dynamic Object]'][1]}")
    for sink in ("NewPopulation_C", "NewPopulation_NC"):
        arrivals = rows[sink, "[InputBuffer]"][1]
        if sink_external.get(sink, 0) != arrivals:
            problems.append(f"trace has {sink_external.get(sink, 0)} external lines at {sink}, "
                            f"its [InputBuffer] total is {arrivals}")
    return problems


def replication_problems(replications: list[dict], expected: list[dict]) -> list[list[str]]:
    """Per replication: conservation, every count and the affected births."""
    if len(replications) != len(expected):
        return [[f"{len(replications)} replications reported"]] * len(expected)
    found = []
    for r, (got, ref) in enumerate(zip(replications, expected)):
        problems = []
        held = got["destroyed_individuals"] + got["held_individuals"]
        if got["created_total"] != held:
            problems.append(f"replication {r}: created {got['created_total']} != destroyed + held {held}")
        rows = {(obj, source): (category, value) for obj, source, category, value in got["rows"]}
        if rows != ref["rows"]:
            problems.append(f"replication {r}: counts differ from the reference")
        for label in ("Child_C", "Child_NC"):
            affected = got["affected_by_class"].get(label, 0)
            if affected != ref["affected"].get(label, 0):
                problems.append(f"replication {r}: {affected} affected {label}, "
                                f"reference {ref['affected'].get(label, 0)}")
        found.append(problems)
    return found


def layer_summary(layer_runs: list[dict], problems: list[str]) -> dict:
    """Per-layer metrics over traced runs: counts must repeat, times are medians."""
    metrics = {}
    for name, (value, unit) in layer_runs[0].items():
        values = [run[name][0] for run in layer_runs]
        if unit in EXACT_UNITS:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between runs of one seed: {values}")
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kinsim" / "__init__.py").is_file():
        print(f"kinbench: no kinsim sources under {SRC}", file=sys.stderr)
        return 2

    config, record_trace = workloads.make(args.workload, ROOT, args.seed)
    replications = config["replications"]
    expected_reps = [reference.replicate(config, r) for r in range(replications)]
    expected = reference.report(expected_reps)
    individuals = int(sum(expected[label, "[Dynamic Object]", "Total"][1] for label in INDIVIDUAL_CLASSES))
    spans = WORK_DIR / "spans" / f"{args.workload}-seed{args.seed}.json" if args.trace else None
    WORK_DIR.mkdir(exist_ok=True)
    if spans is not None:
        spans.parent.mkdir(exist_ok=True)

    setups, reports, peaks, digests, layer_runs = [], [], [], set(), []
    problems: list[str] = []  # wrong outputs: the run is not correct
    errors: list[str] = []  # runs that raised: their replications failed
    attempted = failed = 0
    with tempfile.TemporaryDirectory(prefix="run-", dir=WORK_DIR) as tmp:
        workdir = Path(tmp)
        (workdir / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
        start = time.perf_counter()
        while attempted < MIN_CALLS * replications or time.perf_counter() - start < args.seconds:
            attempted += replications
            try:
                setup_s, result = run_worker(workdir, args.seed, record_trace, spans)
            except RunFailed as exc:
                failed += replications
                errors.append(str(exc))
                continue
            report_path = workdir / "report.csv"
            digests.add(hashlib.sha256(report_path.read_bytes()).hexdigest())
            wrong = report_problems(read_report(report_path), expected)
            if record_trace:
                wrong += trace_problems(workdir / "trace.tsv", expected_reps[0])
            if args.trace:
                per_rep = replication_problems(result["replications"], expected_reps)
                failed += sum(1 for found in per_rep if found)
                wrong += [p for found in per_rep for p in found]
                layer_runs.append(result["layers"])
            elif wrong:
                failed += replications
            problems += wrong
            setups.append(setup_s)
            reports.append(result["report_s"])
            peaks.append(result["peak_rss_mb"])

    for error in dict.fromkeys(errors):
        print(f"FAILED: {error}")
    if not reports:
        print("kinbench: no run finished", file=sys.stderr)
        return 1
    if len(digests) > 1:
        problems.append(f"{len(digests)} different reports for one config and seed")
    # The host's speed drops by up to 1.7x in bursts, so a run's median call
    # moves with the bursts it happens to meet; its fastest call is the
    # steadiest estimate of what the program costs (see README.md).
    report_s = min(reports)
    if args.trace:
        metrics = layer_summary(layer_runs, problems)
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "report_s": {"value": report_s, "unit": "s"},
            "individuals_per_s": {"value": individuals / report_s, "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
        }
    for problem in dict.fromkeys(problems):  # each distinct problem once
        print(f"PROBLEM: {problem}")
    for digest in sorted(digests):
        print(f"report_sha256 {args.workload} seed={args.seed} {digest}")
    label = "traced " if args.trace else ""
    print(f"{args.workload}: {len(reports)} {label}calls x {replications} replications, "
          f"{individuals} individuals per report")
    print(f"{label}report_s over {len(reports)} calls: min {min(reports):.4f} s, "
          f"median {statistics.median(reports):.4f} s, max {max(reports):.4f} s; "
          f"setup_s min {min(setups):.4f} s, median {statistics.median(setups):.4f} s")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
