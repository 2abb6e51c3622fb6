"""One ``kinsim run`` in a fresh interpreter, timed from inside.

Usage: worker.py CONFIG SEED OUT [--trace-file PATH] [--spans PATH]

The worker imports kinsim, loads and validates CONFIG, and prints
``ready``: the parent times set-up up to that line.  It then calls the
``kinsim run`` entry point (``kinsim.cli.main``) once and prints, as its last
line, a JSON object with the wall time of that call and the process's peak
resident set.  With ``--spans`` the run is traced (see ``tracing.py``): the
object also carries every per-layer metric and each replication's
statistics, and the spans are written to PATH after the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("seed")
    parser.add_argument("out")
    parser.add_argument("--trace-file")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import kinsim
    from kinsim import cli

    expected = os.path.realpath(os.environ["KINBENCH_SRC"])
    if not os.path.realpath(kinsim.__file__).startswith(expected + os.sep):
        print(f"kinsim imported from {kinsim.__file__}, not from {expected}", file=sys.stderr)
        return 2
    with open(args.config, encoding="utf-8") as fh:
        config = kinsim.ModelConfig.from_dict(json.load(fh))
    violations = kinsim.validate_config(config)
    if violations:
        print("; ".join(map(str, violations)), file=sys.stderr)
        return 1
    print("ready", flush=True)

    argv = ["run", "--config", args.config, "--seed", args.seed, "--out", args.out]
    if args.trace_file:
        argv += ["--trace", args.trace_file]
    run = cli.main
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        run = tracing.install(tracer)

    start = time.perf_counter()
    code = run(argv)
    report_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"code": code, "report_s": report_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(args.trace_file)
        result["replications"] = [
            {
                "rows": stats.rows,
                "created_total": stats.created_total,
                "destroyed_individuals": stats.destroyed_individuals,
                "held_individuals": stats.held_individuals,
                "affected_by_class": stats.affected_by_class,
            }
            for experiment in tracer.results
            for stats in experiment.per_replication
        ]
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.span_records()}, fh)
    print(json.dumps(result))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
