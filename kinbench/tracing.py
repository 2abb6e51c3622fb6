"""Per-layer timing of one kinsim run, installed from outside the package.

:func:`install` rebinds the public functions and methods of every kinsim
module, ``kinsim.kernel`` through ``kinsim.cli``, to timing wrappers, in
every module that imported them, and wraps the four callbacks of every
object the model builder returns.  Each wrapped call adds to its key's
count, total time and self time (the total less the time of the wrapped
calls made inside it).  Coarse calls (the run, a build, a replication's
``run_until``, the export) are also kept as spans with their parent, to
be written out after the run ends.

A name that a later version of kinsim no longer has is skipped, and kernel
steps are counted from the objects' output callbacks, which Classic DEVS
calls exactly once per step, so the counts do not depend on how the event
loop is written.  The wrappers roughly double the run time: end-to-end
figures always come from untraced runs.
"""

from __future__ import annotations

import functools
import time

OBJECT_KINDS = ("source", "splitter", "path", "combiner", "server", "sink")


class Tracer:
    """Counts, total and self time per key, plus the coarse spans of one run."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.results: list = []  # what each run_experiment call returned
        self.vector_draws = 0
        self._child_time: list[list[float]] = []
        self._open_spans: list[int] = []

    def wrap(self, key: str, fn, *, span: bool = False):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._child_time
        clock = time.perf_counter
        spans, open_spans = self.spans, self._open_spans

        def timed(*args, **kwargs):
            if span:
                index = len(spans)
                spans.append([key, 0.0, 0.0, open_spans[-1] if open_spans else None])
                open_spans.append(index)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if span:
                    open_spans.pop()
                    spans[index][1] = start
                    spans[index][2] = end

        return functools.wraps(fn)(timed)

    def rebind(self, owners, name: str, key: str, *, span: bool = False, adapt=None) -> None:
        """Wrap ``name`` and rebind it on each owner that holds the same object.

        ``adapt``, when given, maps the original to the callable to time.
        """
        holders = [owner for owner in owners if hasattr(owner, name)]
        if not holders:
            return
        original = getattr(holders[0], name)
        wrapped = self.wrap(key, adapt(original) if adapt else original, span=span)
        for owner in holders:
            if getattr(owner, name) is original:
                setattr(owner, name, wrapped)

    # -- summaries ---------------------------------------------------------

    def calls(self, prefix: str, suffix: str = "") -> int:
        return sum(s[0] for k, s in self.stats.items() if k.startswith(prefix) and k.endswith(suffix))

    def total(self, *keys: str) -> float:
        return sum(self.stats[k][1] for k in keys if k in self.stats)

    def self_time(self, prefix: str) -> float:
        return sum(s[2] for k, s in self.stats.items() if k.startswith(prefix))

    def layer_metrics(self, trace_path: str | None) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        steps = self.calls("objects.", "output")
        relay_steps = self.calls("objects.", ".relay_output")
        loop_self = self.self_time("kernel.step") + self.self_time("kernel.run_until")
        trace_lines = trace_bytes = 0
        if trace_path is not None:
            with open(trace_path, "rb") as fh:
                data = fh.read()
            trace_lines, trace_bytes = data.count(b"\n"), len(data)
        m = {
            "kernel.steps": (steps, "count"),
            "kernel.external_events": (self.calls("objects.", ".delta_ext"), "count"),
            "kernel.self_s": (self.self_time("kernel."), "s"),
            "kernel.us_per_step": (loop_self / steps * 1e6 if steps else 0.0, "us"),
            "kernel.useful_step_ratio": ((steps - relay_steps) / steps if steps else 0.0, "ratio"),
            "kernel.initialize_s": (self.total("kernel.initialize"), "s"),
            "kernel.trace_events": (trace_lines, "count"),
            "kernel.trace_dump_s": (self.total("kernel.dump_trace"), "s"),
        }
        for kind in OBJECT_KINDS:
            m[f"objects.{kind}.calls"] = (self.calls(f"objects.{kind}."), "count")
            m[f"objects.{kind}.self_s"] = (self.self_time(f"objects.{kind}."), "s")
        m.update({
            "randomness.draws": (self.calls("randomness.uniform") + self.vector_draws, "count"),
            "randomness.self_s": (self.self_time("randomness."), "s"),
            "randomness.streams": (self.calls("randomness.stream_init"), "count"),
            "randomness.stream_setup_s": (self.total("randomness.substream", "randomness.named"), "s"),
            "genetics.disorder_draws": (self.calls("genetics.assign_disorder"), "count"),
            "genetics.self_s": (self.self_time("genetics."), "s"),
            "entities.created": (self.calls("entities.create"), "count"),
            "entities.buffer_lookups": (self.calls("entities.buffer"), "count"),
            "entities.self_s": (self.self_time("entities."), "s"),
            "model.build_s": (self.total("model.build"), "s"),
            "model.collect_s": (self.total("model.collect"), "s"),
            "model.validate_calls": (self.calls("model.validate"), "count"),
            "experiment.self_s": (self.self_time("experiment.run"), "s"),
            "experiment.export_s": (self.total("experiment.export"), "s"),
            "experiment.trace_bytes": (trace_bytes, "bytes"),
            "cli.load_s": (self.total("cli.load"), "s"),
        })
        return m

    def span_records(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"id": i, "name": name, "start": start - origin, "end": end - origin, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]


def install(tracer: Tracer):
    """Wrap kinsim's public functions; return the traced ``kinsim.cli.main``."""
    from kinsim import cli, entities, experiment, genetics, kernel, model, objects, randomness

    every = (kernel, randomness, entities, objects, genetics, model, experiment, cli)
    rebind = tracer.rebind

    # kinsim.kernel
    rebind([kernel.SimulationHandle], "step", "kernel.step")
    rebind([kernel.SimulationHandle], "run_until", "kernel.run_until", span=True)
    rebind(every, "initialize", "kernel.initialize", span=True)
    rebind(every, "dump_trace", "kernel.dump_trace", span=True)

    # kinsim.randomness
    rng = randomness.RngStream
    rebind([rng], "uniform", "randomness.uniform")

    def count_vector(uniforms):
        def counted(self, n, *args, **kwargs):
            tracer.vector_draws += n
            return uniforms(self, n, *args, **kwargs)
        return counted

    rebind([rng], "uniforms", "randomness.vector", adapt=count_vector)
    rebind([rng], "__init__", "randomness.stream_init")
    rebind([rng], "named", "randomness.named")
    rebind(every, "substream", "randomness.substream")
    for dist in (randomness.Constant, randomness.Uniform, randomness.Exponential,
                 randomness.DiscreteDistribution):
        rebind([dist], "sample", "randomness.sample")
    rebind(every, "sample_discrete", "randomness.sample_discrete")
    rebind(every, "make_distribution", "randomness.make_distribution")

    # kinsim.genetics
    rebind(every, "assign_disorder", "genetics.assign_disorder")
    rebind(every, "disorder_probability", "genetics.disorder_probability")
    rebind(every, "inbreeding_coefficient", "genetics.inbreeding_coefficient")

    # kinsim.entities
    rebind([entities.EntityFactory], "create", "entities.create")
    rebind([entities.EntityFactory], "count_label", "entities.count_label")
    rebind([entities.ObjectStats], "buffer", "entities.buffer")
    rebind(every, "individual_count", "entities.individual_count")

    # kinsim.model: the default builder, whose objects are wrapped as each
    # model is built, validation and the statistics harvest.
    defaults = experiment.run_experiment.__kwdefaults__ or {}
    if "builder" in defaults:
        build = tracer.wrap("model.build", defaults["builder"], span=True)
        defaults["builder"] = lambda config, r: wrap_objects(tracer, build(config, r))
    rebind(every, "validate_config", "model.validate")
    rebind(every, "collect_run_stats", "model.collect", span=True)

    # kinsim.experiment, keeping each result for the replication checks
    def keep_result(run_experiment):
        def run_kept(*args, **kwargs):
            result = run_experiment(*args, **kwargs)
            tracer.results.append(result)
            return result
        return run_kept

    rebind(every, "run_experiment", "experiment.run", span=True, adapt=keep_result)
    rebind(every, "export_csv", "experiment.export", span=True)

    # kinsim.cli
    rebind([cli], "_load_config", "cli.load", span=True)
    return tracer.wrap("cli.main", cli.main, span=True)


def wrap_objects(tracer: Tracer, spec):
    """Wrap the callbacks of every atomic object in a built model, in place.

    The kind is the state class's name without ``State``.  A zero-delay
    path and a single-choice splitter are relays: they only count and tag
    what passes.  Their output callbacks are keyed apart, so the share of
    steps fired by other objects can be taken.
    """
    for child in spec.components.values():
        if hasattr(child, "components"):
            wrap_objects(tracer, child)
            continue
        state = child.initial_state
        kind = type(state).__name__.removesuffix("State").lower()
        relay = (kind == "path" and getattr(state, "travel_time", None) == 0) or (
            kind == "splitter" and len(getattr(state, "choices", ())) == 1)
        key = f"objects.{kind}."
        child.time_advance = tracer.wrap(key + "time_advance", child.time_advance)
        child.delta_int = tracer.wrap(key + "delta_int", child.delta_int)
        child.delta_ext = tracer.wrap(key + "delta_ext", child.delta_ext)
        child.output = tracer.wrap(key + ("relay_output" if relay else "output"), child.output)
    return spec
