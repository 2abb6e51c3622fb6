"""Experiment configuration and the consanguinity model built from it.

``build_consanguinity_model`` wires the paper's model: a single
whole-population source is split by sex, each sex stream is split again
into consanguineous and non-consanguineous branches by routing weights, and
each branch runs its own marriage combiner (one female and one male per
marriage, whose trigger creates a random number of children for each couple
and draws each child's congenital disorder) and new-population sink.

Objects are joined by direct couplings, which carry each individual
unchanged.  The splits are weighted picks that the whole-population source
makes as it emits each individual, choosing the port it leaves on, so
routing costs no kernel step.  The paper's model passes each couple
through a growth server of its own; here the combiner's trigger does that
work as it marries them.

``collect_run_stats`` owns the report: it lays out every row of the
paper's model, its buffers, the ``Path<n>`` ``[Travelers]`` legs, the
growth servers' rows and the ``[Dynamic Object]`` class counts, from the
counters the five objects keep, so counting costs no kernel step.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Container, Mapping
from functools import cache, partial
from typing import Any, Optional

from ._record import FrozenRecord, Record
from .entities import Entity, EntityFactory
from .errors import ConfigurationError
from .genetics import INBREEDING_COEFFICIENTS, disorder_probability
from .kernel import AtomicSpec, Coupling, CoupledSpec, SimulationHandle
from .objects import (PORT_IN, PORT_MEMBER_IN, PORT_OUT, PORT_PARENT_IN, ProcessedTrigger,
                      WeightedChoice, make_combiner, make_sink, make_source)
from .randomness import DiscreteDistribution, RngStream, make_distribution, read_number, substream

MALE = "male"
FEMALE = "female"
CONSANG = "consanguineous"
NON_CONSANG = "non_consanguineous"

# The branches, consanguineous and not: the suffix of each one's object names.
BRANCHES = ("C", "NC")

_FRACTION_TOLERANCE = 1e-9


@cache
def _packaged() -> dict:
    """The packaged config's JSON document, read once per process.

    The loader that imported this module reads it from the ``data``
    directory beside it, so it loads however kinsim was imported, from a
    zip too.  Callers copy what they take from it.
    """
    data = __loader__.get_data(os.path.join(os.path.dirname(__file__), "data", "default_config.json"))
    return json.loads(data.decode("utf-8"))


_TOO_DEEP = "the value nests too deeply"


def _copy(value: Any) -> Any:
    """A deep copy of a JSON value: every object and array in it is new."""
    if isinstance(value, Mapping):
        return {key: _copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy(item) for item in value]
    return value


def _check_object(value: Any, what: str = "the value") -> Mapping:
    """``value`` itself if it is a JSON object; anything else, a JSON array
    of pairs too, raises TypeError."""
    if not isinstance(value, Mapping):
        raise TypeError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _check_keys(mapping: Any, known: Container[str], path: Optional[str] = None) -> Mapping:
    """``mapping`` itself; a value that is not a JSON object raises
    TypeError, and a key outside ``known`` ValueError.  Given ``path``, its
    prefix within the field, ``mapping`` must hold every key of ``known``:
    those it lacks raise one KeyError naming each as ``<path><key>``."""
    for key in _check_object(mapping):
        if key not in known:
            raise ValueError(f"unknown key {key!r}")
    missing = [] if path is None else [path + key for key in known if key not in mapping]
    if missing:
        raise KeyError(*missing)
    return mapping


# Source entry key -> parser of its JSON value.
_SOURCE_KEYS = {
    "interarrival": partial(_check_object, what="interarrival"),
    "max_arrivals": lambda cap: None if cap is None else read_number(cap, integral=True),
}


def _parse_sources(sources: Any) -> dict[str, dict]:
    """WP, the one source, if ``sources`` gives it, with each key its entry gives."""
    return {name: {key: _SOURCE_KEYS[key](value)
                   for key, value in _check_keys(entry, _SOURCE_KEYS).items()}
            for name, entry in _check_keys(sources, ("WP",)).items()}


class ModelConfig(Record):
    """Every tunable of the consanguinity experiment: its JSON document.

    Each field holds its value in the JSON shape: ``sources["WP"]`` is the
    ``{"interarrival", "max_arrivals"}`` mapping, ``sex_split`` the
    ``{"male", "female"}`` fractions, and ``routing_weights`` the per-sex
    path weights for the consanguineous and non-consanguineous branches.
    ``consanguinity_degree`` names a key of
    :data:`~kinsim.genetics.INBREEDING_COEFFICIENTS`; ``inbreeding_f``, when
    set, overrides its coefficient for the consanguineous branch.
    ``metadata`` holds experiment-frame labels (region, religion,
    commitment): any JSON values; no effect on the dynamics.

    The packaged ``kinsim/data/default_config.json`` is the default of
    every field: an argument left at None takes its value, a fresh copy
    per config.
    """

    __slots__ = ("run_length", "replications", "base_seed", "sources", "sex_split",
                 "routing_weights", "offspring_distribution", "allele_frequency",
                 "consanguinity_degree", "inbreeding_f", "metadata")

    def __init__(
        self,
        run_length: Optional[float] = None,
        replications: Optional[int] = None,
        base_seed: Optional[int] = None,
        sources: Optional[dict[str, dict]] = None,
        sex_split: Optional[dict[str, float]] = None,
        routing_weights: Optional[dict[str, dict[str, float]]] = None,
        offspring_distribution: Optional[dict] = None,
        allele_frequency: Optional[float] = None,
        consanguinity_degree: Optional[str] = None,
        inbreeding_f: Optional[float] = None,
        metadata: Optional[dict[str, Any]] = None,
    ) -> None:
        packaged = _packaged()
        values = (run_length, replications, base_seed, sources, sex_split, routing_weights,
                  offspring_distribution, allele_frequency, consanguinity_degree, inbreeding_f,
                  metadata)
        for name, value in zip(self.__slots__, values):
            setattr(self, name, _copy(packaged[name]) if value is None else value)

    def to_dict(self) -> dict:
        """The JSON document of this config, sharing no object or array with
        it; a value nested too deeply to copy raises ConfigurationError
        naming its field."""
        document = {}
        for name in self.__slots__:
            try:
                document[name] = _copy(getattr(self, name))
            except RecursionError:
                raise ConfigurationError(f"malformed {name}: {_TOO_DEEP}") from None
        return document

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelConfig":
        """Read a JSON document, each field by its parser in ``_FIELD_PARSERS``;
        absent fields, sources and source keys keep their packaged values.

        The config shares no object or array with ``data``.  A key or value
        that the parsers do not read, or a value nested too deeply to copy,
        raises :class:`ConfigurationError` naming the field;
        :func:`validate_config` checks the values.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"config must be a JSON object, got {type(data).__name__}")
        for name in data:
            if name not in _FIELD_PARSERS:
                raise ConfigurationError(f"malformed {name}: unknown key")
        config = cls()
        for name in filter(data.__contains__, _FIELD_PARSERS):
            value, malformed = _read(name, data[name])
            if malformed:
                raise ConfigurationError(f"malformed {name}: " + "; ".join(
                    v.constraint if v.field == name else f"missing {v.field}" for v in malformed))
            if name == "sources":
                value = {n: {**entry, **value.get(n, {})} for n, entry in config.sources.items()}
            setattr(config, name, value)
        return config


# The degree names a config may give.  A list, not the table, so that an
# unhashable value compares unequal to each name instead of raising TypeError.
_DEGREES = list(INBREEDING_COEFFICIENTS)


def _parse_degree(raw) -> str:
    if raw not in _DEGREES:
        raise ValueError(f"must be one of {_DEGREES}")
    return raw


# ModelConfig field -> the one parser of its JSON shape, in parse order.
_FIELD_PARSERS = {
    "run_length": read_number,
    "replications": partial(read_number, integral=True),
    "base_seed": partial(read_number, integral=True),
    "sources": _parse_sources,
    "sex_split": lambda split: {sex: read_number(fraction)
                                for sex, fraction in _check_keys(split, (MALE, FEMALE), "").items()},
    "routing_weights": lambda weights: {
        sex: {branch: read_number(w)
              for branch, w in _check_keys(entry, (CONSANG, NON_CONSANG), f"{sex}.").items()}
        for sex, entry in _check_keys(weights, (MALE, FEMALE), "").items()
    },
    "offspring_distribution": _check_object,
    "allele_frequency": read_number,
    "consanguinity_degree": _parse_degree,
    "inbreeding_f": lambda value: None if value is None else read_number(value),
    "metadata": _check_object,
}


class Violation(FrozenRecord):
    """One config-invariant failure: which field, what rule, what was seen."""

    __slots__ = ("field", "constraint", "observed")

    def __init__(self, field: str, constraint: str, observed: Any) -> None:
        super().__init__(field, constraint, observed)

    def __str__(self) -> str:
        return f"{self.field}: {self.constraint} (got {self.observed!r})"


def _read(name: str, raw: Any) -> tuple[Any, list[Violation]]:
    """A copy of ``raw`` read by the parser of the field ``name``, sharing
    no object or array with it, and the violations of its shape: each key it
    lacks is a ``<name>.<key>: missing`` line, and any other parser error
    one line on the field, the error's text its rule.  A value nested too
    deeply to copy is one line that holds no value, so that nothing that
    reads or shows the config recurses through it."""
    try:
        value = _copy(raw)
    except RecursionError:
        return None, [Violation(name, _TOO_DEEP, None)]
    try:
        return _FIELD_PARSERS[name](value), []
    except KeyError as exc:
        return None, [Violation(f"{name}.{key}", "missing", None) for key in exc.args]
    except (TypeError, ValueError) as exc:
        return None, [Violation(name, str(exc), raw)]


def _check(config: ModelConfig) -> tuple[ModelConfig, list[Violation]]:
    """A new config of each field of ``config`` as :func:`_read` reads it,
    and every violated invariant: the shape violations if any field is
    malformed, else those of the values read."""
    checked = ModelConfig.__new__(ModelConfig)  # no packaged defaults: every field is set below
    violations: list[Violation] = []
    for name in _FIELD_PARSERS:
        value, malformed = _read(name, getattr(config, name))
        setattr(checked, name, value)
        violations += malformed
    if violations:
        return checked, violations
    # Chained comparisons also reject NaN and Infinity, which JSON admits.
    if not 0 < checked.run_length < math.inf:
        violations.append(Violation("run_length", "must be finite and > 0", checked.run_length))
    if checked.replications < 1:
        violations.append(Violation("replications", "must be >= 1", checked.replications))
    # Seeds are mixed as 64-bit words, so a seed outside them would alias one inside.
    if not 0 <= checked.base_seed < 2**64:
        violations.append(Violation("base_seed", "must lie in [0, 2**64)", checked.base_seed))
    for sex, fraction in checked.sex_split.items():
        # Each sex is a route of a weighted choice, and a weight must be positive.
        if not 0.0 < fraction < 1.0:
            violations.append(Violation(f"sex_split.{sex}", "must lie in (0, 1)", fraction))
    total = sum(checked.sex_split.values())
    if abs(total - 1.0) > _FRACTION_TOLERANCE:
        violations.append(Violation("sex_split", f"fractions must sum to 1 within {_FRACTION_TOLERANCE}",
                                    total))
    for sex, weights in checked.routing_weights.items():
        for branch, weight in weights.items():
            if not 0 < weight < math.inf:
                violations.append(
                    Violation(f"routing_weights.{sex}.{branch}", "must be finite and > 0", weight))
        # The branch pick adds the pair, and an infinite total of finite
        # weights names NC every time.
        if sum(weights.values()) == math.inf > max(weights.values()):
            violations.append(Violation(f"routing_weights.{sex}", "must have a finite sum", math.inf))
    wp = checked.sources.get("WP")
    if wp is None:
        violations.append(Violation("sources.WP", "missing", None))
    else:
        try:
            low, high = make_distribution(wp.get("interarrival")).support
            # A negative gap breaks the kernel's contract; gaps that are all 0
            # never let the clock advance.
            if low < 0 or high == 0:
                violations.append(Violation("sources.WP.interarrival",
                                            "must draw no negative value and not only 0",
                                            wp["interarrival"]))
        except ConfigurationError as exc:
            violations.append(Violation("sources.WP.interarrival", "must be a valid distribution", str(exc)))
        cap = wp.get("max_arrivals")
        if cap is not None and cap < 0:
            violations.append(Violation("sources.WP.max_arrivals", "must be >= 0 or null", cap))
    law = checked.offspring_distribution
    try:
        offspring = make_distribution(law)
        if not isinstance(offspring, DiscreteDistribution):
            violations.append(
                Violation("offspring_distribution", "must be a discrete distribution", law.get("type")))
        elif any(v < 0 for v in offspring.values):
            violations.append(
                Violation("offspring_distribution", "offspring counts must be >= 0", offspring.values))
    except ConfigurationError as exc:
        violations.append(Violation("offspring_distribution", "must be a valid distribution", str(exc)))
    if not 0.0 <= checked.allele_frequency <= 1.0:
        violations.append(Violation("allele_frequency", "must lie in [0, 1]", checked.allele_frequency))
    if checked.inbreeding_f is not None and not 0.0 <= checked.inbreeding_f <= 1.0:
        violations.append(Violation("inbreeding_f", "must lie in [0, 1] or null", checked.inbreeding_f))
    return checked, violations


def validate_config(config: ModelConfig) -> list[Violation]:
    """Return every violated ModelConfig invariant; empty means valid.

    Each field is read once, from a copy, as :meth:`ModelConfig.from_dict`
    reads it; only once every field has its shape are the values checked."""
    return _check(config)[1]


def _require_valid(config: ModelConfig) -> ModelConfig:
    """``config`` as :func:`validate_config` reads it, so an integral float
    count is an int, in a new config that shares no object or array with
    it; an invalid config raises ConfigurationError."""
    checked, violations = _check(config)
    if violations:
        raise ConfigurationError("invalid model config: " + "; ".join(map(str, violations)))
    return checked


def birth_trigger(
    label: str,
    factory: EntityFactory,
    offspring_dist: DiscreteDistribution,
    offspring_stream: RngStream,
    p: float,
    disorder_stream: RngStream,
) -> ProcessedTrigger:
    """A marriage combiner's trigger: each couple gets ``offspring_dist`` children.

    The count is drawn from ``offspring_stream``.  The children are created
    under ``label``, with ids reserved from ``factory``, in birth order; each
    one is ``affected`` when its own draw from ``disorder_stream`` falls
    below ``p``, so a child costs one draw whatever ``p`` is.  A law that
    can draw a negative count raises :class:`ConfigurationError`.
    """
    if offspring_dist.support[0] < 0:  # reserve() would rewind the id counter
        raise ConfigurationError(f"offspring counts must be >= 0, got {offspring_dist!r}")
    uniform = disorder_stream.uniform

    def on_growth(parent: Entity) -> list[Entity]:
        ids = factory.reserve(offspring_dist.sample(offspring_stream))
        return [Entity(i, label, uniform() < p) for i in ids]
    return on_growth


def build_consanguinity_model(config: ModelConfig, replication: int = 0) -> CoupledSpec:
    """Full model: one whole-population source, two marriage combiners whose
    triggers give each couple its children and their disorder draws, and two
    sinks: five atomics.

    The source routes each individual it emits with two
    :class:`~kinsim.objects.WeightedChoice` picks: the sex, which relabels
    WP as MP or FP, then that sex's branch, consanguineous (C) or not (NC).
    It leaves on one of four ports, ``MP_C``, ``MP_NC``, ``FP_C`` and
    ``FP_NC``, each coupled straight to its combiner entry, males as
    members and females as parents.  The couplings only carry; the
    fourteen legs of the flow, ``Path1``-``Path14``, are read off the
    objects they lead to by :func:`collect_run_stats`.
    """
    config = _require_valid(config)
    root = substream(config.base_seed, replication)
    factory = EntityFactory()
    offspring_dist = make_distribution(config.offspring_distribution)

    # The consanguineous branch's f is inbreeding_f when it is set, else its
    # degree's coefficient; the other branch's parents are unrelated, f = 0.
    q = config.allele_frequency
    f = config.inbreeding_f
    if f is None:
        f = INBREEDING_COEFFICIENTS[config.consanguinity_degree]

    def marriage(tag, stem, p):
        return make_combiner(birth_trigger(f"Child_{tag}", factory, offspring_dist,
                                           root.named(f"offspring_{stem}"), p,
                                           root.named(f"disorder_{stem}")))

    sex = WeightedChoice({"MP": config.sex_split[MALE], "FP": config.sex_split[FEMALE]},
                         stream=root.named("sex_split"))
    branch = {
        label: WeightedChoice({f"{label}_C": config.routing_weights[s][CONSANG],
                               f"{label}_NC": config.routing_weights[s][NON_CONSANG]},
                              stream=root.named(f"{s}_branch"))
        for label, s in (("MP", MALE), ("FP", FEMALE))
    }

    def route(individual: Entity) -> str:
        label = sex.pick()
        individual.class_label = label
        return branch[label].pick()

    wp = config.sources["WP"]
    components = {
        "WP": make_source("WP", make_distribution(wp["interarrival"]), wp.get("max_arrivals"),
                          factory=factory, stream=root.named("wp_interarrival"), route=route,
                          ports=("MP_C", "MP_NC", "FP_C", "FP_NC")),
        "Marriage_C": marriage("C", "consanguineous", disorder_probability(q, f)),
        "Marriage_NC": marriage("NC", "nonconsanguineous", disorder_probability(q, 0.0)),
        "NewPopulation_C": make_sink(),
        "NewPopulation_NC": make_sink(),
    }
    couplings = [Coupling("WP", f"{label}_{tag}", f"Marriage_{tag}", entry)
                 for label, entry in (("MP", PORT_MEMBER_IN), ("FP", PORT_PARENT_IN))
                 for tag in BRANCHES]
    couplings += [Coupling(f"Marriage_{tag}", PORT_OUT, f"NewPopulation_{tag}", PORT_IN)
                  for tag in BRANCHES]
    return CoupledSpec(components, couplings)


# ---------------------------------------------------------------------------
# Statistics harvesting


# One report row: (object name, data source, category, value).
StatRow = tuple[str, str, str, int]


class RunStats(Record):
    """Raw statistics of one finished replication.

    ``rows`` are (object name, data source, category, value) tuples in a
    stable order; the count of a class label is the value of its
    ``[Dynamic Object]`` row.  The conservation fields count
    individuals so that ``created_total == destroyed_individuals +
    held_individuals`` holds exactly at any observation instant.
    """

    __slots__ = ("rows", "created_total", "destroyed_individuals", "held_individuals",
                 "affected_by_class")

    def __init__(
        self,
        rows: Optional[list[StatRow]] = None,
        created_total: int = 0,
        destroyed_individuals: int = 0,
        held_individuals: int = 0,
        affected_by_class: Optional[dict[str, int]] = None,
    ) -> None:
        self.rows = [] if rows is None else rows
        self.created_total = created_total
        self.destroyed_individuals = destroyed_individuals
        self.held_individuals = held_individuals
        self.affected_by_class = {} if affected_by_class is None else affected_by_class


def collect_run_stats(handle: SimulationHandle) -> RunStats:
    """Lay out the report rows of a run, and its conservation totals, at any instant.

    ``handle`` must run a model built by :func:`build_consanguinity_model`;
    every row is read off the counters of its five objects, each found by
    the last segment of its component path, so the model gives the same
    rows when it is nested in coupled models (closure under coupling).  The
    rows of both branches' combiners, ``Marriage_C`` then ``Marriage_NC``,
    come first, then those of the paper's growth servers, ``PopulationG_*``,
    whose work each combiner's trigger does as it marries a couple, then
    those of the sinks, ``NewPopulation_*``.  What arrived on a combiner
    side is its marriages plus those still waiting there.  The
    ``[Travelers]`` rows of the fourteen legs of the paper's flow,
    ``Path1``-``Path14``, follow: the males and the females that WP's picks
    sent; each combiner side's arrivals, once for the pick's leg and once
    for the stream leg into the entry; the couples entering each growth
    server; each sink's arrivals.  One ``[Dynamic Object]`` row per class
    label with a nonzero count ends the list, sorted: ``MP`` and ``FP`` are
    the males and the females that reached the combiners, ``WP`` their sum
    (WP relabels each individual it emits by its sex), and ``Child_*`` the
    branch combiner's births.
    """
    states = {path.rsplit("/", 1)[-1]: state for path, state in handle.components()}
    marriages = [states[f"Marriage_{tag}"] for tag in BRANCHES]
    sinks = [states[f"NewPopulation_{tag}"] for tag in BRANCHES]
    married = [m.processed for m in marriages]
    members = [n + len(m.members) for n, m in zip(married, marriages)]
    parents = [n + len(m.parents) for n, m in zip(married, marriages)]
    entered = [s.stats.entered for s in sinks]
    rows: list[StatRow] = []
    for tag, m, n, p in zip(BRANCHES, marriages, married, parents):
        rows += [(f"Marriage_{tag}", "[MemberInputBuffer]", "Content", n),
                 (f"Marriage_{tag}", "[OutputBuffer]", "Content", m.left),
                 (f"Marriage_{tag}", "[ParentInputBuffer]", "Content", p),
                 (f"Marriage_{tag}", "[Processed]", "Throughput", n)]
    for tag, m, n in zip(BRANCHES, marriages, married):
        rows += [(f"PopulationG_{tag}", "[InputBuffer]", "Content", n),
                 (f"PopulationG_{tag}", "[OutputBuffer]", "Content", m.left),
                 (f"PopulationG_{tag}", "[Processed]", "Throughput", n)]
    rows += [(f"NewPopulation_{tag}", "[InputBuffer]", "Throughput", n)
             for tag, n in zip(BRANCHES, entered)]
    legs = [sum(members), sum(parents), *members, *parents, *members, *parents, *married, *entered]
    rows += [(f"Path{i}", "[Travelers]", "Throughput", n) for i, n in enumerate(legs, start=1)]
    labels = {"WP": sum(members) + sum(parents), "MP": sum(members), "FP": sum(parents),
              **{f"Child_{tag}": m.born for tag, m in zip(BRANCHES, marriages)}}
    rows += [(label, "[Dynamic Object]", "Throughput", n)
             for label, n in sorted(labels.items()) if n]
    affected: dict[str, int] = {}
    for sink in sinks:
        for label, count in sink.stats.affected_by_class.items():
            affected[label] = affected.get(label, 0) + count
    source = states["WP"]
    return RunStats(
        rows,
        created_total=source.factory.created_total,
        destroyed_individuals=sum(s.stats.destroyed_individuals for s in sinks),
        held_individuals=source.held_individuals() + sum(m.held_individuals() for m in marriages),
        affected_by_class=affected,
    )
