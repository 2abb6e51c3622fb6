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
routing costs no kernel step.  Each leg of the flow is reported as a
``Path<n>`` ``[Travelers]`` row, the entities that arrived over it: the
arrivals at the input ports it leads to, listed in ``_LEGS`` and read off
the objects' own counters, so counting costs no step either.  The paper's
model passes each couple through a growth server of its own; here the
combiner's trigger does that work as it marries them, and the server's
rows and the leg into it are read off the combiner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping, Optional

from .entities import Entity, EntityFactory
from .errors import ConfigurationError
from .genetics import ConsanguinityDegree, assign_disorder
from .kernel import AtomicSpec, Coupling, CoupledSpec, SimulationHandle
from .objects import (
    CONTENT,
    INPUT_BUFFER,
    OUTPUT_BUFFER,
    PORT_IN,
    PORT_MEMBER_IN,
    PORT_PARENT_IN,
    PROCESSED,
    THROUGHPUT,
    TRAVELERS,
    StatRow,
    WeightedChoice,
    make_combiner,
    make_sink,
    make_source,
)
from .randomness import DiscreteDistribution, RngStream, make_distribution, read_number, substream

MALE = "male"
FEMALE = "female"
CONSANG = "consanguineous"
NON_CONSANG = "non_consanguineous"

DYNAMIC_OBJECT = "[Dynamic Object]"

_FRACTION_TOLERANCE = 1e-9

# Offspring-per-marriage law used by default: 10% of couples have no child,
# 20% one, 30% two, 30% three, 8% four and 2% five (cumulative form).
DEFAULT_OFFSPRING_PAIRS = [[0, 0.10], [1, 0.30], [2, 0.60], [3, 0.90], [4, 0.98], [5, 1.00]]


@dataclass
class SourceSettings:
    """Interarrival law and arrival cap for one entity source."""

    interarrival: dict = field(default_factory=lambda: {"type": "constant", "value": 1.0})
    max_arrivals: Optional[int] = None

    def to_dict(self) -> dict:
        return {"interarrival": dict(self.interarrival), "max_arrivals": self.max_arrivals}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SourceSettings":
        """Parse one ``sources`` entry; an unknown key or a non-integral count
        raises ValueError, which :meth:`ModelConfig.from_dict` reports."""
        _check_keys(data, ("interarrival", "max_arrivals"))
        max_arrivals = data.get("max_arrivals")
        return cls(
            interarrival=dict(data.get("interarrival", {"type": "constant", "value": 1.0})),
            max_arrivals=None if max_arrivals is None else read_number(max_arrivals, integral=True),
        )


def _check_keys(mapping: Mapping, known: tuple[str, ...]) -> Mapping:
    """``mapping`` itself; a key outside ``known`` raises ValueError."""
    for key in mapping:
        if key not in known:
            raise ValueError(f"unknown key {key!r}")
    return mapping


# The whole-population source of the consanguinity model.
_SOURCE_NAMES = ("WP",)

# The male and female sources of the population-growth submodel, which was
# removed; a config that still sets them is told so, not just "unknown key".
_REMOVED_SOURCE_NAMES = ("MP", "FP")


def _default_sources() -> dict[str, SourceSettings]:
    return {name: SourceSettings() for name in _SOURCE_NAMES}


def _parse_sources(sources: Mapping) -> dict[str, SourceSettings]:
    for name in _REMOVED_SOURCE_NAMES:
        if name in sources:
            raise ValueError(f"source {name!r} belonged to the population-growth submodel, "
                             f"which was removed; only 'WP' remains")
    return {
        **_default_sources(),
        **{name: SourceSettings.from_dict(sub)
           for name, sub in _check_keys(sources, _SOURCE_NAMES).items()},
    }


def _default_routing() -> dict[str, dict[str, float]]:
    # Path weights per sex: consanguineous vs non-consanguineous.  The male
    # pair normalizes to 35.7/101.6 and the female pair to 35.7/99.9.
    return {
        MALE: {CONSANG: 35.7, NON_CONSANG: 65.9},
        FEMALE: {CONSANG: 35.7, NON_CONSANG: 64.2},
    }


@dataclass
class ModelConfig:
    """Every tunable of the consanguinity experiment, JSON round-trippable.

    ``sex_split`` is the (male, female) fraction pair, a ``{"male",
    "female"}`` mapping in the JSON form; ``routing_weights`` carries the
    per-sex path weights for the consanguineous and non-consanguineous
    branches.  ``inbreeding_f``, when set, overrides the
    coefficient implied by ``consanguinity_degree`` for the consanguineous
    branch.  ``metadata`` holds free-text experiment-frame labels (region,
    religion, commitment) that do not influence the dynamics.
    """

    run_length: float = 2000.0
    replications: int = 10
    base_seed: int = 42
    sources: dict[str, SourceSettings] = field(default_factory=_default_sources)
    sex_split: tuple[float, float] = (0.595, 0.405)
    routing_weights: dict[str, dict[str, float]] = field(default_factory=_default_routing)
    offspring_distribution: dict = field(
        default_factory=lambda: {"type": "discrete", "pairs": [list(p) for p in DEFAULT_OFFSPRING_PAIRS]}
    )
    allele_frequency: float = 0.01
    consanguinity_degree: ConsanguinityDegree = ConsanguinityDegree.FIRST_COUSIN
    inbreeding_f: Optional[float] = None
    metadata: dict[str, str] = field(
        default_factory=lambda: {"region": "", "religion": "", "commitment": ""}
    )

    @classmethod
    def default(cls) -> "ModelConfig":
        return cls()

    def to_dict(self) -> dict:
        return {
            "run_length": self.run_length,
            "replications": self.replications,
            "base_seed": self.base_seed,
            "sources": {name: s.to_dict() for name, s in self.sources.items()},
            "sex_split": {MALE: self.sex_split[0], FEMALE: self.sex_split[1]},
            "routing_weights": {sex: dict(w) for sex, w in self.routing_weights.items()},
            "offspring_distribution": dict(self.offspring_distribution),
            "allele_frequency": self.allele_frequency,
            "consanguinity_degree": self.consanguinity_degree.value,
            "inbreeding_f": self.inbreeding_f,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelConfig":
        """Parse the JSON form; absent fields, and absent sources, keep their defaults.

        An unknown key raises :class:`ConfigurationError` naming the field:
        a top-level field, a source name or a key in a ``sources`` entry, a
        sex in ``sex_split``, or a sex or branch in ``routing_weights``.  So
        does a field whose value has the wrong shape or type (a fraction
        where a count belongs, a string or a boolean where a number
        belongs).  The error for a source ``MP`` or ``FP`` says that the
        population-growth submodel, which read them, was removed.
        Values of the right shape are checked by :func:`validate_config`,
        not here.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"config must be a JSON object, got {type(data).__name__}")
        for name in data:
            if name not in _FIELD_PARSERS:
                raise ConfigurationError(f"malformed {name}: unknown key")
        config = cls()
        for name, parse in _FIELD_PARSERS.items():
            if name not in data:
                continue
            try:
                setattr(config, name, parse(data[name]))
            except KeyError as exc:
                raise ConfigurationError(f"malformed {name}: missing key {exc}") from None
            except (ValueError, TypeError, AttributeError) as exc:
                raise ConfigurationError(f"malformed {name}: {exc}") from None
        return config


def _parse_degree(raw) -> ConsanguinityDegree:
    try:
        return ConsanguinityDegree(raw)
    except ValueError:
        names = [d.value for d in ConsanguinityDegree]
        raise ConfigurationError(
            f"unknown consanguinity_degree {raw!r}; expected one of {names}"
        ) from None


# ModelConfig field -> parser of its JSON value, in parse order.
_FIELD_PARSERS = {
    "run_length": read_number,
    "replications": partial(read_number, integral=True),
    "base_seed": partial(read_number, integral=True),
    "sources": _parse_sources,
    "sex_split": lambda split: (read_number(_check_keys(split, (MALE, FEMALE))[MALE]),
                                read_number(split[FEMALE])),
    "routing_weights": lambda weights: {
        sex: {branch: read_number(w) for branch, w in _check_keys(entry, (CONSANG, NON_CONSANG)).items()}
        for sex, entry in _check_keys(weights, (MALE, FEMALE)).items()
    },
    "offspring_distribution": dict,
    "allele_frequency": read_number,
    "consanguinity_degree": _parse_degree,
    "inbreeding_f": lambda value: None if value is None else read_number(value),
    "metadata": lambda metadata: {str(k): str(v) for k, v in metadata.items()},
}


@dataclass(frozen=True)
class Violation:
    """One config-invariant failure: which field, what rule, what was seen."""

    field: str
    constraint: str
    observed: Any

    def __str__(self) -> str:
        return f"{self.field}: {self.constraint} (got {self.observed!r})"


def validate_config(config: ModelConfig) -> list[Violation]:
    """Return every violated ModelConfig invariant; empty means valid."""
    violations: list[Violation] = []

    # Chained comparisons also reject NaN and Infinity, which JSON admits.
    if not 0 < config.run_length < math.inf:
        violations.append(Violation("run_length", "must be finite and > 0", config.run_length))
    if config.replications < 1:
        violations.append(Violation("replications", "must be >= 1", config.replications))
    # Seeds are mixed as 64-bit words, so a seed outside them would alias one inside.
    if not 0 <= config.base_seed < 2**64:
        violations.append(Violation("base_seed", "must lie in [0, 2**64)", config.base_seed))
    male, female = config.sex_split
    for label, fraction in ((MALE, male), (FEMALE, female)):
        # Each sex is a route of a weighted choice, and a weight must be positive.
        if not 0.0 < fraction < 1.0:
            violations.append(Violation(f"sex_split.{label}", "must lie in (0, 1)", fraction))
    if abs(male + female - 1.0) > _FRACTION_TOLERANCE:
        violations.append(
            Violation("sex_split", f"fractions must sum to 1 within {_FRACTION_TOLERANCE}", male + female)
        )
    for sex in (MALE, FEMALE):
        weights = config.routing_weights.get(sex)
        if weights is None:
            violations.append(Violation(f"routing_weights.{sex}", "missing", None))
            continue
        valid = True
        for branch in (CONSANG, NON_CONSANG):
            weight = weights.get(branch)
            if weight is None or not 0 < weight < math.inf:
                valid = False
                violations.append(
                    Violation(f"routing_weights.{sex}.{branch}", "must be finite and > 0", weight)
                )
        # The branch pick adds the pair, and an infinite total names NC every time.
        if valid and weights[CONSANG] + weights[NON_CONSANG] == math.inf:
            violations.append(Violation(f"routing_weights.{sex}", "must have a finite sum", math.inf))
    for name in _SOURCE_NAMES:
        settings = config.sources.get(name)
        if settings is None:
            violations.append(Violation(f"sources.{name}", "missing", None))
            continue
        try:
            low, high = make_distribution(settings.interarrival).support
        except ConfigurationError as exc:
            violations.append(
                Violation(f"sources.{name}.interarrival", "must be a valid distribution", str(exc))
            )
        else:
            # A negative gap breaks the kernel's contract; gaps that are all 0
            # never let the clock advance.
            if low < 0 or high == 0:
                violations.append(Violation(
                    f"sources.{name}.interarrival", "must draw no negative value and not only 0",
                    settings.interarrival,
                ))
        if settings.max_arrivals is not None and settings.max_arrivals < 0:
            violations.append(
                Violation(f"sources.{name}.max_arrivals", "must be >= 0 or null", settings.max_arrivals)
            )
    try:
        offspring = make_distribution(config.offspring_distribution)
        if not isinstance(offspring, DiscreteDistribution):
            violations.append(
                Violation("offspring_distribution", "must be a discrete distribution",
                          config.offspring_distribution.get("type"))
            )
        elif any(v < 0 for v in offspring.values):
            violations.append(
                Violation("offspring_distribution", "offspring counts must be >= 0", offspring.values)
            )
    except ConfigurationError as exc:
        violations.append(Violation("offspring_distribution", "must be a valid distribution", str(exc)))
    if not 0.0 <= config.allele_frequency <= 1.0:
        violations.append(Violation("allele_frequency", "must lie in [0, 1]", config.allele_frequency))
    if config.inbreeding_f is not None and not 0.0 <= config.inbreeding_f <= 1.0:
        violations.append(Violation("inbreeding_f", "must lie in [0, 1] or null", config.inbreeding_f))
    return violations


def _require_valid(config: ModelConfig) -> None:
    violations = validate_config(config)
    if violations:
        summary = "; ".join(str(v) for v in violations)
        raise ConfigurationError(f"invalid model config: {summary}")


def _marriage(
    label: str,
    factory: EntityFactory,
    offspring_dist: DiscreteDistribution,
    offspring_stream: RngStream,
    disorder: Callable[[Entity], Entity],
) -> AtomicSpec:
    """A marriage combiner whose every couple gets ``offspring_dist`` children.

    The children, drawn from ``offspring_stream``, are born under ``label``
    and counted on ``factory``; ``disorder`` draws each child's
    ``affected`` flag at birth.
    """
    def on_growth(parent: Entity) -> list[Entity]:
        children = []
        for _ in range(offspring_dist.sample(offspring_stream)):
            child = factory.create(label)
            factory.count_label(label)
            disorder(child)
            children.append(child)
        return children
    return make_combiner(on_growth)


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
    _require_valid(config)
    root = substream(config.base_seed, replication)
    factory = EntityFactory()
    offspring_dist = make_distribution(config.offspring_distribution)

    def disorder(stream_name, degree, override):
        return partial(assign_disorder, degree=degree, allele_frequency=config.allele_frequency,
                       stream=root.named(stream_name), inbreeding_override=override)

    sex = WeightedChoice(dict(zip(("MP", "FP"), config.sex_split)), stream=root.named("sex_split"))
    branch = {
        label: WeightedChoice({f"{label}_C": config.routing_weights[s][CONSANG],
                               f"{label}_NC": config.routing_weights[s][NON_CONSANG]},
                              stream=root.named(f"{s}_branch"))
        for label, s in (("MP", MALE), ("FP", FEMALE))
    }

    def route(individual: Entity) -> str:
        label = sex.pick()
        individual.class_label = label
        factory.count_label(label)
        return branch[label].pick()

    wp = config.sources["WP"]
    components = {
        "WP": make_source("WP", make_distribution(wp.interarrival), wp.max_arrivals,
                          factory=factory, stream=root.named("wp_interarrival"), route=route,
                          ports=("MP_C", "MP_NC", "FP_C", "FP_NC")),
        "Marriage_C": _marriage(
            "Child_C", factory, offspring_dist, root.named("offspring_consanguineous"),
            disorder("disorder_consanguineous", config.consanguinity_degree, config.inbreeding_f),
        ),
        "Marriage_NC": _marriage(
            "Child_NC", factory, offspring_dist, root.named("offspring_nonconsanguineous"),
            disorder("disorder_nonconsanguineous", ConsanguinityDegree.UNRELATED, None),
        ),
        "NewPopulation_C": make_sink(),
        "NewPopulation_NC": make_sink(),
    }
    couplings = [
        Coupling("WP", "MP_C", "Marriage_C", "member_in"),
        Coupling("WP", "MP_NC", "Marriage_NC", "member_in"),
        Coupling("WP", "FP_C", "Marriage_C", "parent_in"),
        Coupling("WP", "FP_NC", "Marriage_NC", "parent_in"),
        Coupling("Marriage_C", "out", "NewPopulation_C", "in"),
        Coupling("Marriage_NC", "out", "NewPopulation_NC", "in"),
    ]
    return CoupledSpec(components, couplings)


# Each leg of the consanguinity model -> the (component, input port) pairs
# whose arrivals it sums.  A leg from WP's picks to a combiner entry and the
# stream leg into that entry carry the same individuals (Path3 and Path7);
# the sex legs take both entries of their side.  A leg into a growth server
# of the paper's model (Path11 and Path12) is crossed by each couple as it
# is married: port None counts the combiner's marriages.
_MEMBERS_C, _MEMBERS_NC = ("Marriage_C", PORT_MEMBER_IN), ("Marriage_NC", PORT_MEMBER_IN)
_PARENTS_C, _PARENTS_NC = ("Marriage_C", PORT_PARENT_IN), ("Marriage_NC", PORT_PARENT_IN)
_LEGS = {
    "Path1": (_MEMBERS_C, _MEMBERS_NC),
    "Path2": (_PARENTS_C, _PARENTS_NC),
    "Path3": (_MEMBERS_C,),
    "Path4": (_MEMBERS_NC,),
    "Path5": (_PARENTS_C,),
    "Path6": (_PARENTS_NC,),
    "Path7": (_MEMBERS_C,),
    "Path8": (_MEMBERS_NC,),
    "Path9": (_PARENTS_C,),
    "Path10": (_PARENTS_NC,),
    "Path11": (("Marriage_C", None),),
    "Path12": (("Marriage_NC", None),),
    "Path13": (("NewPopulation_C", PORT_IN),),
    "Path14": (("NewPopulation_NC", PORT_IN),),
}

# The growth server of each branch in the paper's model -> the combiner
# whose trigger does its work.  Each couple arrives there and is processed
# as it is married, and leaves with its children.
_GROWTH = {"PopulationG_C": "Marriage_C", "PopulationG_NC": "Marriage_NC"}


# ---------------------------------------------------------------------------
# Statistics harvesting


@dataclass
class RunStats:
    """Raw statistics of one finished replication.

    ``rows`` are (object name, data source, category, value) tuples in a
    stable order; the count of a class label is its ``[Dynamic Object]``
    row, read with :meth:`value`.  The conservation fields count
    individuals so that ``created_total == destroyed_individuals +
    held_individuals`` holds exactly at any observation instant.
    """

    rows: list[StatRow] = field(default_factory=list)
    created_total: int = 0
    destroyed_individuals: int = 0
    held_individuals: int = 0
    affected_by_class: dict[str, int] = field(default_factory=dict)

    def value(self, object_name: str, data_source: str) -> int:
        for name, source, _, value in self.rows:
            if name == object_name and source == data_source:
                return value
        raise KeyError((object_name, data_source))


def collect_run_stats(handle: SimulationHandle) -> RunStats:
    """Harvest report rows and conservation totals from a run, at any instant.

    ``handle`` must run a model built by :func:`build_consanguinity_model`.
    Each object reports its own rows through ``report_rows(name)``, in
    component order, with the rows of the growth servers in ``_GROWTH``
    after the combiners'; held individuals and the sink tallies of its
    counters are summed over all of them alike.  One ``[Travelers]`` row per
    leg follows, ``Path1`` to ``Path14``: the entities that arrived over it,
    the sum of ``arrivals(port)``, or of the marriages for port None, over
    its entry in ``_LEGS``.  One
    ``[Dynamic Object]`` row per class label counted by the model's one
    entity factory, the one its source ``WP`` holds, ends the list, sorted.
    """
    stats = RunStats()
    states = dict(handle.components())
    for name, state in states.items():
        if name == "NewPopulation_C":  # the growth servers' place, before the sinks
            for growth, marriage in _GROWTH.items():
                married, left = states[marriage].stats.processed, states[marriage].left
                stats.rows += [(growth, INPUT_BUFFER, CONTENT, married),
                               (growth, OUTPUT_BUFFER, CONTENT, left),
                               (growth, PROCESSED, THROUGHPUT, married)]
        stats.rows.extend(state.report_rows(name))
        stats.held_individuals += state.held_individuals()
        stats.destroyed_individuals += state.stats.destroyed_individuals
        _add_counts(stats.affected_by_class, state.stats.affected_by_class)
    for leg, ends in _LEGS.items():
        arrived = sum(states[name].stats.processed if port is None else states[name].arrivals(port)
                      for name, port in ends)
        stats.rows.append((leg, TRAVELERS, THROUGHPUT, arrived))
    factory = states["WP"].factory
    stats.created_total = factory.created_total
    for label, count in sorted(factory.label_counts.items()):
        stats.rows.append((label, DYNAMIC_OBJECT, THROUGHPUT, count))
    return stats


def _add_counts(total: dict[str, int], counts: Mapping[str, int]) -> None:
    for label, count in counts.items():
        total[label] = total.get(label, 0) + count
