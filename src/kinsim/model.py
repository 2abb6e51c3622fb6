"""Experiment configuration and the two coupled models built from it.

``build_population_growth_model`` wires the marriage-and-births submodel:
two sources (male and female populations) feed a combiner that pairs one of
each into a marriage, a growth server whose completion trigger creates a
random number of children, and a sink that counts the new population.

``build_consanguinity_model`` extends it: a single whole-population source is
split by sex, each sex stream is split again into consanguineous and
non-consanguineous branches by routing weights, and each branch runs its own
marriage combiner, growth server (whose children receive a congenital
disorder draw) and new-population sink.

Objects are joined by direct couplings.  Every leg of the flow is counted by
a :class:`~kinsim.objects.Travelers` translate on its coupling and reported
as a ``Path<n>`` ``[Travelers]`` row, so the legs cost no kernel steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional

from .entities import EntityFactory
from .errors import ConfigurationError
from .genetics import ConsanguinityDegree, assign_disorder
from .kernel import AtomicSpec, Coupling, CoupledSpec, SimulationHandle
from .objects import (
    THROUGHPUT,
    RouteChoice,
    StatRow,
    Travelers,
    make_combiner,
    make_server,
    make_sink,
    make_source,
    make_splitter,
)
from .randomness import DiscreteDistribution, RngStream, make_distribution, substream

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
            max_arrivals=None if max_arrivals is None else _integer(max_arrivals),
        )


def _number(value) -> float:
    """A JSON number as a float; ``true``/``false`` are not numbers here."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """A JSON number with no fractional part as an int."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _check_keys(mapping: Mapping, known: tuple[str, ...]) -> Mapping:
    """``mapping`` itself; a key outside ``known`` raises ValueError."""
    for key in mapping:
        if key not in known:
            raise ValueError(f"unknown key {key!r}")
    return mapping


# The whole-population source of the consanguinity model, then the male and
# female sources of the population-growth model.
_SOURCE_NAMES = ("WP", "MP", "FP")


def _default_sources() -> dict[str, SourceSettings]:
    return {name: SourceSettings() for name in _SOURCE_NAMES}


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

    ``sex_split`` is the (male, female) fraction pair; ``routing_weights``
    carries the per-sex path weights for the consanguineous and
    non-consanguineous branches.  ``inbreeding_f``, when set, overrides the
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
        where a count belongs, a boolean where a number belongs).
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


def _parse_sex_split(split) -> tuple[float, float]:
    if isinstance(split, Mapping):
        _check_keys(split, (MALE, FEMALE))
        return _number(split[MALE]), _number(split[FEMALE])
    male, female = split
    return _number(male), _number(female)


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
    "run_length": _number,
    "replications": _integer,
    "base_seed": _integer,
    "sources": lambda sources: {
        **_default_sources(),
        **{name: SourceSettings.from_dict(sub)
           for name, sub in _check_keys(sources, _SOURCE_NAMES).items()},
    },
    "sex_split": _parse_sex_split,
    "routing_weights": lambda weights: {
        sex: {branch: _number(w) for branch, w in _check_keys(entry, (CONSANG, NON_CONSANG)).items()}
        for sex, entry in _check_keys(weights, (MALE, FEMALE)).items()
    },
    "offspring_distribution": dict,
    "allele_frequency": _number,
    "consanguinity_degree": _parse_degree,
    "inbreeding_f": lambda value: None if value is None else _number(value),
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
    male, female = config.sex_split
    for label, fraction in ((MALE, male), (FEMALE, female)):
        # Each sex is a weighted splitter choice, and a weight must be positive.
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
        for branch in (CONSANG, NON_CONSANG):
            weight = weights.get(branch)
            if weight is None or not 0 < weight < math.inf:
                violations.append(
                    Violation(f"routing_weights.{sex}.{branch}", "must be finite and > 0", weight)
                )
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


def _make_source(
    config: ModelConfig, name: str, factory: EntityFactory, stream: RngStream
) -> AtomicSpec:
    """The source ``name`` of ``config``, drawing its gaps from ``stream``."""
    settings = config.sources[name]
    return make_source(name, make_distribution(settings.interarrival), settings.max_arrivals,
                       factory=factory, stream=stream)


def build_population_growth_model(config: ModelConfig, replication: int = 0) -> CoupledSpec:
    """Marriage and births submodel: MP + FP sources into one combiner.

    The female source feeds the combiner's parent entry and the male source
    its member entry; each marriage then passes through the growth server,
    whose trigger creates children per the offspring distribution, and ends
    in the new-population sink together with its children.  The four legs
    are counted couplings, reported as ``Path1``-``Path4``.
    """
    _require_valid(config)
    root = substream(config.base_seed, replication)
    factory = EntityFactory()
    offspring_dist = make_distribution(config.offspring_distribution)
    offspring_stream = root.named("offspring")

    def on_growth(parent, now):
        count = offspring_dist.sample(offspring_stream)
        children = []
        for _ in range(count):
            child = factory.create("Child", now)
            factory.count_label("Child")
            children.append(child)
        return children

    components = {
        "MP": _make_source(config, "MP", factory, root.named("mp_interarrival")),
        "FP": _make_source(config, "FP", factory, root.named("fp_interarrival")),
        "Marriage": make_combiner(batch_quantity=1),
        "Population Growth": make_server(on_processed=on_growth),
        "New Population": make_sink(),
    }
    couplings = [
        Coupling("MP", "out", "Marriage", "member_in", Travelers("Path1")),
        Coupling("FP", "out", "Marriage", "parent_in", Travelers("Path2")),
        Coupling("Marriage", "out", "Population Growth", "in", Travelers("Path3")),
        Coupling("Population Growth", "out", "New Population", "in", Travelers("Path4")),
    ]
    return CoupledSpec(components, couplings, select=list(components))


def build_consanguinity_model(config: ModelConfig, replication: int = 0) -> CoupledSpec:
    """Full model: one whole-population source, sex and branch splits,
    two marriage combiners, two growth servers with disorder draws, two sinks.

    Flow: WP source -> sex splitter (relabels MP/FP) -> per-sex branch
    splitter (consanguineous or not: MP_C, MP_NC, FP_C, FP_NC) -> marriage
    combiners (female parent, male member) -> growth servers -> sinks: ten
    atomics.  The fourteen legs are counted couplings, reported as
    ``Path1``-``Path14``.  A branch splitter's coupling to its combiner
    carries two leg names, the branch leg and the stream leg (Path3 and
    Path7 for MP_C), because every entity crosses both together.
    """
    _require_valid(config)
    root = substream(config.base_seed, replication)
    factory = EntityFactory()
    offspring_dist = make_distribution(config.offspring_distribution)

    def branch_splitter(sex: str, stream_name: str):
        weights = config.routing_weights[sex]
        return make_splitter(
            [RouteChoice(CONSANG, weights[CONSANG]), RouteChoice(NON_CONSANG, weights[NON_CONSANG])],
            stream=root.named(stream_name),
        )

    def growth_server(label, degree, override, offspring_stream, disorder_stream):
        def on_growth(parent, now):
            count = offspring_dist.sample(offspring_stream)
            children = []
            for _ in range(count):
                child = factory.create(label, now)
                factory.count_label(label)
                assign_disorder(
                    child, degree, config.allele_frequency, disorder_stream,
                    inbreeding_override=override,
                )
                children.append(child)
            return children
        return make_server(on_processed=on_growth)

    male_fraction, female_fraction = config.sex_split
    components = {
        "WP": _make_source(config, "WP", factory, root.named("wp_interarrival")),
        "SexSplit": make_splitter(
            [
                RouteChoice(MALE, male_fraction, relabel="MP"),
                RouteChoice(FEMALE, female_fraction, relabel="FP"),
            ],
            stream=root.named("sex_split"),
            factory=factory,
        ),
        "MaleBranch": branch_splitter(MALE, "male_branch"),
        "FemaleBranch": branch_splitter(FEMALE, "female_branch"),
        "Marriage_C": make_combiner(batch_quantity=1),
        "Marriage_NC": make_combiner(batch_quantity=1),
        "PopulationG_C": growth_server(
            "Child_C", config.consanguinity_degree, config.inbreeding_f,
            root.named("offspring_consanguineous"), root.named("disorder_consanguineous"),
        ),
        "PopulationG_NC": growth_server(
            "Child_NC", ConsanguinityDegree.UNRELATED, None,
            root.named("offspring_nonconsanguineous"), root.named("disorder_nonconsanguineous"),
        ),
        "NewPopulation_C": make_sink(),
        "NewPopulation_NC": make_sink(),
    }
    couplings = [
        Coupling("WP", "out", "SexSplit", "in"),
        Coupling("SexSplit", MALE, "MaleBranch", "in", Travelers("Path1")),
        Coupling("SexSplit", FEMALE, "FemaleBranch", "in", Travelers("Path2")),
        Coupling("MaleBranch", CONSANG, "Marriage_C", "member_in", Travelers("Path3", "Path7")),
        Coupling("MaleBranch", NON_CONSANG, "Marriage_NC", "member_in", Travelers("Path4", "Path8")),
        Coupling("FemaleBranch", CONSANG, "Marriage_C", "parent_in", Travelers("Path5", "Path9")),
        Coupling("FemaleBranch", NON_CONSANG, "Marriage_NC", "parent_in",
                 Travelers("Path6", "Path10")),
        Coupling("Marriage_C", "out", "PopulationG_C", "in", Travelers("Path11")),
        Coupling("Marriage_NC", "out", "PopulationG_NC", "in", Travelers("Path12")),
        Coupling("PopulationG_C", "out", "NewPopulation_C", "in", Travelers("Path13")),
        Coupling("PopulationG_NC", "out", "NewPopulation_NC", "in", Travelers("Path14")),
    ]
    return CoupledSpec(components, couplings, select=list(components))


# ---------------------------------------------------------------------------
# Statistics harvesting


@dataclass
class RunStats:
    """Raw statistics of one finished replication.

    ``rows`` are (object name, data source, category, value) tuples in a
    stable order; the conservation fields count individuals so that
    ``created_total == destroyed_individuals + held_individuals`` holds
    exactly at any observation instant.
    """

    rows: list[StatRow] = field(default_factory=list)
    label_counts: dict[str, int] = field(default_factory=dict)
    created_total: int = 0
    destroyed_units: int = 0
    destroyed_individuals: int = 0
    held_individuals: int = 0
    destroyed_by_class: dict[str, int] = field(default_factory=dict)
    affected_by_class: dict[str, int] = field(default_factory=dict)

    def value(self, object_name: str, data_source: str) -> int:
        for name, source, _, value in self.rows:
            if name == object_name and source == data_source:
                return value
        raise KeyError((object_name, data_source))


def collect_run_stats(handle: SimulationHandle) -> RunStats:
    """Harvest report rows and conservation totals from a run, at any instant.

    Every atomic must be a :mod:`kinsim.objects` object.  Each reports its
    own rows through ``report_rows(name)``, in component order; held
    individuals and the sink tallies of its counters are summed over all
    of them alike.  Counted legs follow, read from the
    :class:`~kinsim.objects.Travelers` on the couplings of every coupled
    model in the hierarchy: the root's couplings first, then each nested
    coupled model's, depth first in the order its components are declared.
    One ``[Dynamic Object]`` row per class label counted by the entity
    factories ends the list, sorted.
    """
    stats = RunStats()
    factories: dict[int, EntityFactory] = {}
    for name, state in handle.components():
        stats.rows.extend(state.report_rows(name))
        stats.held_individuals += state.held_individuals()
        s = state.stats
        stats.destroyed_units += s.destroyed
        stats.destroyed_individuals += s.destroyed_individuals
        _add_counts(stats.destroyed_by_class, s.destroyed_by_class)
        _add_counts(stats.affected_by_class, s.affected_by_class)
        factory = getattr(state, "factory", None)
        if factory is not None:
            factories[id(factory)] = factory
    for coupling in _all_couplings(handle.model):
        if isinstance(coupling.translate, Travelers):
            stats.rows.extend(coupling.translate.report_rows())
    for factory in factories.values():
        stats.created_total += factory.created_total
        _add_counts(stats.label_counts, factory.label_counts)
    for label in sorted(stats.label_counts):
        stats.rows.append((label, DYNAMIC_OBJECT, THROUGHPUT, stats.label_counts[label]))
    return stats


def _add_counts(total: dict[str, int], counts: Mapping[str, int]) -> None:
    for label, count in counts.items():
        total[label] = total.get(label, 0) + count


def _all_couplings(spec) -> Iterator[Coupling]:
    """Every coupling of ``spec`` and of the coupled models nested in it."""
    if isinstance(spec, CoupledSpec):
        yield from spec.couplings
        for child in spec.components.values():
            yield from _all_couplings(child)
