"""Model wiring: config validation, the builder, flow identities, conservation."""

from __future__ import annotations

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import offspring_moments
from kinsim import (
    ConsanguinityDegree,
    EntityFactory,
    ModelConfig,
    SourceSettings,
    build_consanguinity_model,
    collect_run_stats,
    disorder_probability,
    initialize,
    validate_config,
)
from kinsim.errors import ConfigurationError
from kinsim.model import DEFAULT_OFFSPRING_PAIRS
from kinsim.objects import CombinerState, SinkState, SourceState
from kinsim.randomness import substream

MALE_C_FRACTION = 35.7 / (35.7 + 65.9)
FEMALE_C_FRACTION = 35.7 / (35.7 + 64.2)


@st.composite
def valid_configs(draw) -> ModelConfig:
    """Any config that ``validate_config`` accepts, over every field."""
    positive = st.floats(1e-6, 1e6)
    unit = st.floats(0.0, 1.0)
    interarrivals = st.one_of(
        st.builds(lambda v: {"type": "constant", "value": v}, positive),
        st.builds(lambda low, width: {"type": "uniform", "low": low, "high": low + width},
                  st.floats(0.0, 1e3), positive),
        st.builds(lambda m: {"type": "exponential", "mean": m}, positive),
    )
    offspring = draw(st.lists(st.integers(0, 8), min_size=1, max_size=6, unique=True))
    cums = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=len(offspring) - 1,
                                max_size=len(offspring) - 1, unique=True)))
    male = draw(st.floats(0.01, 0.99))
    return ModelConfig(
        run_length=draw(st.floats(1e-3, 1e6)),
        replications=draw(st.integers(1, 1000)),
        base_seed=draw(st.integers(0, 2**64 - 1)),
        sources={
            "WP": SourceSettings(draw(interarrivals), draw(st.none() | st.integers(0, 10**6)))
        },
        sex_split=(male, 1.0 - male),
        routing_weights={
            sex: {"consanguineous": draw(positive), "non_consanguineous": draw(positive)}
            for sex in ("male", "female")
        },
        offspring_distribution={"type": "discrete",
                                "pairs": [[v, c] for v, c in zip(offspring, cums + [1.0])]},
        allele_frequency=draw(unit),
        consanguinity_degree=draw(st.sampled_from(list(ConsanguinityDegree))),
        inbreeding_f=draw(st.none() | unit),
        metadata=draw(st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=3)),
    )


@st.composite
def any_configs(draw) -> ModelConfig:
    """Configs with no, one or a few fields set to an invalid value.

    Valid interarrival laws draw gaps of at least 0.05 on average, so a
    short run stays short.
    """
    broken = draw(st.sets(st.sampled_from([
        "run_length", "replications", "base_seed", "sources", "sex_split", "routing_weights",
        "offspring_distribution", "allele_frequency", "inbreeding_f",
    ]), max_size=3))

    def pick(name, valid, invalid):
        return draw(invalid if name in broken else valid)

    bad = st.sampled_from([0.0, -1.0, math.nan, math.inf])
    gap = st.floats(0.05, 5.0)
    law = {
        "constant": lambda v: {"type": "constant", "value": v},
        "uniform": lambda low, high: {"type": "uniform", "low": low, "high": high},
        "exponential": lambda m: {"type": "exponential", "mean": m},
        "discrete": lambda pairs: {"type": "discrete", "pairs": pairs},
    }
    interarrival = st.one_of(
        st.builds(law["constant"], gap),
        st.builds(law["uniform"], st.sampled_from([0.0, 0.1]), st.sampled_from([1.0, 3.0])),
        st.builds(law["exponential"], gap),
        st.just(law["discrete"]([[0, 0.5], [1, 1.0]])),
    )
    bad_interarrival = st.one_of(
        st.builds(law["constant"], bad),
        st.sampled_from([law["uniform"](-1.0, 1.0), law["uniform"](0.0, 0.0), law["uniform"](2.0, 1.0)]),
        st.builds(law["exponential"], bad),
        st.sampled_from([law["discrete"]([[0, 1.0]]), law["discrete"]([[-1, 0.5], [1, 1.0]]),
                         {"type": "gamma", "shape": 2.0}, {"value": 1.0}]),
    )
    cap = st.none() | st.integers(0, 50)
    offspring = st.sampled_from([[list(p) for p in DEFAULT_OFFSPRING_PAIRS], [[0, 1.0]], [[2, 1.0]],
                                 [[0, 0.5], [1, 1.0]]]).map(law["discrete"])
    bad_offspring = st.sampled_from([
        law["discrete"](pairs) for pairs in
        ([[-1, 0.5], [1, 1.0]], [[1, 0.5]], [[1.5, 1.0]], [[2, 0.6], [1, 0.3]], [])
    ] + [law["constant"](2.0), {"type": "poisson", "mean": 2.0}])
    weight = st.floats(1e-3, 1e3)
    weights = st.fixed_dictionaries({"consanguineous": weight, "non_consanguineous": weight})
    bad_weights = st.one_of(
        st.fixed_dictionaries({"consanguineous": bad, "non_consanguineous": weight}),
        st.fixed_dictionaries({"consanguineous": weight, "non_consanguineous": bad}),
        st.just({"consanguineous": 1.0}),
        st.just({"consanguineous": 1e308, "non_consanguineous": 1e308}),
    )
    male = draw(st.floats(0.01, 0.99))
    unit = st.floats(0.0, 1.0)
    bad_unit = st.sampled_from([-0.1, 1.5, math.nan])
    return ModelConfig(
        run_length=pick("run_length", st.floats(0.5, 1e6), bad),
        replications=pick("replications", st.integers(1, 20), st.integers(-1, 0)),
        base_seed=pick("base_seed", st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64])),
        sources=pick(
            "sources",
            st.builds(lambda wp: {"WP": wp}, st.builds(SourceSettings, interarrival, cap)),
            st.just({}) | st.builds(lambda wp: {"WP": wp}, st.one_of(
                st.builds(SourceSettings, bad_interarrival, cap),
                st.builds(SourceSettings, interarrival, st.integers(-3, -1)),
            )),
        ),
        sex_split=pick("sex_split", st.just((male, 1.0 - male)),
                        st.sampled_from([(0.0, 1.0), (0.7, 0.7), (1.5, -0.5), (math.nan, 0.5)])),
        routing_weights=pick(
            "routing_weights",
            st.fixed_dictionaries({"male": weights, "female": weights}),
            st.fixed_dictionaries({"male": bad_weights, "female": weights})
            | st.fixed_dictionaries({"male": weights}),
        ),
        offspring_distribution=pick("offspring_distribution", offspring, bad_offspring),
        allele_frequency=pick("allele_frequency", unit, bad_unit),
        consanguinity_degree=draw(st.sampled_from(list(ConsanguinityDegree))),
        inbreeding_f=pick("inbreeding_f", st.none() | unit, bad_unit),
    )


def trigger_flags(spec, marriage, label, couples=1000):
    """The affected flags of the children that ``marriage``'s trigger gives
    ``couples`` couples, checking that each child is born under ``label``."""
    trigger = spec.components[marriage].initial_state.on_processed
    factory = EntityFactory()
    children = [child for _ in range(couples) for child in trigger(factory.create("FP"))]
    assert {child.class_label for child in children} == {label}
    return [child.affected for child in children]


def draws_below(config, branch, n, f):
    """Whether each of the first ``n`` draws of ``branch``'s disorder stream
    falls below the disorder probability at ``config``'s q and ``f``."""
    stream = substream(config.base_seed, 0).named(f"disorder_{branch}")
    p = disorder_probability(config.allele_frequency, f)
    return [stream.uniform() < p for _ in range(n)]


def run_model(builder, config, replication=0, until=None):
    handle = initialize(builder(config, replication))
    handle.run_until(config.run_length if until is None else until)
    return collect_run_stats(handle)


class TestValidateConfig:
    def test_defaults_are_valid(self):
        assert validate_config(ModelConfig.default()) == []

    @pytest.mark.parametrize("seed, flagged", [(0, False), (2**64 - 1, False), (-1, True), (2**64, True)])
    def test_base_seed_must_fit_64_bits(self, seed, flagged):
        config = ModelConfig.default()
        config.base_seed = seed
        assert [v.field for v in validate_config(config)] == (["base_seed"] if flagged else [])

    def test_sex_split_must_sum_to_one(self):
        config = ModelConfig.default()
        config.sex_split = (0.7, 0.7)
        violations = validate_config(config)
        assert any("sum to 1" in v.constraint for v in violations)
        assert any(v.field == "sex_split" for v in violations)

    @pytest.mark.parametrize("split", [(1.0, 0.0), (0.0, 1.0), (1.5, -0.5)])
    def test_sex_fraction_outside_open_unit_interval_flagged(self, split):
        # Each sex is a route of a weighted choice, whose weight must be positive.
        config = ModelConfig.default()
        config.sex_split = split
        violations = validate_config(config)
        assert [(v.field, v.constraint, v.observed) for v in violations] == [
            ("sex_split.male", "must lie in (0, 1)", split[0]),
            ("sex_split.female", "must lie in (0, 1)", split[1]),
        ]

    def test_zero_replications_flagged(self):
        config = ModelConfig.default()
        config.replications = 0
        violations = validate_config(config)
        assert [v.field for v in violations] == ["replications"]

    def test_weights_whose_sum_overflows_flagged(self):
        # Each weight is finite, but the branch pick's total is not.
        config = ModelConfig.default()
        config.routing_weights["male"] = {"consanguineous": 1e308, "non_consanguineous": 1e308}
        violations = validate_config(config)
        assert [(v.field, v.constraint) for v in violations] == [
            ("routing_weights.male", "must have a finite sum")
        ]
        with pytest.raises(ConfigurationError, match="routing_weights.male"):
            build_consanguinity_model(config)

    def test_nonpositive_weight_flagged(self):
        config = ModelConfig.default()
        config.routing_weights["male"]["consanguineous"] = 0.0
        violations = validate_config(config)
        assert any(v.field == "routing_weights.male.consanguineous" for v in violations)

    @pytest.mark.parametrize("field, value", [
        ("run_length", math.inf),
        ("routing_weights.male.consanguineous", math.nan),
        ("routing_weights.female.non_consanguineous", math.inf),
    ])
    def test_nonfinite_number_flagged(self, field, value):
        config = ModelConfig.default()
        if field == "run_length":
            config.run_length = value
        else:
            _, sex, branch = field.split(".")
            config.routing_weights[sex][branch] = value
        assert [v.field for v in validate_config(config)] == [field]

    def test_nonfinite_interarrival_flagged(self):
        config = ModelConfig.default()
        config.sources["WP"].interarrival = {"type": "constant", "value": math.nan}
        violations = validate_config(config)
        assert [(v.field, v.constraint) for v in violations] == [
            ("sources.WP.interarrival", "must be a valid distribution")
        ]

    @pytest.mark.parametrize("interarrival", [
        {"type": "constant", "value": 0.0},
        {"type": "constant", "value": -1.0},
        {"type": "uniform", "low": -1.0, "high": 1.0},
        {"type": "uniform", "low": 0.0, "high": 0.0},
        {"type": "discrete", "pairs": [[0, 1.0]]},
    ], ids=["constant-0", "constant-negative", "uniform-negative-low", "uniform-0", "discrete-0"])
    def test_never_positive_interarrival_flagged(self, interarrival):
        # each of these once validated, then spun at time 0 or failed mid-run
        config = ModelConfig.default()
        config.sources["WP"].interarrival = interarrival
        assert [v.field for v in validate_config(config)] == ["sources.WP.interarrival"]

    @pytest.mark.parametrize("interarrival", [
        {"type": "uniform", "low": 0.0, "high": 2.0},
        {"type": "exponential", "mean": 1.0},
        {"type": "discrete", "pairs": [[0, 0.5], [1, 1.0]]},
    ])
    def test_interarrival_that_can_be_0_but_not_always_passes(self, interarrival):
        config = ModelConfig.default()
        config.sources["WP"].interarrival = interarrival
        assert validate_config(config) == []

    def test_bad_offspring_distribution_flagged(self):
        config = ModelConfig.default()
        config.offspring_distribution = {"type": "discrete", "pairs": [[0, 0.5], [1, 0.8]]}
        violations = validate_config(config)
        assert any(v.field == "offspring_distribution" for v in violations)

    def test_allele_frequency_range_flagged(self):
        config = ModelConfig.default()
        config.allele_frequency = 1.5
        assert any(v.field == "allele_frequency" for v in validate_config(config))

    def test_missing_source_flagged(self):
        config = ModelConfig.default()
        del config.sources["WP"]
        assert any(v.field == "sources.WP" for v in validate_config(config))

    def test_violations_carry_observed_values(self):
        config = ModelConfig.default()
        config.run_length = -3.0
        violation = validate_config(config)[0]
        assert violation.observed == -3.0
        assert "run_length" in str(violation)

    def test_config_round_trips_through_dict(self):
        config = ModelConfig.default()
        config.consanguinity_degree = ConsanguinityDegree.SECOND_COUSIN
        config.inbreeding_f = 0.03
        restored = ModelConfig.from_dict(config.to_dict())
        assert restored.to_dict() == config.to_dict()

    @settings(max_examples=200, deadline=None)
    @given(config=valid_configs())
    def test_valid_config_round_trips_through_json(self, config):
        assert validate_config(config) == []
        assert ModelConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_unknown_degree_rejected_at_parse(self):
        with pytest.raises(ConfigurationError, match="consanguinity_degree"):
            ModelConfig.from_dict({"consanguinity_degree": "sibling"})

    @pytest.mark.parametrize("field, data", [
        ("replications", {"replications": 2.7}),
        ("base_seed", {"base_seed": 4.9}),
        ("run_length", {"run_length": True}),
        ("replications", {"replications": False}),
        ("allele_frequency", {"allele_frequency": True}),
        ("inbreeding_f", {"inbreeding_f": True}),
        ("sex_split", {"sex_split": {"male": True, "female": 0.5}}),
        ("routing_weights", {"routing_weights": {"male": {"consanguineous": True}}}),
        ("sources", {"sources": {"WP": {"max_arrivals": 3.9}}}),
        ("sources", {"sources": {"WP": {"max_arrivals": True}}}),
        ("replication", {"replication": 3}),
        ("sources", {"sources": {"wp": {"max_arrivals": 3}}}),
        ("sex_split", {"sex_split": {"male": 0.595, "female": 0.405, "males": 0.5}}),
        ("routing_weights", {"routing_weights": {"males": {"consanguineous": 1.0}}}),
        ("routing_weights", {"routing_weights": {"male": {"consanguinous": 35.7}}}),
        ("run_length", {"run_length": "200"}),
        ("replications", {"replications": "3"}),
        ("sex_split", {"sex_split": {"male": 0.5, "female": "0.5"}}),
        ("run_length", {"run_length": 10**400}),
    ])
    def test_wrong_values_rejected_at_parse(self, field, data):
        with pytest.raises(ConfigurationError, match=f"^malformed {field}: "):
            ModelConfig.from_dict(data)

    def test_absent_sources_take_their_defaults(self):
        wp = {"interarrival": {"type": "constant", "value": 2.0}, "max_arrivals": 5}
        config = ModelConfig.from_dict({"sources": {"WP": wp}})
        assert config.sources["WP"].to_dict() == wp
        assert ModelConfig.from_dict({"sources": {}}).sources == {"WP": SourceSettings()}
        assert validate_config(config) == []

    @pytest.mark.parametrize("name", ["MP", "FP"])
    def test_sources_of_the_removed_submodel_rejected_at_parse(self, name):
        default = {"interarrival": {"type": "constant", "value": 1.0}, "max_arrivals": None}
        with pytest.raises(ConfigurationError) as info:
            ModelConfig.from_dict({"sources": {"WP": default, name: default}})
        assert str(info.value) == (
            f"malformed sources: source {name!r} belonged to the population-growth submodel, "
            f"which was removed; only 'WP' remains"
        )

    def test_integral_floats_parse_as_counts(self):
        config = ModelConfig.from_dict(
            {"replications": 2.0, "base_seed": 7.0, "sources": {"WP": {"max_arrivals": 5.0}}}
        )
        assert (config.replications, config.base_seed) == (2, 7)
        assert config.sources["WP"].max_arrivals == 5
        assert isinstance(config.replications, int)


BRANCHES = ("C", "NC")


def growth_chain_rows(stats):
    """The rows of both branches' marriage -> growth -> sink chains."""
    objects = {f"{stage}_{tag}" for stage in ("Marriage", "PopulationG", "NewPopulation", "Child")
               for tag in BRANCHES}
    objects |= {f"Path{i}" for i in range(11, 15)}
    return [row for row in stats.rows if row[0] in objects]


class TestReportRowPins:
    """Exact rows of one replication at instants the packaged report, an
    aggregate over ten full runs, does not show: a short horizon, and
    between the steps of one instant."""

    def test_population_growth_rows(self):
        config = ModelConfig.default()
        config.run_length = 200.0
        stats = run_model(build_consanguinity_model, config)
        assert growth_chain_rows(stats) == [
            ("Marriage_C", "[MemberInputBuffer]", "Content", 27),
            ("Marriage_C", "[OutputBuffer]", "Content", 27),
            ("Marriage_C", "[ParentInputBuffer]", "Content", 27),
            ("Marriage_C", "[Processed]", "Throughput", 27),
            ("Marriage_NC", "[MemberInputBuffer]", "Content", 42),
            ("Marriage_NC", "[OutputBuffer]", "Content", 42),
            ("Marriage_NC", "[ParentInputBuffer]", "Content", 42),
            ("Marriage_NC", "[Processed]", "Throughput", 42),
            ("PopulationG_C", "[InputBuffer]", "Content", 27),
            ("PopulationG_C", "[OutputBuffer]", "Content", 27),
            ("PopulationG_C", "[Processed]", "Throughput", 27),
            ("PopulationG_NC", "[InputBuffer]", "Content", 42),
            ("PopulationG_NC", "[OutputBuffer]", "Content", 42),
            ("PopulationG_NC", "[Processed]", "Throughput", 42),
            ("NewPopulation_C", "[InputBuffer]", "Throughput", 91),
            ("NewPopulation_NC", "[InputBuffer]", "Throughput", 125),
            ("Path11", "[Travelers]", "Throughput", 27),
            ("Path12", "[Travelers]", "Throughput", 42),
            ("Path13", "[Travelers]", "Throughput", 91),
            ("Path14", "[Travelers]", "Throughput", 125),
            ("Child_C", "[Dynamic Object]", "Throughput", 64),
            ("Child_NC", "[Dynamic Object]", "Throughput", 83),
        ]
        assert stats.created_total == 348
        assert (stats.destroyed_individuals, stats.held_individuals) == (285, 63)
        assert stats.affected_by_class == {}

    def test_rows_between_steps_with_output_waiting(self):
        config = ModelConfig.default()
        handle = initialize(build_consanguinity_model(config))
        handle.run_until(100.0)
        marriage = handle.state_of("Marriage_C")
        while len(marriage.outq) < 2:
            handle.step()
        # the couple married at 123 is processed, and it and its two
        # children wait in the output buffer: they have not left yet
        assert handle.clock == 123.0
        assert [e.class_label for e in marriage.outq] == ["FP", "Child_C", "Child_C"]
        stats = collect_run_stats(handle)
        assert growth_chain_rows(stats) == [
            ("Marriage_C", "[MemberInputBuffer]", "Content", 13),
            ("Marriage_C", "[OutputBuffer]", "Content", 12),  # processed - waiting
            ("Marriage_C", "[ParentInputBuffer]", "Content", 13),
            ("Marriage_C", "[Processed]", "Throughput", 13),
            ("Marriage_NC", "[MemberInputBuffer]", "Content", 27),
            ("Marriage_NC", "[OutputBuffer]", "Content", 27),
            ("Marriage_NC", "[ParentInputBuffer]", "Content", 27),
            ("Marriage_NC", "[Processed]", "Throughput", 27),
            ("PopulationG_C", "[InputBuffer]", "Content", 13),
            ("PopulationG_C", "[OutputBuffer]", "Content", 12),  # processed - waiting
            ("PopulationG_C", "[Processed]", "Throughput", 13),
            ("PopulationG_NC", "[InputBuffer]", "Content", 27),
            ("PopulationG_NC", "[OutputBuffer]", "Content", 27),
            ("PopulationG_NC", "[Processed]", "Throughput", 27),
            ("NewPopulation_C", "[InputBuffer]", "Throughput", 43),
            ("NewPopulation_NC", "[InputBuffer]", "Throughput", 76),
            ("Path11", "[Travelers]", "Throughput", 13),
            ("Path12", "[Travelers]", "Throughput", 27),
            ("Path13", "[Travelers]", "Throughput", 43),
            ("Path14", "[Travelers]", "Throughput", 76),
            ("Child_C", "[Dynamic Object]", "Throughput", 33),
            ("Child_NC", "[Dynamic Object]", "Throughput", 49),
        ]
        # held: the couple (2) and its children (2) at the combiner, the
        # 33 - 13 and 50 - 27 males still unmarried at the combiners, and
        # the next individual, which the source holds until 124
        assert (stats.value("Path7", "[Travelers]"), stats.value("Path8", "[Travelers]")) == (33, 50)
        assert stats.held_individuals == 4 + 20 + 23 + 1
        assert (stats.created_total, stats.destroyed_individuals) == (206, 158)
        assert stats.created_total == stats.destroyed_individuals + stats.held_individuals


class TestPopulationGrowthModel:
    """The marriage -> growth -> new-population chain that each branch of
    the consanguinity model runs."""

    def test_two_children_per_marriage_hand_trace(self):
        config = ModelConfig.default()
        config.offspring_distribution = {"type": "discrete", "pairs": [[2, 1.0]]}
        stats = run_model(build_consanguinity_model, config, until=50.0)
        marriages = {tag: stats.value(f"Marriage_{tag}", "[Processed]") for tag in BRANCHES}
        assert marriages == {"C": 5, "NC": 11}
        for tag in BRANCHES:
            assert stats.value(f"Child_{tag}", "[Dynamic Object]") == 2 * marriages[tag]
            # the sink destroys each couple and its two children as flowing units
            assert stats.value(f"NewPopulation_{tag}", "[InputBuffer]") == 3 * marriages[tag]
        # each couple carries its member, so 4 individuals per marriage were destroyed
        assert stats.destroyed_individuals == 4 * (5 + 11)
        assert stats.created_total == stats.destroyed_individuals + stats.held_individuals

    def test_each_marriage_event_is_delivered_whole_to_its_sink(self):
        # The combiner's internal event emits each couple with its children
        # behind it, and the branch's sink receives exactly those, in order.
        config = ModelConfig.default()
        config.run_length = 300.0
        trace = io.StringIO()
        initialize(build_consanguinity_model(config), trace_file=trace).run_until(config.run_length)
        events = []  # [(time, component, phase), [(port, payload), ...]]
        for line in trace.getvalue().splitlines():
            at, component, phase, port, payload = line.split("\t")
            if not events or events[-1][0] != (at, component, phase):
                events.append(((at, component, phase), []))
            events[-1][1].append((port, payload))
        marriages = children = 0
        for (head, lines), (next_head, next_lines) in zip(events, events[1:]):
            at, component, phase = head
            if not (component.startswith("Marriage_") and phase == "internal"):
                continue
            tag = component.removeprefix("Marriage_")
            assert next_head == (at, f"NewPopulation_{tag}", "external")
            assert [port for port, _ in lines] == ["out"] * len(lines)
            assert [port for port, _ in next_lines] == ["in"] * len(lines)
            assert [payload for _, payload in next_lines] == [payload for _, payload in lines]
            marriages += sum(payload.startswith("FP#") for _, payload in lines)
            children += sum(payload.startswith(f"Child_{tag}#") for _, payload in lines)
        stats = run_model(build_consanguinity_model, config)
        assert marriages == sum(stats.value(f"Marriage_{tag}", "[Processed]") for tag in BRANCHES)
        assert children == sum(stats.value(f"Child_{tag}", "[Dynamic Object]") for tag in BRANCHES)
        assert marriages > 0 and children > 0

    def test_empty_run_when_sources_capped_at_zero(self):
        config = ModelConfig.default()
        config.sources["WP"].max_arrivals = 0
        stats = run_model(build_consanguinity_model, config, until=50.0)
        assert stats.created_total == 0
        for tag in BRANCHES:
            assert stats.value(f"Marriage_{tag}", "[Processed]") == 0
        assert stats.destroyed_individuals == 0
        assert stats.held_individuals == 0

    def test_offspring_mean_near_2_12(self):
        config = ModelConfig.default()
        config.run_length = 2000.0
        stats = run_model(build_consanguinity_model, config)
        marriages = sum(stats.value(f"Marriage_{tag}", "[Processed]") for tag in BRANCHES)
        children = sum(stats.value(f"Child_{tag}", "[Dynamic Object]") for tag in BRANCHES)
        assert marriages == 316 + 504
        mean, second = offspring_moments()
        sd = math.sqrt(second - mean * mean)
        assert abs(children / marriages - mean) <= 3 * sd / math.sqrt(marriages)

    def test_structure(self):
        spec = build_consanguinity_model(ModelConfig.default())
        for tag in BRANCHES:
            chain = [f"Marriage_{tag}", f"NewPopulation_{tag}"]
            states = [type(spec.components[name].initial_state) for name in chain]
            assert states == [CombinerState, SinkState]
            links = [(c.src, c.src_port, c.dst, c.dst_port) for c in spec.couplings if c.src in chain]
            assert links == [(chain[0], "out", chain[1], "in")]


class TestConsanguinityModel:
    def test_structure_matches_roster(self):
        spec = build_consanguinity_model(ModelConfig.default())
        by_type = {}
        for component in spec.components.values():
            by_type.setdefault(type(component.initial_state), 0)
            by_type[type(component.initial_state)] += 1
        assert by_type[CombinerState] == 2
        assert by_type[SinkState] == 2
        assert by_type[SourceState] == 1
        # the source routes, couplings carry, and each combiner's trigger gives births
        assert len(spec.components) == 5
        assert spec.select is None  # the order of the components

    def test_travelers_rows_are_the_fourteen_paths(self):
        config = ModelConfig.default()
        config.run_length = 50.0
        stats = run_model(build_consanguinity_model, config)
        legs = [(name, category) for name, source, category, _ in stats.rows if source == "[Travelers]"]
        assert legs == [(f"Path{i}", "Throughput") for i in range(1, 15)]

    def test_source_feeds_the_four_combiner_entries_through_two_picks(self):
        spec = build_consanguinity_model(ModelConfig.default())
        assert spec.components["WP"].output_ports == ("MP_C", "MP_NC", "FP_C", "FP_NC")
        from_wp = [c for c in spec.couplings if c.src == "WP"]
        assert [(c.src_port, c.dst, c.dst_port) for c in from_wp] == [
            ("MP_C", "Marriage_C", "member_in"), ("MP_NC", "Marriage_NC", "member_in"),
            ("FP_C", "Marriage_C", "parent_in"), ("FP_NC", "Marriage_NC", "parent_in"),
        ]

    def test_leg_flow_identities_at_drain(self):
        config = ModelConfig.default()
        config.run_length = 800.0
        stats = run_model(build_consanguinity_model, config)
        legs = {i: stats.value(f"Path{i}", "[Travelers]") for i in range(1, 15)}
        assert legs[1] == stats.value("MP", "[Dynamic Object]")
        assert legs[3] + legs[4] == legs[1]
        assert legs[3] == legs[7]
        assert legs[13] == stats.value("NewPopulation_C", "[InputBuffer]")

    def test_conservation_exact_across_replications(self):
        config = ModelConfig.default()
        config.run_length = 500.0
        for replication in range(3):
            stats = run_model(build_consanguinity_model, config, replication)
            assert stats.created_total == stats.destroyed_individuals + stats.held_individuals

    def test_marriage_flow_identity_at_drain(self):
        config = ModelConfig.default()
        config.run_length = 800.0
        stats = run_model(build_consanguinity_model, config)
        for name in ("Marriage_C", "Marriage_NC"):
            processed = stats.value(name, "[Processed]")
            assert stats.value(name, "[MemberInputBuffer]") == processed
            assert stats.value(name, "[OutputBuffer]") == processed
            assert stats.value(name, "[ParentInputBuffer]") >= processed

    def test_marriages_equal_min_of_delivered_sides(self):
        config = ModelConfig.default()
        config.run_length = 600.0
        stats = run_model(build_consanguinity_model, config)
        # members delivered via Path7/Path8, parents via Path9/Path10
        assert stats.value("Marriage_C", "[Processed]") == min(
            stats.value("Path7", "[Travelers]"), stats.value("Path9", "[Travelers]")
        )
        assert stats.value("Marriage_NC", "[Processed]") == min(
            stats.value("Path8", "[Travelers]"), stats.value("Path10", "[Travelers]")
        )

    def test_sex_split_and_branch_fractions_within_3_sigma(self):
        config = ModelConfig.default()
        config.run_length = 2000.0
        stats = run_model(build_consanguinity_model, config)
        total = stats.value("WP", "[Dynamic Object]")
        males = stats.value("MP", "[Dynamic Object]")
        females = stats.value("FP", "[Dynamic Object]")
        assert males + females == total
        assert abs(males / total - 0.595) <= 3 * math.sqrt(0.595 * 0.405 / total)
        mp_c = stats.value("Path3", "[Travelers]")
        fp_c = stats.value("Path5", "[Travelers]")
        sigma_m = math.sqrt(MALE_C_FRACTION * (1 - MALE_C_FRACTION) / males)
        sigma_f = math.sqrt(FEMALE_C_FRACTION * (1 - FEMALE_C_FRACTION) / females)
        assert abs(mp_c / males - MALE_C_FRACTION) <= 3 * sigma_m
        assert abs(fp_c / females - FEMALE_C_FRACTION) <= 3 * sigma_f

    def test_vanishing_consanguineous_weight_empties_branch(self):
        config = ModelConfig.default()
        config.run_length = 1000.0
        config.routing_weights["male"]["consanguineous"] = 1e-9
        config.routing_weights["female"]["consanguineous"] = 1e-9
        stats = run_model(build_consanguinity_model, config)
        assert stats.value("Marriage_C", "[Processed]") == 0
        with pytest.raises(KeyError):  # no Child_C was born, so it has no row
            stats.value("Child_C", "[Dynamic Object]")
        assert stats.value("Marriage_NC", "[Processed]") > 0

    def test_growth_triggers_assign_branch_specific_risk(self):
        config = ModelConfig.default()
        config.consanguinity_degree = ConsanguinityDegree.SECOND_COUSIN
        config.allele_frequency = 0.5
        spec = build_consanguinity_model(config)
        c = trigger_flags(spec, "Marriage_C", "Child_C")
        assert c == draws_below(config, "consanguineous", len(c), 1 / 64)
        # q = 0.5 puts some of ~2 000 draws in the 1/256 gap that f = 1/64 opens
        assert c != draws_below(config, "consanguineous", len(c), 0.0)
        nc = trigger_flags(spec, "Marriage_NC", "Child_NC")
        assert nc == draws_below(config, "nonconsanguineous", len(nc), 0.0)

    def test_inbreeding_override_reaches_trigger(self):
        config = ModelConfig.default()
        config.inbreeding_f = 0.5
        config.allele_frequency = 0.5
        spec = build_consanguinity_model(config)
        flags = trigger_flags(spec, "Marriage_C", "Child_C")
        assert flags == draws_below(config, "consanguineous", len(flags), 0.5)

    def test_prevalence_separates_branches_with_exaggerated_parameters(self):
        # f=1 and q=0.3 give affected rates 0.3 (consanguineous) vs 0.09;
        # exercises the full pipeline end to end, including stream isolation.
        config = ModelConfig.default()
        config.run_length = 3000.0
        config.allele_frequency = 0.3
        config.inbreeding_f = 1.0
        stats = run_model(build_consanguinity_model, config)
        children_c = stats.value("Child_C", "[Dynamic Object]")
        children_nc = stats.value("Child_NC", "[Dynamic Object]")
        rate_c = stats.affected_by_class.get("Child_C", 0) / children_c
        rate_nc = stats.affected_by_class.get("Child_NC", 0) / children_nc
        assert abs(rate_c - 0.30) <= 3 * math.sqrt(0.30 * 0.70 / children_c)
        assert abs(rate_nc - 0.09) <= 3 * math.sqrt(0.09 * 0.91 / children_nc)
        assert rate_c > rate_nc

    def test_invalid_config_raises_at_build(self):
        config = ModelConfig.default()
        config.replications = 0
        with pytest.raises(ConfigurationError):
            build_consanguinity_model(config)

    def test_replications_are_statistically_distinct_but_reproducible(self):
        config = ModelConfig.default()
        config.run_length = 300.0
        a0 = run_model(build_consanguinity_model, config, replication=0)
        a1 = run_model(build_consanguinity_model, config, replication=1)
        b0 = run_model(build_consanguinity_model, config, replication=0)
        assert a0.rows == b0.rows
        assert a0.rows != a1.rows

    def test_per_object_balances_at_end_of_run(self):
        config = ModelConfig.default()
        config.run_length = 400.0
        handle = initialize(build_consanguinity_model(config))
        handle.run_until(config.run_length)
        stats = collect_run_stats(handle)
        # the legs into each combiner: members, then parents
        arrivals = {"Marriage_C": ("Path7", "Path9"), "Marriage_NC": ("Path8", "Path10")}
        for name, state in handle.components():
            if isinstance(state, CombinerState):
                arrived = sum(stats.value(leg, "[Travelers]") for leg in arrivals[name])
                carried_out = state.stats.processed * 2  # a parent and its member
                assert not state.outq, name  # zero-time: all left by the end
                assert arrived == carried_out + state.held_individuals(), name

    def test_consanguineous_marriages_monotone_in_share(self):
        # A branch pick names C exactly when u * (w_C + w_NC) < w_C, on the
        # same stream at every share, so a larger C share moves individuals
        # from NC to C only: per replication, C marriages never fall and NC
        # marriages never rise.  Affected counts are not monotone.
        config = ModelConfig.default()
        config.run_length = 300.0
        marriages = []
        for share in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8):
            for sex in ("male", "female"):
                config.routing_weights[sex] = {"consanguineous": share,
                                               "non_consanguineous": 1.0 - share}
            runs = [run_model(build_consanguinity_model, config, r) for r in range(5)]
            marriages.append([(stats.value("Marriage_C", "[Processed]"),
                               stats.value("Marriage_NC", "[Processed]")) for stats in runs])
        for lower, higher in zip(marriages, marriages[1:]):
            for (c0, nc0), (c1, nc1) in zip(lower, higher):
                assert c0 <= c1 and nc0 >= nc1
        for (c0, nc0), (c1, nc1) in zip(marriages[0], marriages[-1]):
            assert c0 < c1 and nc0 > nc1


def wp_routes(config: ModelConfig) -> list[tuple[str, str]]:
    """(port, class label) of each ``WP internal`` line of replication 0's trace."""
    trace = io.StringIO()
    initialize(build_consanguinity_model(config), trace_file=trace).run_until(config.run_length)
    routes = []
    for line in trace.getvalue().splitlines():
        _, component, phase, port, payload = line.split("\t")
        if (component, phase) == ("WP", "internal"):
            routes.append((port, payload.partition("#")[0]))
    return routes


class TestInterarrivalLaw:
    ARRIVALS = 40

    # The sex and branch picks draw on their own streams, so the law of the
    # gaps between arrivals cannot move any individual's route.
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    def test_routes_do_not_depend_on_the_interarrival_law(self, seed):
        laws = [
            {"type": "constant", "value": 1.0},
            {"type": "exponential", "mean": 1.0},
            {"type": "uniform", "low": 0.5, "high": 1.5},
        ]
        routes = []
        for law in laws:
            config = ModelConfig.default()
            config.base_seed = seed
            # long enough for all the arrivals: the uniform law needs at most 60
            config.run_length = 200.0
            config.sources["WP"] = SourceSettings(interarrival=law, max_arrivals=self.ARRIVALS)
            routes.append(wp_routes(config))
        assert len(routes[0]) == self.ARRIVALS
        assert routes[0] == routes[1] == routes[2]


class TestConfigAcceptance:
    @settings(max_examples=150, deadline=None)
    @given(config=any_configs())
    def test_validate_accepts_exactly_what_builder_and_run_accept(self, config):
        violations = validate_config(config)
        try:
            handle = initialize(build_consanguinity_model(config))
            handle.run_until(min(config.run_length, 5.0))
        except ConfigurationError:
            assert violations
        else:
            assert violations == []
