"""Model wiring: config validation, both builders, flow identities, conservation."""

from __future__ import annotations

import math

import pytest

from kinsim import (
    ConsanguinityDegree,
    CoupledSpec,
    Coupling,
    EntityFactory,
    ModelConfig,
    SourceSettings,
    build_consanguinity_model,
    build_population_growth_model,
    collect_run_stats,
    initialize,
    validate_config,
)
from kinsim.errors import ConfigurationError
from kinsim.objects import (
    CombinerState,
    PathState,
    ServerState,
    SinkState,
    SourceState,
    SplitterState,
    Travelers,
    make_combiner,
    make_path,
    make_server,
    make_sink,
    make_source,
)
from kinsim.randomness import Constant, substream

MALE_C_FRACTION = 35.7 / (35.7 + 65.9)
FEMALE_C_FRACTION = 35.7 / (35.7 + 64.2)


def counted_legs(spec):
    """Leg names counted by Travelers on the model's couplings, sorted."""
    return sorted(
        leg
        for coupling in spec.couplings
        if isinstance(coupling.translate, Travelers)
        for leg in coupling.translate.legs
    )


def run_model(builder, config, replication=0, until=None):
    handle = initialize(builder(config, replication))
    handle.run_until(config.run_length if until is None else until)
    return collect_run_stats(handle)


class TestValidateConfig:
    def test_defaults_are_valid(self):
        assert validate_config(ModelConfig.default()) == []

    def test_sex_split_must_sum_to_one(self):
        config = ModelConfig.default()
        config.sex_split = (0.7, 0.7)
        violations = validate_config(config)
        assert any("sum to 1" in v.constraint for v in violations)
        assert any(v.field == "sex_split" for v in violations)

    @pytest.mark.parametrize("split", [(1.0, 0.0), (0.0, 1.0), (1.5, -0.5)])
    def test_sex_fraction_outside_open_unit_interval_flagged(self, split):
        # Each sex is a splitter choice whose weight must be positive.
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
    ])
    def test_wrong_values_rejected_at_parse(self, field, data):
        with pytest.raises(ConfigurationError, match=f"^malformed {field}: "):
            ModelConfig.from_dict(data)

    def test_absent_sources_take_their_defaults(self):
        wp = {"interarrival": {"type": "constant", "value": 2.0}, "max_arrivals": 5}
        config = ModelConfig.from_dict({"sources": {"WP": wp}})
        assert config.sources["WP"].to_dict() == wp
        assert config.sources["MP"] == config.sources["FP"] == SourceSettings()
        assert validate_config(config) == []

    def test_integral_floats_parse_as_counts(self):
        config = ModelConfig.from_dict(
            {"replications": 2.0, "base_seed": 7.0, "sources": {"WP": {"max_arrivals": 5.0}}}
        )
        assert (config.replications, config.base_seed) == (2, 7)
        assert config.sources["WP"].max_arrivals == 5
        assert isinstance(config.replications, int)


class TestNestedLegs:
    def test_legs_inside_nested_coupled_models_are_reported(self):
        factory = EntityFactory()
        inner = CoupledSpec(
            components={"Sink": make_sink()},
            couplings=[Coupling(None, "in", "Sink", "in", Travelers("Inner"))],
            input_ports=("in",),
        )
        model = CoupledSpec(
            components={
                "Source": make_source("X", Constant(1.0), 4, factory=factory,
                                      stream=substream(1, 0)),
                "Group": inner,
            },
            couplings=[Coupling("Source", "out", "Group", "in", Travelers("Outer"))],
        )
        handle = initialize(model)
        handle.run_until(10.0)
        stats = collect_run_stats(handle)
        legs = [row for row in stats.rows if row[1] == "[Travelers]"]
        assert legs == [
            ("Outer", "[Travelers]", "Throughput", 4),
            ("Inner", "[Travelers]", "Throughput", 4),
        ]
        assert stats.value("Group/Sink", "[InputBuffer]") == 4


def hand_built_model():
    """FP walks a 0.5 path to a two-member combiner; couples take 2.5 to serve."""
    factory = EntityFactory()
    return CoupledSpec(
        components={
            "FP": make_source("FP", Constant(1.0), None, factory=factory, stream=substream(3, 0)),
            "MP": make_source("MP", Constant(1.0), None, factory=factory, stream=substream(3, 1)),
            "Walk": make_path(0.5),
            "Marriage": make_combiner(batch_quantity=2),
            "Growth": make_server(capacity=2, service_time=Constant(2.5), stream=substream(3, 2)),
            "End": make_sink(),
        },
        couplings=[
            Coupling("FP", "out", "Walk", "in"),
            Coupling("Walk", "out", "Marriage", "parent_in"),
            Coupling("MP", "out", "Marriage", "member_in"),
            Coupling("Marriage", "out", "Growth", "in"),
            Coupling("Growth", "out", "End", "in"),
        ],
    )


class TestReportRowPins:
    """Exact report rows on paths the packaged report does not reach."""

    def test_population_growth_rows(self):
        config = ModelConfig.default()
        config.run_length = 200.0
        stats = run_model(build_population_growth_model, config)
        assert stats.rows == [
            ("Marriage", "[MemberInputBuffer]", "Content", 200),
            ("Marriage", "[OutputBuffer]", "Content", 200),
            ("Marriage", "[ParentInputBuffer]", "Content", 200),
            ("Marriage", "[Processed]", "Throughput", 200),
            ("Population Growth", "[InputBuffer]", "Content", 200),
            ("Population Growth", "[OutputBuffer]", "Content", 200),
            ("Population Growth", "[Processed]", "Throughput", 200),
            ("New Population", "[InputBuffer]", "Throughput", 642),
            ("Path1", "[Travelers]", "Throughput", 200),
            ("Path2", "[Travelers]", "Throughput", 200),
            ("Path3", "[Travelers]", "Throughput", 200),
            ("Path4", "[Travelers]", "Throughput", 642),
            ("Child", "[Dynamic Object]", "Throughput", 442),
            ("FP", "[Dynamic Object]", "Throughput", 200),
            ("MP", "[Dynamic Object]", "Throughput", 200),
        ]
        assert (stats.created_total, stats.destroyed_units) == (844, 642)
        assert (stats.destroyed_individuals, stats.held_individuals) == (842, 2)
        assert stats.destroyed_by_class == {"FP": 200, "MP": 200, "Child": 442}
        assert stats.affected_by_class == {}

    def test_rows_mid_flight_with_delays(self):
        handle = initialize(hand_built_model())
        handle.run_until(7.2)
        # one FP in transit on Walk, one couple in service, three parents held
        assert len(handle.state_of("Walk").queue) == 1
        assert len(handle.state_of("Growth").in_service) == 1
        stats = collect_run_stats(handle)
        assert stats.rows == [
            ("Walk", "[Travelers]", "Throughput", 7),
            ("Marriage", "[MemberInputBuffer]", "Content", 6),
            ("Marriage", "[OutputBuffer]", "Content", 3),
            ("Marriage", "[ParentInputBuffer]", "Content", 6),
            ("Marriage", "[Processed]", "Throughput", 3),
            ("Growth", "[InputBuffer]", "Content", 3),
            ("Growth", "[OutputBuffer]", "Content", 2),
            ("Growth", "[Processed]", "Throughput", 2),
            ("End", "[InputBuffer]", "Throughput", 2),
            ("FP", "[Dynamic Object]", "Throughput", 7),
            ("MP", "[Dynamic Object]", "Throughput", 7),
        ]
        assert (stats.created_total, stats.held_individuals) == (16, 10)

    def test_rows_between_steps_with_output_waiting(self):
        handle = initialize(hand_built_model())
        handle.run_until(7.2)
        while not handle.state_of("Growth").outq:
            handle.step()
        # the couple served at 8.5 is processed but has not left yet
        assert handle.clock == 8.5
        stats = collect_run_stats(handle)
        assert stats.rows == [
            ("Walk", "[Travelers]", "Throughput", 8),
            ("Marriage", "[MemberInputBuffer]", "Content", 8),
            ("Marriage", "[OutputBuffer]", "Content", 4),
            ("Marriage", "[ParentInputBuffer]", "Content", 8),
            ("Marriage", "[Processed]", "Throughput", 4),
            ("Growth", "[InputBuffer]", "Content", 4),
            ("Growth", "[OutputBuffer]", "Content", 2),
            ("Growth", "[Processed]", "Throughput", 3),
            ("End", "[InputBuffer]", "Throughput", 2),
            ("FP", "[Dynamic Object]", "Throughput", 8),
            ("MP", "[Dynamic Object]", "Throughput", 8),
        ]
        assert (stats.created_total, stats.held_individuals) == (18, 12)


class TestPopulationGrowthModel:
    def test_two_children_per_marriage_hand_trace(self):
        config = ModelConfig.default()
        config.offspring_distribution = {"type": "discrete", "pairs": [[2, 1.0]]}
        stats = run_model(build_population_growth_model, config, until=10.0)
        assert stats.value("Marriage", "[Processed]") == 10
        assert stats.label_counts["Child"] == 20
        # the sink destroys 10 couples and 20 children as flowing units
        assert stats.value("New Population", "[InputBuffer]") == 30
        assert stats.destroyed_units == 30
        # each couple carries its member, so 40 individuals were destroyed
        assert stats.destroyed_individuals == 40
        assert stats.created_total == stats.destroyed_individuals + stats.held_individuals

    def test_empty_run_when_sources_capped_at_zero(self):
        config = ModelConfig.default()
        for name in ("MP", "FP"):
            config.sources[name].max_arrivals = 0
        stats = run_model(build_population_growth_model, config, until=50.0)
        assert stats.created_total == 0
        assert stats.value("Marriage", "[Processed]") == 0
        assert stats.destroyed_individuals == 0
        assert stats.held_individuals == 0

    def test_offspring_mean_near_2_12(self):
        config = ModelConfig.default()
        config.run_length = 2000.0
        stats = run_model(build_population_growth_model, config)
        marriages = stats.value("Marriage", "[Processed]")
        children = stats.label_counts["Child"]
        assert marriages == 2000
        # offspring law variance: E[X^2] - 2.12^2 = 5.88 - 4.4944
        sd = math.sqrt(5.88 - 2.12 ** 2)
        assert abs(children / marriages - 2.12) <= 3 * sd / math.sqrt(marriages)

    def test_structure(self):
        spec = build_population_growth_model(ModelConfig.default())
        states = [type(c.initial_state).__name__ for c in spec.components.values()]
        assert states.count("SourceState") == 2
        assert states.count("CombinerState") == 1
        assert states.count("ServerState") == 1
        assert states.count("SinkState") == 1
        assert len(states) == 5  # no PathState relays remain
        assert counted_legs(spec) == sorted(f"Path{i}" for i in range(1, 5))


class TestConsanguinityModel:
    def test_structure_matches_roster(self):
        spec = build_consanguinity_model(ModelConfig.default())
        by_type = {}
        for component in spec.components.values():
            by_type.setdefault(type(component.initial_state), 0)
            by_type[type(component.initial_state)] += 1
        assert by_type[CombinerState] == 2
        assert by_type[ServerState] == 2
        assert by_type[SinkState] == 2
        assert by_type[SourceState] == 1
        assert by_type[SplitterState] == 3
        assert PathState not in by_type
        assert all(
            len(component.initial_state.choices) > 1
            for component in spec.components.values()
            if isinstance(component.initial_state, SplitterState)
        )
        assert len(spec.components) == 10
        assert counted_legs(spec) == sorted(f"Path{i}" for i in range(1, 15))
        assert spec.select == list(spec.components)

    def test_leg_flow_identities_at_drain(self):
        config = ModelConfig.default()
        config.run_length = 800.0
        stats = run_model(build_consanguinity_model, config)
        legs = {i: stats.value(f"Path{i}", "[Travelers]") for i in range(1, 15)}
        assert legs[1] == stats.label_counts["MP"]
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
        total = stats.label_counts["WP"]
        males = stats.label_counts["MP"]
        females = stats.label_counts["FP"]
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
        assert stats.label_counts.get("Child_C", 0) == 0
        assert stats.value("Marriage_NC", "[Processed]") > 0

    def test_growth_triggers_assign_branch_specific_risk(self):
        config = ModelConfig.default()
        config.consanguinity_degree = ConsanguinityDegree.SECOND_COUSIN
        spec = build_consanguinity_model(config)
        factory = EntityFactory()
        couple = factory.create("FP", 0.0)
        children_c = spec.components["PopulationG_C"].initial_state.on_processed(couple, 5.0)
        children_nc = spec.components["PopulationG_NC"].initial_state.on_processed(couple, 5.0)
        for child in children_c:
            assert child.class_label == "Child_C"
            assert child.created_at == 5.0
            assert child.attributes["inbreeding_f"] == 1 / 64
        for child in children_nc:
            assert child.class_label == "Child_NC"
            assert child.attributes["inbreeding_f"] == 0.0

    def test_inbreeding_override_reaches_trigger(self):
        config = ModelConfig.default()
        config.inbreeding_f = 0.5
        spec = build_consanguinity_model(config)
        factory = EntityFactory()
        children = []
        while not children:  # offspring count can be zero; retry until born
            children = spec.components["PopulationG_C"].initial_state.on_processed(
                factory.create("FP", 0.0), 1.0
            )
        assert all(c.attributes["inbreeding_f"] == 0.5 for c in children)

    def test_prevalence_separates_branches_with_exaggerated_parameters(self):
        # f=1 and q=0.3 give affected rates 0.3 (consanguineous) vs 0.09;
        # exercises the full pipeline end to end, including stream isolation.
        config = ModelConfig.default()
        config.run_length = 3000.0
        config.allele_frequency = 0.3
        config.inbreeding_f = 1.0
        stats = run_model(build_consanguinity_model, config)
        children_c = stats.label_counts["Child_C"]
        children_nc = stats.label_counts["Child_NC"]
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
        for name, state in handle.components():
            if isinstance(state, PathState):
                assert state.stats.entered == state.stats.exited + len(state.queue), name
            elif isinstance(state, CombinerState):
                arrived = state.stats.entered  # parents and members
                carried_out = state.stats.processed * (1 + state.batch_quantity)
                assert arrived == carried_out + state.held_individuals(), name
            elif isinstance(state, ServerState):
                in_house = len(state.queue) + len(state.in_service)
                assert state.stats.entered == state.stats.processed + in_house, name
