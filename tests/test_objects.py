"""Process objects: sources, combiners, zero-time servers, sinks and weighted
choices."""

from __future__ import annotations

import math
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import route_select, trace_rows
from kinsim import (
    INFINITY,
    AtomicSpec,
    Constant,
    CoupledSpec,
    Coupling,
    EntityFactory,
    Message,
    WeightedChoice,
    individual_count,
    initialize,
    make_combiner,
    make_server,
    make_sink,
    make_source,
    substream,
)
from kinsim.errors import ConfigurationError, ContractViolationError, RoutingError

# A source that emits every entity on ``out``.
out_source = partial(make_source, route=lambda entity: "out", ports=("out",))


def deliver(spec, port_payloads, elapsed=0.0, state=None):
    """Hand one external event to an atomic the way the kernel would."""
    state = spec.initial_state if state is None else state
    bag = [Message(port, payload) for port, payload in port_payloads]
    return spec.delta_ext(state, elapsed, bag)


def flush(spec, state):
    """Fire zero-delay internal events until the object goes quiet."""
    collected = []
    while spec.time_advance(state) == 0.0:
        collected.extend(spec.output(state))
        state = spec.delta_int(state)
    return collected


def entities(factory, label, n):
    return [factory.create(label) for _ in range(n)]


def reported(state):
    """An object's report rows as data source -> value."""
    return {source: value for _, source, _, value in state.report_rows("X")}


class TestRouteSelect:
    def test_single_path_always_selected(self):
        assert route_select([("only", 3.0)], 0.0) == 0
        assert route_select([("only", 3.0)], 0.99) == 0

    def test_male_branch_weights_split_at_normalized_boundary(self):
        # weights 35.7 / 65.9 normalize to 0.35138 for the first path
        paths = [("consang", 35.7), ("nonconsang", 65.9)]
        assert route_select(paths, 0.3513) == 0
        assert route_select(paths, 0.3514) == 1

    def test_female_branch_weights_split_at_normalized_boundary(self):
        # weights 35.7 / 64.2 normalize to 0.35736 for the first path
        paths = [("consang", 35.7), ("nonconsang", 64.2)]
        assert route_select(paths, 0.3573) == 0
        assert route_select(paths, 0.3574) == 1

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigurationError):
            route_select([], 0.5)

    @pytest.mark.parametrize("paths", [
        pytest.param([("a", 1.0), ("b", 0.0)], id="zero"),
        pytest.param([("a", 1.0), ("b", -1.0)], id="negative"),
        pytest.param([("a", math.nan), ("b", 1.0)], id="nan-first"),
        pytest.param([("a", 1.0), ("b", math.nan)], id="nan-second"),
    ])
    def test_nonpositive_weight_rejected(self, paths):
        with pytest.raises(ConfigurationError):
            route_select(paths, 0.5)

    def test_law_of_large_numbers(self):
        stream = substream(314, 0)
        paths = [("c", 35.7), ("nc", 65.9)]
        n = 20_000
        hits = sum(1 for _ in range(n) if route_select(paths, stream.uniform()) == 0)
        p = 35.7 / (35.7 + 65.9)
        assert abs(hits / n - p) <= 3 * math.sqrt(p * (1 - p) / n)

    @given(st.floats(min_value=0.0, max_value=0.999999), st.floats(min_value=0.0, max_value=0.999999))
    def test_monotone_in_u(self, a, b):
        paths = [("x", 1.0), ("y", 2.0), ("z", 3.0)]
        lo, hi = min(a, b), max(a, b)
        assert route_select(paths, lo) <= route_select(paths, hi)


class TestSource:
    def _sink_model(self, source_spec):
        sink = make_sink()
        model = CoupledSpec(
            components={"src": source_spec, "snk": sink},
            couplings=[Coupling("src", "out", "snk", "in")],
        )
        return model, sink

    def test_constant_interarrival_emits_at_1_through_10(self):
        factory = EntityFactory()
        src = out_source("X", Constant(1.0), None, factory=factory, stream=substream(1, 0))
        model, sink = self._sink_model(src)
        handle = initialize(model)
        handle.run_until(10.0)
        assert sink.initial_state.stats.entered == 10
        assert factory.label_counts["X"] == 10

    def test_emission_times_are_the_interarrival_sums(self):
        # A passive collector advances its own clock by each elapsed time,
        # from the start time, so it knows when each entity arrived.
        def collect(s, e, xs):
            s["now"] += e
            s["seen"].extend(s["now"] for m in xs)
            return s

        def emission_times(gap, t0):
            src = out_source("X", Constant(gap), 3, factory=EntityFactory(), stream=substream(1, 0))
            collector = AtomicSpec(
                initial_state={"now": t0, "seen": []},
                time_advance=lambda s: INFINITY,
                delta_int=lambda s: s,
                delta_ext=collect,
                output=lambda s: [],
                input_ports=("in",),
            )
            model = CoupledSpec(
                components={"src": src, "got": collector},
                couplings=[Coupling("src", "out", "got", "in")],
            )
            handle = initialize(model, t0)
            handle.run_until(20.0)
            return handle.state_of("got")["seen"]

        assert emission_times(2.0, 0.0) == [2.0, 4.0, 6.0]
        # the source keeps no clock of its own: the kernel's start time counts
        assert emission_times(1.0, 5.0) == [6.0, 7.0, 8.0]

    def test_route_names_the_port_of_each_emission(self):
        factory = EntityFactory()
        routed = []

        def route(entity):
            routed.append(entity)
            return "odd" if len(routed) % 2 else "even"

        src = make_source("X", Constant(1.0), 5, factory=factory, stream=substream(1, 0),
                          route=route, ports=("odd", "even"))
        sinks = {"O": make_sink(), "E": make_sink()}
        model = CoupledSpec(
            components={"src": src, **sinks},
            couplings=[Coupling("src", "odd", "O", "in"), Coupling("src", "even", "E", "in")],
        )
        trace = trace_rows(model, 10.0)
        assert len(routed) == len(set(map(id, routed))) == 5  # once per emission
        assert [port for _, c, _, port, _ in trace if c == "src"] == ["odd", "even"] * 2 + ["odd"]
        assert [sink.initial_state.stats.entered for sink in sinks.values()] == [3, 2]

    def test_route_to_an_undeclared_port_raises_routing_error(self):
        src = make_source("X", Constant(1.0), None, factory=EntityFactory(),
                          stream=substream(1, 0), route=lambda entity: "elsewhere", ports=("out",))
        with pytest.raises(RoutingError, match="undeclared port 'elsewhere'"):
            initialize(src).step()

    def test_route_and_ports_are_required(self):
        with pytest.raises(TypeError, match="'route' and 'ports'"):
            make_source("X", Constant(1.0), None, factory=EntityFactory(), stream=substream(1, 0))

    def test_max_arrivals_zero_emits_nothing(self):
        factory = EntityFactory()
        src = out_source("X", Constant(1.0), 0, factory=factory, stream=substream(1, 0))
        model, sink = self._sink_model(src)
        handle = initialize(model)
        handle.run_until(100.0)
        assert sink.initial_state.stats.entered == 0
        assert factory.created_total == 0

    def test_max_arrivals_caps_emissions(self):
        factory = EntityFactory()
        src = out_source("X", Constant(1.0), 4, factory=factory, stream=substream(1, 0))
        model, sink = self._sink_model(src)
        handle = initialize(model)
        handle.run_until(100.0)
        assert sink.initial_state.stats.entered == 4
        assert factory.created_total == 4  # no pending after the cap

    def test_two_sources_are_independent_streams(self):
        factory = EntityFactory()
        mp = out_source("MP", Constant(1.0), 5, factory=factory, stream=substream(1, 0))
        fp = out_source("FP", Constant(1.5), 5, factory=factory, stream=substream(2, 0))
        sink = make_sink()
        model = CoupledSpec(
            components={"MP": mp, "FP": fp, "snk": sink},
            couplings=[Coupling("MP", "out", "snk", "in"), Coupling("FP", "out", "snk", "in")],
        )
        handle = initialize(model)
        handle.run_until(100.0)
        assert sink.initial_state.stats.entered == 10
        assert factory.label_counts == {"MP": 5, "FP": 5}

    def test_negative_interarrival_sample_rejected(self):
        with pytest.raises(ContractViolationError):
            out_source("X", Constant(-1.0), None, factory=EntityFactory(), stream=substream(1, 0))

    def test_negative_max_arrivals_rejected(self):
        with pytest.raises(ConfigurationError):
            out_source("X", Constant(1.0), -1, factory=EntityFactory(), stream=substream(1, 0))


class TestCombiner:
    def test_marriage_attaches_member_to_parent(self):
        factory = EntityFactory()
        spec = make_combiner()
        fp, mp = factory.create("FP"), factory.create("MP")
        state = deliver(spec, [("parent_in", fp), ("member_in", mp)])
        out = flush(spec, state)
        assert [m.payload for m in out] == [fp]
        assert fp.member is mp
        assert state.stats.processed == 1

    def test_parents_wait_when_no_members(self):
        factory = EntityFactory()
        spec = make_combiner()
        state = deliver(spec, [("parent_in", e) for e in entities(factory, "FP", 3)])
        assert flush(spec, state) == []
        assert reported(state)["[ParentInputBuffer]"] == 3
        assert len(state.parents) == 3

    def test_surplus_parents_stay_held(self):
        # 91 candidates arrive against 74 members: 74 marriages, 17 held.
        factory = EntityFactory()
        spec = make_combiner()
        state = deliver(spec, [("parent_in", e) for e in entities(factory, "FP", 91)])
        state = deliver(spec, [("member_in", e) for e in entities(factory, "MP", 74)], state=state)
        out = flush(spec, state)
        assert len(out) == 74
        assert state.stats.processed == 74
        rows = reported(state)
        assert rows["[ParentInputBuffer]"] == 91
        assert len(state.parents) == 17
        assert rows["[MemberInputBuffer]"] == 74
        assert rows["[OutputBuffer]"] == 74

    def test_fifo_pairing_order(self):
        factory = EntityFactory()
        spec = make_combiner()
        parents = entities(factory, "FP", 2)
        members = entities(factory, "MP", 2)
        state = deliver(spec, [("member_in", members[0]), ("member_in", members[1])])
        state = deliver(spec, [("parent_in", parents[0]), ("parent_in", parents[1])], state=state)
        out = flush(spec, state)
        assert [m.payload for m in out] == parents
        assert parents[0].member is members[0]
        assert parents[1].member is members[1]

    @settings(max_examples=50, deadline=None)
    @given(arrivals=st.lists(st.booleans(), max_size=60))
    def test_drained_output_equals_min_rule(self, arrivals):
        # True = parent arrival, False = member arrival, in random order.
        factory = EntityFactory()
        spec = make_combiner()
        state = spec.initial_state
        for is_parent in arrivals:
            port = "parent_in" if is_parent else "member_in"
            state = deliver(spec, [(port, factory.create("E"))], state=state)
        out = flush(spec, state)
        n_parents = sum(arrivals)
        n_members = len(arrivals) - n_parents
        assert len(out) == min(n_parents, n_members)
        assert state.stats.processed == len(out)
        # each marriage consumes one member
        assert reported(state)["[MemberInputBuffer]"] == len(out)
        # conservation at the object: everything in is out or held
        held = state.held_individuals()
        total_in = len(arrivals)
        total_out = sum(individual_count(m.payload) for m in out)
        assert total_in == total_out + held

    def test_arrivals_count_each_port_married_or_waiting(self):
        factory = EntityFactory()
        spec = make_combiner()
        state = deliver(spec, [("parent_in", e) for e in entities(factory, "FP", 5)])
        state = deliver(spec, [("member_in", e) for e in entities(factory, "MP", 3)], state=state)
        assert (state.arrivals("parent_in"), state.arrivals("member_in")) == (5, 3)
        flush(spec, state)
        state = deliver(spec, [("member_in", e) for e in entities(factory, "MP", 4)], state=state)
        flush(spec, state)
        # 5 marriages; 2 members wait
        assert (state.arrivals("parent_in"), state.arrivals("member_in")) == (5, 7)


def no_offspring(parent):
    return []


class TestServer:
    def test_zero_service_time_is_passthrough(self):
        factory = EntityFactory()
        spec = make_server(no_offspring)
        e = factory.create("E")
        state = deliver(spec, [("in", e)])
        assert spec.time_advance(state) == 0.0
        out = flush(spec, state)
        assert [m.payload for m in out] == [e]
        assert state.stats.processed == 1
        assert spec.time_advance(state) == INFINITY

    def test_trigger_children_leave_behind_parent(self):
        factory = EntityFactory()

        def twins(parent):
            return [factory.create("Child"), factory.create("Child")]

        spec = make_server(on_processed=twins)
        couple = factory.create("Couple")
        state = deliver(spec, [("in", couple)])
        out = flush(spec, state)
        labels = [m.payload.class_label for m in out]
        assert labels == ["Couple", "Child", "Child"]
        assert state.stats.processed == 1  # children are not counted as processed
        assert reported(state)["[OutputBuffer]"] == 1
        assert state.arrivals("in") == 1  # nor as arrivals

    def test_processed_counter_accumulates(self):
        factory = EntityFactory()
        spec = make_server(no_offspring)
        state = spec.initial_state
        for _ in range(299):
            state = deliver(spec, [("in", factory.create("E"))], state=state)
            flush(spec, state)
        assert state.stats.processed == 299
        assert reported(state)["[InputBuffer]"] == 299 and not state.outq

    def test_fifo_service_order_preserved(self):
        # Same-instant arrivals are processed in arrival order, each parent
        # followed by its own offspring, also when a later arrival comes
        # before the earlier ones have left.
        factory = EntityFactory()

        def one_child_each(parent):
            return [factory.create(f"Child of {parent.id}")]

        spec = make_server(one_child_each)
        first, second, third = entities(factory, "E", 3)
        state = deliver(spec, [("in", first), ("in", second)])
        state = deliver(spec, [("in", third)], state=state)
        out = [m.payload for m in flush(spec, state)]
        assert out[::2] == [first, second, third]
        assert [child.class_label for child in out[1::2]] == [f"Child of {e.id}" for e in out[::2]]
        assert reported(state)["[OutputBuffer]"] == 3

    def test_unit_balance_includes_trigger_children(self):
        factory = EntityFactory()

        def twins(parent):
            return [factory.create("Child"), factory.create("Child")]

        spec = make_server(on_processed=twins)
        state = spec.initial_state
        emitted = 0
        for _ in range(3):
            state = deliver(spec, [("in", factory.create("Couple"))], state=state)
            emitted += len(flush(spec, state))
        # 3 couples in plus 6 children born inside equals 9 units out
        assert state.stats.processed + 6 == emitted == 9
        assert state.held_individuals() == 0


class TestSink:
    def test_counts_members_and_children_by_class(self):
        factory = EntityFactory()
        spec = make_sink()
        fp = factory.create("FP")
        fp.member = factory.create("MP")
        fp.member.affected = True  # a member is tallied under its own class
        child_a = factory.create("Child")
        child_b = factory.create("Child")
        child_b.affected = True
        state = deliver(spec, [("in", fp), ("in", child_a), ("in", child_b)])
        assert state.stats.entered == 3  # flowing units
        assert state.stats.destroyed_individuals == 4
        assert state.stats.affected_by_class == {"MP": 1, "Child": 1}
        assert reported(state)["[InputBuffer]"] == state.arrivals("in") == 3

    def test_no_arrivals_no_destruction(self):
        spec = make_sink()
        stats = spec.initial_state.stats
        assert (stats.entered, stats.destroyed_individuals) == (0, 0)

    def test_affected_tally(self):
        factory = EntityFactory()
        spec = make_sink()
        sick = factory.create("Child_C")
        sick.affected = True
        healthy = factory.create("Child_C")
        state = deliver(spec, [("in", sick), ("in", healthy)])
        assert state.stats.affected_by_class == {"Child_C": 1}


class CountingStream:
    """Returns the given uniforms in turn and counts the draws."""

    def __init__(self, *draws):
        self.draws = list(draws)
        self.drawn = 0

    def uniform(self):
        u = self.draws[self.drawn % len(self.draws)]
        self.drawn += 1
        return u


class TestSplitter:
    """The weighted split of a flow: a WeightedChoice's picks."""

    @pytest.mark.parametrize("weights", [(1.0, 0.0), (0.0, 1.0), (2.0, -1.0), (1.0, math.nan)])
    def test_nonpositive_weight_rejected_at_build(self, weights):
        with pytest.raises(ConfigurationError, match="weight must be positive"):
            WeightedChoice({f"p{i}": w for i, w in enumerate(weights)}, stream=substream(1, 0))

    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=2, max_size=5,
        ),
        u=st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            st.just(math.nextafter(1.0, 0.0)),
        ),
    )
    # u * total falls exactly on a running sum: route_select moves on.
    @example(weights=[1.0, 1.0], u=0.5)
    @example(weights=[1.0, 1.0, 2.0], u=0.25)
    def test_pick_is_route_select(self, weights, u):
        weighted = [(f"p{i}", w) for i, w in enumerate(weights)]
        stream = CountingStream(u)
        choice = WeightedChoice(dict(weighted), stream=stream)
        assert choice.pick() == weighted[route_select(weighted, u)][0]
        assert stream.drawn == 1

    def test_picks_follow_the_weights_within_3_sigma(self):
        choice = WeightedChoice({"male": 0.595, "female": 0.405}, stream=substream(21, 0))
        n = 2000
        males = sum(choice.pick() == "male" for _ in range(n))
        p = 0.595
        assert abs(males / n - p) <= 3 * math.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize("per_event", [1, 2], ids=["two_events", "one_event"])
    def test_same_entity_emitted_twice_draws_twice(self, per_event):
        # One atomic routes the same Entity object twice in a row, in two
        # events or as two messages of one event: each message draws anew.
        entity = EntityFactory().create("X")
        stream = CountingStream(0.2, 0.8)
        choice = WeightedChoice({"a": 1.0, "b": 1.0}, stream=stream)
        emitter = AtomicSpec(
            initial_state={"left": 2},
            time_advance=lambda s: 1.0 if s["left"] else INFINITY,
            delta_int=lambda s: {"left": s["left"] - per_event},
            delta_ext=lambda s, e, xs: s,
            output=lambda s: [Message(choice.pick(), entity) for _ in range(per_event)],
            output_ports=("a", "b"),
        )
        sinks = {"A": make_sink(), "B": make_sink()}
        model = CoupledSpec(
            components={"src": emitter, **sinks},
            couplings=[Coupling("src", "a", "A", "in"), Coupling("src", "b", "B", "in")],
        )
        initialize(model).run_until(10.0)
        assert stream.drawn == 2
        assert [reported(sink.initial_state)["[InputBuffer]"] for sink in sinks.values()] == [1, 1]

    @pytest.mark.parametrize("weights", [(1e308, 1e308), (math.inf, 1.0)], ids=["overflow", "infinite"])
    def test_weights_without_a_finite_sum_rejected(self, weights):
        # u * inf would name the last route on every pick
        with pytest.raises(ConfigurationError, match="finite sum"):
            WeightedChoice({"a": weights[0], "b": weights[1]}, stream=substream(1, 0))

    def test_weighted_splitter_requires_stream(self):
        with pytest.raises(TypeError, match="stream"):
            WeightedChoice({"a": 1.0, "b": 1.0})

    @pytest.mark.parametrize("weights", [{}, {"out": 1.0}], ids=["no_choice", "one_choice"])
    def test_empty_choices_rejected(self, weights):
        with pytest.raises(ConfigurationError, match="at least two"):
            WeightedChoice(weights, stream=substream(1, 0))
