"""Process objects: sources, combiners, servers, sinks, paths, routing."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import trace_rows
from kinsim import (
    INFINITY,
    AtomicSpec,
    Constant,
    CoupledSpec,
    Coupling,
    EntityFactory,
    Message,
    RouteChoice,
    individual_count,
    initialize,
    make_combiner,
    make_path,
    make_server,
    make_sink,
    make_source,
    make_splitter,
    route_select,
    substream,
)
from kinsim.errors import ConfigurationError, ContractViolationError
from kinsim.objects import Travelers


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
    return [factory.create(label, 0.0) for _ in range(n)]


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
        src = make_source("X", Constant(1.0), None, factory=factory, stream=substream(1, 0))
        model, sink = self._sink_model(src)
        handle = initialize(model)
        handle.run_until(10.0)
        stats = sink.initial_state.stats
        assert stats.destroyed == 10
        assert src.initial_state.stats.created == 10
        assert factory.label_counts["X"] == 10

    def test_created_at_matches_emission_times(self):
        factory = EntityFactory()
        src = make_source("X", Constant(2.0), 3, factory=factory, stream=substream(1, 0))

        # A passive collector advances its own clock by each elapsed time, so
        # it knows when each entity arrived.
        def collect(s, e, xs):
            s["now"] += e
            s["seen"].extend((s["now"], m.payload.created_at) for m in xs)
            return s

        collector = AtomicSpec(
            initial_state={"now": 0.0, "seen": []},
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
        handle = initialize(model)
        handle.run_until(10.0)
        assert handle.state_of("got")["seen"] == [(2.0, 2.0), (4.0, 4.0), (6.0, 6.0)]

    def test_max_arrivals_zero_emits_nothing(self):
        factory = EntityFactory()
        src = make_source("X", Constant(1.0), 0, factory=factory, stream=substream(1, 0))
        model, sink = self._sink_model(src)
        handle = initialize(model)
        handle.run_until(100.0)
        assert sink.initial_state.stats.destroyed == 0
        assert factory.created_total == 0

    def test_max_arrivals_caps_emissions(self):
        factory = EntityFactory()
        src = make_source("X", Constant(1.0), 4, factory=factory, stream=substream(1, 0))
        model, sink = self._sink_model(src)
        handle = initialize(model)
        handle.run_until(100.0)
        assert sink.initial_state.stats.destroyed == 4
        assert factory.created_total == 4  # no pending after the cap

    def test_two_sources_are_independent_streams(self):
        factory = EntityFactory()
        mp = make_source("MP", Constant(1.0), 5, factory=factory, stream=substream(1, 0))
        fp = make_source("FP", Constant(1.5), 5, factory=factory, stream=substream(2, 0))
        sink = make_sink()
        model = CoupledSpec(
            components={"MP": mp, "FP": fp, "snk": sink},
            couplings=[Coupling("MP", "out", "snk", "in"), Coupling("FP", "out", "snk", "in")],
        )
        handle = initialize(model)
        handle.run_until(100.0)
        assert sink.initial_state.stats.destroyed_by_class == {"MP": 5, "FP": 5}

    def test_negative_interarrival_sample_rejected(self):
        with pytest.raises(ContractViolationError):
            make_source("X", Constant(-1.0), None, factory=EntityFactory(), stream=substream(1, 0))

    def test_negative_max_arrivals_rejected(self):
        with pytest.raises(ConfigurationError):
            make_source("X", Constant(1.0), -1, factory=EntityFactory(), stream=substream(1, 0))


class TestCombiner:
    def test_marriage_attaches_member_to_parent(self):
        factory = EntityFactory()
        spec = make_combiner(batch_quantity=1)
        fp, mp = factory.create("FP", 0.0), factory.create("MP", 0.0)
        state = deliver(spec, [("parent_in", fp), ("member_in", mp)])
        out = flush(spec, state)
        assert [m.payload for m in out] == [fp]
        assert fp.members == [mp]
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

    def test_batch_quantity_two(self):
        factory = EntityFactory()
        spec = make_combiner(batch_quantity=2)
        state = deliver(spec, [("parent_in", e) for e in entities(factory, "P", 2)])
        state = deliver(spec, [("member_in", e) for e in entities(factory, "M", 5)], state=state)
        out = flush(spec, state)
        assert len(out) == 2
        assert all(len(m.payload.members) == 2 for m in out)
        # 5 members arrived, 4 went into batches, 1 is held
        assert reported(state)["[MemberInputBuffer]"] == 4
        assert len(state.members) == 1

    def test_fifo_pairing_order(self):
        factory = EntityFactory()
        spec = make_combiner()
        parents = entities(factory, "FP", 2)
        members = entities(factory, "MP", 2)
        state = deliver(spec, [("member_in", members[0]), ("member_in", members[1])])
        state = deliver(spec, [("parent_in", parents[0]), ("parent_in", parents[1])], state=state)
        out = flush(spec, state)
        assert [m.payload for m in out] == parents
        assert parents[0].members == [members[0]]
        assert parents[1].members == [members[1]]

    def test_bad_batch_quantity_rejected(self):
        with pytest.raises(ConfigurationError):
            make_combiner(batch_quantity=0)

    @settings(max_examples=50, deadline=None)
    @given(
        arrivals=st.lists(st.booleans(), max_size=60),
        batch_quantity=st.integers(min_value=1, max_value=3),
    )
    def test_drained_output_equals_min_rule(self, arrivals, batch_quantity):
        # True = parent arrival, False = member arrival, in random order.
        factory = EntityFactory()
        spec = make_combiner(batch_quantity=batch_quantity)
        state = spec.initial_state
        for is_parent in arrivals:
            port = "parent_in" if is_parent else "member_in"
            state = deliver(spec, [(port, factory.create("E", 0.0))], state=state)
        out = flush(spec, state)
        n_parents = sum(arrivals)
        n_members = len(arrivals) - n_parents
        assert len(out) == min(n_parents, n_members // batch_quantity)
        assert state.stats.processed == len(out)
        # member consumption always equals processed batches times the quantity
        assert reported(state)["[MemberInputBuffer]"] == len(out) * batch_quantity
        # conservation at the object: everything in is out or held
        held = state.held_individuals()
        total_in = len(arrivals)
        total_out = sum(individual_count(m.payload) for m in out)
        assert total_in == total_out + held


class TestServer:
    def test_zero_service_time_is_passthrough(self):
        factory = EntityFactory()
        spec = make_server()
        e = factory.create("E", 0.0)
        state = deliver(spec, [("in", e)])
        out = flush(spec, state)
        assert [m.payload for m in out] == [e]
        assert state.stats.processed == 1

    def test_trigger_children_leave_behind_parent(self):
        factory = EntityFactory()

        def twins(parent, now):
            return [factory.create("Child", now), factory.create("Child", now)]

        spec = make_server(on_processed=twins)
        couple = factory.create("Couple", 0.0)
        state = deliver(spec, [("in", couple)])
        out = flush(spec, state)
        labels = [m.payload.class_label for m in out]
        assert labels == ["Couple", "Child", "Child"]
        assert state.stats.processed == 1  # children are not counted as processed
        assert reported(state)["[OutputBuffer]"] == 1

    def test_processed_counter_accumulates(self):
        factory = EntityFactory()
        spec = make_server()
        state = spec.initial_state
        for _ in range(299):
            state = deliver(spec, [("in", factory.create("E", 0.0))], state=state)
            flush(spec, state)
        assert state.stats.processed == 299
        assert reported(state)["[InputBuffer]"] == 299 and not state.queue

    def test_capacity_limits_concurrency(self):
        factory = EntityFactory()
        src_stream = substream(8, 0)
        src = make_source("E", Constant(0.5), 4, factory=factory, stream=src_stream)
        server = make_server(capacity=1, service_time=Constant(2.0), stream=substream(9, 0))
        sink = make_sink()
        model = CoupledSpec(
            components={"src": src, "srv": server, "snk": sink},
            couplings=[
                Coupling("src", "out", "srv", "in"),
                Coupling("srv", "out", "snk", "in"),
            ],
        )
        handle = initialize(model)
        handle.run_until(1.9)
        st_srv = server.initial_state.stats
        assert st_srv.entered == 3  # arrivals at 0.5, 1.0, 1.5
        assert st_srv.processed == 0  # first service completes at t=2.5
        handle.run_until(20.0)
        assert st_srv.processed == 4
        assert sink.initial_state.stats.destroyed == 4
        # serialized: completions at 2.5, 4.5, 6.5, 8.5
        assert server.initial_state.now == 8.5

    def test_fifo_service_order_preserved(self):
        factory = EntityFactory()
        spec = make_server(capacity=2, service_time=Constant(1.0), stream=substream(10, 0))
        first, second, third = entities(factory, "E", 3)
        state = deliver(spec, [("in", first), ("in", second), ("in", third)])
        assert spec.time_advance(state) == 1.0
        state = spec.delta_int(state)  # completes the first two at t=1
        out = flush(spec, state)
        assert [m.payload for m in out] == [first, second]

    def test_unit_balance_includes_trigger_children(self):
        factory = EntityFactory()

        def twins(parent, now):
            return [factory.create("Child", now), factory.create("Child", now)]

        spec = make_server(on_processed=twins)
        state = spec.initial_state
        emitted = 0
        for _ in range(3):
            state = deliver(spec, [("in", factory.create("Couple", 0.0))], state=state)
            emitted += len(flush(spec, state))
        # 3 couples in plus 6 children born inside equals 9 units out
        assert state.stats.entered + 6 == emitted
        assert state.stats.exited == emitted
        assert state.held_individuals() == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            make_server(capacity=0)

    def test_negative_service_sample_rejected(self):
        factory = EntityFactory()
        spec = make_server(service_time=Constant(-0.5), stream=substream(11, 0))
        with pytest.raises(ContractViolationError):
            deliver(spec, [("in", factory.create("E", 0.0))])


class TestSink:
    def test_counts_members_and_children_by_class(self):
        factory = EntityFactory()
        spec = make_sink()
        fp = factory.create("FP", 0.0)
        fp.members = [factory.create("MP", 0.0), factory.create("MP", 0.0)]
        child_a = factory.create("Child", 1.0)
        child_b = factory.create("Child", 1.0)
        state = deliver(spec, [("in", fp), ("in", child_a), ("in", child_b)])
        assert state.stats.destroyed == 3  # flowing units
        assert state.stats.destroyed_individuals == 5
        assert state.stats.destroyed_by_class == {"FP": 1, "MP": 2, "Child": 2}
        assert reported(state)["[InputBuffer]"] == 3

    def test_no_arrivals_no_destruction(self):
        spec = make_sink()
        assert spec.initial_state.stats.destroyed == 0

    def test_affected_tally(self):
        factory = EntityFactory()
        spec = make_sink()
        sick = factory.create("Child_C", 0.0)
        sick.attributes["affected"] = True
        healthy = factory.create("Child_C", 0.0)
        healthy.attributes["affected"] = False
        state = deliver(spec, [("in", sick), ("in", healthy)])
        assert state.stats.affected_by_class == {"Child_C": 1}


class TestPath:
    def test_zero_travel_forwards_immediately(self):
        factory = EntityFactory()
        spec = make_path(0.0)
        e = factory.create("E", 0.0)
        state = deliver(spec, [("in", e)])
        assert spec.time_advance(state) == 0.0
        out = flush(spec, state)
        assert [m.payload for m in out] == [e]
        assert reported(state)["[Travelers]"] == 1
        assert state.stats.exited == 1

    def test_same_instant_arrivals_exit_in_entry_order(self):
        factory = EntityFactory()
        spec = make_path(0.0)
        e1, e2 = entities(factory, "E", 2)
        state = deliver(spec, [("in", e1), ("in", e2)])
        out = flush(spec, state)
        assert [m.payload for m in out] == [e1, e2]

    def test_travel_time_delays_exit(self):
        factory = EntityFactory()
        src = make_source("E", Constant(1.0), 3, factory=factory, stream=substream(3, 0))
        path = make_path(0.75)
        sink = make_sink()
        model = CoupledSpec(
            components={"src": src, "path": path, "snk": sink},
            couplings=[
                Coupling("src", "out", "path", "in"),
                Coupling("path", "out", "snk", "in"),
            ],
        )
        exits = [t for t, component, phase, _, _ in trace_rows(model, 10.0)
                 if component == "path" and phase == "internal"]
        assert exits == [1.75, 2.75, 3.75]
        assert reported(path.initial_state)["[Travelers]"] == 3

    def test_negative_travel_time_rejected(self):
        with pytest.raises(ConfigurationError):
            make_path(-1.0)


class TestTravelers:
    def test_counts_and_passes_payload_unchanged(self):
        factory = EntityFactory()
        legs = Travelers("Path3", "Path7")
        e1, e2 = entities(factory, "MP", 2)
        assert legs(e1) is e1
        assert legs(e2) is e2
        assert legs.legs == ("Path3", "Path7")
        assert legs.count == 2

    def test_counts_a_coupling_without_kernel_steps(self):
        factory = EntityFactory()
        leg = Travelers("Leg")
        sink = make_sink()
        model = CoupledSpec(
            components={
                "src": make_source("E", Constant(1.0), 4, factory=factory, stream=substream(5, 0)),
                "snk": sink,
            },
            couplings=[Coupling("src", "out", "snk", "in", translate=leg)],
        )
        trace = trace_rows(model, 10.0)
        assert leg.count == reported(sink.initial_state)["[InputBuffer]"] == 4
        assert [phase for _, _, phase, _, _ in trace] == ["internal", "external"] * 4


class TestSplitter:
    def test_relabel_counts_dynamic_assignment(self):
        factory = EntityFactory()
        spec = make_splitter(
            [RouteChoice("male", 0.595, relabel="MP"), RouteChoice("female", 0.405, relabel="FP")],
            stream=substream(21, 0),
            factory=factory,
        )
        state = spec.initial_state
        n = 2000
        for _ in range(n):
            state = deliver(spec, [("in", factory.create("WP", 0.0))], state=state)
            flush(spec, state)
        assert factory.label_counts["MP"] + factory.label_counts["FP"] == n
        p = 0.595
        assert abs(factory.label_counts["MP"] / n - p) <= 3 * math.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize("weights", [(1.0, 0.0), (0.0, 1.0), (2.0, -1.0), (1.0, math.nan)])
    def test_nonpositive_weight_rejected_at_build(self, weights):
        choices = [RouteChoice(f"p{i}", w) for i, w in enumerate(weights)]
        with pytest.raises(ConfigurationError, match="weight must be positive"):
            make_splitter(choices, stream=substream(1, 0))

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
        class Fixed:
            def uniform(self):
                return u

        weighted = [(f"p{i}", w) for i, w in enumerate(weights)]
        spec = make_splitter([RouteChoice(port, w) for port, w in weighted], stream=Fixed())
        out = flush(spec, deliver(spec, [("in", "entity")]))
        assert [msg.port for msg in out] == [weighted[route_select(weighted, u)][0]]

    def test_weighted_splitter_requires_stream(self):
        with pytest.raises(ConfigurationError):
            make_splitter([RouteChoice("a", 1.0), RouteChoice("b", 1.0)])

    @pytest.mark.parametrize("choices", [[], [RouteChoice("out")]], ids=["no_choice", "one_choice"])
    def test_empty_choices_rejected(self, choices):
        with pytest.raises(ConfigurationError, match="at least two"):
            make_splitter(choices, stream=substream(1, 0))

    def test_relabel_without_factory_rejected(self):
        choices = [RouteChoice("male", 1.0, relabel="MP"), RouteChoice("female", 1.0)]
        with pytest.raises(ConfigurationError, match="needs an entity factory"):
            make_splitter(choices, stream=substream(1, 0))
