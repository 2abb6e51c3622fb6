"""Kernel semantics: scheduling, select ties, routing, hierarchy, guards."""

from __future__ import annotations

import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinsim.kernel
from _oracles import generator_schedule, parse_trace, trace_rows
from kinsim import (
    INFINITY,
    AtomicSpec,
    Coupling,
    CoupledSpec,
    Message,
    initialize,
)
from kinsim.errors import (
    ContractViolationError,
    IllegitimateModelError,
    RoutingError,
    SimulationError,
    StructuralError,
)
from kinsim.randomness import Exponential, RngStream


def passive() -> AtomicSpec:
    return AtomicSpec(
        initial_state={},
        time_advance=lambda s: INFINITY,
        delta_int=lambda s: s,
        delta_ext=lambda s, e, xs: s,
        output=lambda s: [],
        input_ports=("in",),
    )


def generator(period: float) -> AtomicSpec:
    """Emits its event counter every `period` time units, forever."""

    def dint(s):
        s["n"] += 1
        return s

    return AtomicSpec(
        initial_state={"n": 0},
        time_advance=lambda s: period,
        delta_int=dint,
        delta_ext=lambda s, e, xs: s,
        output=lambda s: [Message("out", s["n"])],
        output_ports=("out",),
    )


def counter(*ports: str) -> AtomicSpec:
    """Passive accumulator recording (elapsed, payloads) per delivery, on
    the input ports given, ``in`` by default."""

    def dext(s, e, xs):
        s["count"] += len(xs)
        s["seen"].append((e, [m.payload for m in xs]))
        return s

    return AtomicSpec(
        initial_state={"count": 0, "seen": []},
        time_advance=lambda s: INFINITY,
        delta_int=lambda s: s,
        delta_ext=dext,
        output=lambda s: [],
        input_ports=ports or ("in",),
    )


def internal_times(rows):
    return [(t, component) for t, component, phase, _, _ in rows if phase == "internal"]


class TestInitialize:
    def test_passive_never_schedules(self):
        handle = initialize(passive(), 0.0)
        assert handle.next_event_time == INFINITY

    def test_generator_schedules_first_event_at_t0_plus_ta(self):
        handle = initialize(generator(2.0), 0.0)
        assert handle.next_event_time == 2.0

    def test_nonzero_t0_offsets_schedule(self):
        handle = initialize(generator(2.0), 5.0)
        assert handle.next_event_time == 7.0

    def test_coupled_root_next_event_is_minimum_over_children(self):
        model = CoupledSpec(components={"gen": generator(2.0), "idle": passive()})
        handle = initialize(model, 0.0)
        assert handle.next_event_time == 2.0

    def test_every_node_starts_consistent(self):
        model = CoupledSpec(components={"gen": generator(3.0), "idle": passive()})
        handle = initialize(model, 1.0)
        for _, t_last, t_next in handle.node_times():
            assert t_last == 1.0
            assert t_next in (4.0, INFINITY)

    def test_negative_initial_time_advance_rejected(self):
        bad = AtomicSpec(
            initial_state={},
            time_advance=lambda s: -1.0,
            delta_int=lambda s: s,
            delta_ext=lambda s, e, xs: s,
            output=lambda s: [],
        )
        with pytest.raises(ContractViolationError):
            initialize(bad, 0.0)


class TestStructuralValidation:
    def test_unknown_component_named(self):
        model = CoupledSpec(
            components={"gen": generator(1.0)},
            couplings=[Coupling("gen", "out", "ghost", "in")],
        )
        with pytest.raises(StructuralError, match="ghost"):
            initialize(model)

    def test_unknown_port_named(self):
        model = CoupledSpec(
            components={"gen": generator(1.0), "acc": counter()},
            couplings=[Coupling("gen", "nope", "acc", "in")],
        )
        with pytest.raises(StructuralError, match="nope"):
            initialize(model)

    def test_direct_self_loop_rejected(self):
        relay = AtomicSpec(
            initial_state={},
            time_advance=lambda s: INFINITY,
            delta_int=lambda s: s,
            delta_ext=lambda s, e, xs: s,
            output=lambda s: [],
            input_ports=("in",),
            output_ports=("out",),
        )
        model = CoupledSpec(components={"r": relay}, couplings=[Coupling("r", "out", "r", "in")])
        with pytest.raises(StructuralError, match="own input"):
            initialize(model)

    def test_boundary_passthrough_rejected(self):
        model = CoupledSpec(
            components={"gen": generator(1.0)},
            couplings=[Coupling(None, "in", None, "out")],
            input_ports=("in",),
            output_ports=("out",),
        )
        with pytest.raises(StructuralError):
            initialize(model)

    def test_select_must_cover_components(self):
        model = CoupledSpec(
            components={"a": generator(1.0), "b": generator(1.0)},
            select=["a"],
        )
        with pytest.raises(StructuralError, match="select"):
            initialize(model)

    @staticmethod
    def relay() -> AtomicSpec:
        return AtomicSpec(
            initial_state={},
            time_advance=lambda s: INFINITY,
            delta_int=lambda s: s,
            delta_ext=lambda s, e, xs: s,
            output=lambda s: [],
            input_ports=("in",),
            output_ports=("out",),
        )

    BAD_SCOPES = {
        "boundary input": (
            dict(couplings=[Coupling(None, "nope", "acc", "in")]),
            "unknown endpoint {boundary}.nope (input)",
        ),
        "child output": (
            dict(couplings=[Coupling("gen", "nope", "acc", "in")]),
            "unknown endpoint gen.nope (output)",
        ),
        "boundary output": (
            dict(couplings=[Coupling("gen", "out", None, "nope")]),
            "unknown endpoint {boundary}.nope (output)",
        ),
        "child input": (
            dict(couplings=[Coupling("gen", "out", "acc", "nope")]),
            "unknown endpoint acc.nope (input)",
        ),
        "unknown src": (
            dict(couplings=[Coupling("ghost", "out", "acc", "in")]),
            "coupling names unknown component 'ghost'",
        ),
        "unknown dst": (
            dict(couplings=[Coupling("gen", "out", "ghost", "in")]),
            "coupling names unknown component 'ghost'",
        ),
        "self loop": (
            dict(couplings=[Coupling("r", "out", "r", "in")]),
            "coupling connects 'r' output 'out' back to its own input 'in'",
        ),
        "passthrough": (
            dict(couplings=[Coupling(None, "in", None, "y")]),
            "coupling may not connect the boundary input 'in' directly to the boundary output 'y'",
        ),
        "select": (
            dict(select=["gen", "r"]),
            "select must be a total order over the components, "
            "got ['gen', 'r'] for components ['gen', 'acc', 'r']",
        ),
        # Checks run per coupling, source end first, then over select.
        "src before dst": (
            dict(couplings=[Coupling("gen", "nope", "ghost", "in")]),
            "unknown endpoint gen.nope (output)",
        ),
        "couplings before select": (
            dict(couplings=[Coupling("ghost", "out", "acc", "in")], select=["gen"]),
            "coupling names unknown component 'ghost'",
        ),
    }

    @pytest.mark.parametrize("nested", [False, True], ids=["root", "nested"])
    @pytest.mark.parametrize("form", list(BAD_SCOPES))
    def test_message_text(self, form, nested):
        fields, message = self.BAD_SCOPES[form]
        scope = CoupledSpec(
            components={"gen": generator(1.0), "acc": counter(), "r": self.relay()},
            input_ports=("in",),
            output_ports=("y",),
            **fields,
        )
        if nested:
            model = CoupledSpec(components={"top": CoupledSpec(components={"inner": scope})})
            where, boundary = "top/inner", "top/inner"
        else:
            model, where, boundary = scope, "<root>", "<boundary>"
        with pytest.raises(StructuralError) as raised:
            initialize(model)
        assert str(raised.value) == f"{where}: " + message.format(boundary=boundary)

    def test_root_scope_checked_before_nested_scopes(self):
        inner = CoupledSpec(
            components={"gen": generator(1.0)},
            couplings=[Coupling("gen", "nope", None, "y")],
            output_ports=("y",),
        )
        model = CoupledSpec(components={"inner": inner, "acc": counter()}, select=["acc"])
        with pytest.raises(StructuralError, match=r"^<root>: select must"):
            initialize(model)

    def test_undeclared_output_port_raises_routing_error(self):
        rogue = AtomicSpec(
            initial_state={},
            time_advance=lambda s: 1.0,
            delta_int=lambda s: s,
            delta_ext=lambda s, e, xs: s,
            output=lambda s: [Message("oops", 1)],
            output_ports=("out",),
        )
        handle = initialize(rogue)
        with pytest.raises(RoutingError, match="oops"):
            handle.step()


class TestStep:
    def test_solo_generator_first_step(self):
        handle = initialize(generator(2.0))
        t, outputs = handle.step()
        assert t == 2.0
        assert [m.payload for m in outputs] == [0]
        assert outputs[0].port == "out"

    def test_step_without_events_rejected(self):
        handle = initialize(passive())
        with pytest.raises(SimulationError):
            handle.step()

    def test_select_orders_simultaneous_events(self):
        model = CoupledSpec(
            components={"a": generator(2.0), "b": generator(2.0)},
            select=["a", "b"],
        )
        stream = io.StringIO()
        handle = initialize(model, trace_file=stream)
        t1, _ = handle.step()
        t2, _ = handle.step()
        assert (t1, t2) == (2.0, 2.0)
        assert internal_times(parse_trace(stream.getvalue())) == [(2.0, "a"), (2.0, "b")]

    def test_select_reversal_flips_order(self):
        model = CoupledSpec(
            components={"a": generator(2.0), "b": generator(2.0)},
            select=["b", "a"],
        )
        stream = io.StringIO()
        handle = initialize(model, trace_file=stream)
        handle.step()
        handle.step()
        assert internal_times(parse_trace(stream.getvalue())) == [(2.0, "b"), (2.0, "a")]

    def test_pipeline_delivers_with_elapsed_time(self):
        model = CoupledSpec(
            components={"gen": generator(1.0), "acc": counter()},
            couplings=[Coupling("gen", "out", "acc", "in")],
        )
        handle = initialize(model)
        t, _ = handle.step()
        state = handle.state_of("acc")
        assert t == 1.0
        assert state["count"] == 1
        assert state["seen"] == [(1.0, [0])]

    def test_nonselected_imminent_receiver_sees_elapsed_equal_ta(self):
        # a and b are both imminent at t=1; select picks a, whose output
        # preempts b: b's external transition must see elapsed == ta == 1.
        def b_dext(s, e, xs):
            s["elapsed"].append(e)
            return s

        b = AtomicSpec(
            initial_state={"n": 0, "elapsed": []},
            time_advance=lambda s: 1.0,
            delta_int=lambda s: (s.__setitem__("n", s["n"] + 1), s)[1],
            delta_ext=b_dext,
            output=lambda s: [Message("out", "b")],
            input_ports=("in",),
            output_ports=("out",),
        )
        model = CoupledSpec(
            components={"a": generator(1.0), "b": b},
            couplings=[Coupling("a", "out", "b", "in")],
            select=["a", "b"],
        )
        stream = io.StringIO()
        handle = initialize(model, trace_file=stream)
        handle.step()
        state = handle.state_of("b")
        assert state["elapsed"] == [1.0]
        assert state["n"] == 0  # its own internal event at t=1 was preempted
        assert internal_times(parse_trace(stream.getvalue())) == [(1.0, "a")]
        # b rescheduled a full period after the external transition
        times = dict((p, tn) for p, _, tn in handle.node_times())
        assert times["b"] == 2.0


class TestRunUntil:
    def test_passive_model_yields_empty_trace(self):
        assert trace_rows(CoupledSpec(components={"idle": passive()}), 10.0) == []

    def test_generator_until_7_fires_at_2_4_6(self):
        stream = io.StringIO()
        handle = initialize(generator(2.0), trace_file=stream)
        handle.run_until(7.0)
        assert [row[0] for row in parse_trace(stream.getvalue())] == [2.0, 4.0, 6.0]
        assert handle.clock == 6.0

    def test_boundary_event_at_t_end_is_processed(self):
        assert [row[0] for row in trace_rows(generator(2.0), 6.0)] == [2.0, 4.0, 6.0]

    def test_memory_stays_bounded_at_long_horizons(self):
        # Without a trace file the handle keeps nothing per event.
        tracemalloc.start()
        try:
            handle = initialize(generator(1.0))
            handle.run_until(50_000.0)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 64 * 1024

    def test_rewinding_rejected(self):
        handle = initialize(generator(2.0))
        handle.run_until(6.0)
        with pytest.raises(SimulationError):
            handle.run_until(5.0)

    def test_resume_continues_schedule(self):
        stream = io.StringIO()
        handle = initialize(generator(2.0), trace_file=stream)
        handle.run_until(5.0)
        start = len(stream.getvalue())
        handle.run_until(10.0)
        assert [row[0] for row in parse_trace(stream.getvalue()[start:])] == [6.0, 8.0, 10.0]

    def test_identical_seeds_give_byte_identical_traces(self):
        def stochastic(seed):
            stream = RngStream(seed)
            dist = Exponential(1.0)
            state = {"next": dist.sample(stream), "stream": stream, "dist": dist}

            def dint(s):
                s["next"] = s["dist"].sample(s["stream"])
                return s

            return AtomicSpec(
                initial_state=state,
                time_advance=lambda s: s["next"],
                delta_int=dint,
                delta_ext=lambda s, e, xs: s,
                output=lambda s: [Message("out", round(s["next"], 6))],
                output_ports=("out",),
            )

        dumps = []
        for _ in range(2):
            stream = io.StringIO()
            initialize(stochastic(seed=424242), trace_file=stream).run_until(25.0)
            dumps.append(stream.getvalue())
        assert dumps[0] == dumps[1]
        assert len(dumps[0].splitlines()) > 10

    def test_repeated_step_gives_the_run_until_trace(self):
        # two receivers of one output, listed against select order, so the
        # external transitions of one event need ordering
        def build():
            return CoupledSpec(
                components={
                    "a": generator(1.0),
                    "b": generator(1.5),
                    "first": counter(),
                    "second": counter(),
                },
                couplings=[
                    Coupling("a", "out", "second", "in"),
                    Coupling("a", "out", "first", "in"),
                    Coupling("b", "out", "second", "in"),
                ],
                select=["b", "first", "a", "second"],
            )

        expected = io.StringIO()
        by_run = initialize(build(), trace_file=expected)
        by_run.run_until(12.0)
        stepped = io.StringIO()
        by_step = initialize(build(), trace_file=stepped)
        while by_step.next_event_time <= 12.0:
            by_step.step()
        assert stepped.getvalue() == expected.getvalue()
        assert by_step.clock == by_run.clock == 12.0
        assert [row[1] for row in parse_trace(expected.getvalue())[:3]] == ["a", "first", "second"]


class TestGuardsAndInvariants:
    def test_zero_delay_loop_detected(self, monkeypatch):
        def relay(initial):
            def dext(s, e, xs):
                s["hot"] = True
                return s

            def dint(s):
                s["hot"] = False if not s["loop"] else True
                return s

            return AtomicSpec(
                initial_state={"hot": initial, "loop": True},
                time_advance=lambda s: 0.0 if s["hot"] else INFINITY,
                delta_int=dint,
                delta_ext=dext,
                output=lambda s: [Message("out", "tick")],
                input_ports=("in",),
                output_ports=("out",),
            )

        model = CoupledSpec(
            components={"a": relay(True), "b": relay(False)},
            couplings=[
                Coupling("a", "out", "b", "in"),
                Coupling("b", "out", "a", "in"),
            ],
        )
        monkeypatch.setattr(kinsim.kernel, "MAX_ZERO_STEPS", 50)
        handle = initialize(model)
        with pytest.raises(IllegitimateModelError):
            handle.run_until(1.0)

    def test_clock_monotone_and_nodes_consistent(self):
        model = CoupledSpec(
            components={
                "a": generator(1.0),
                "b": generator(1.5),
                "acc": counter(),
            },
            couplings=[
                Coupling("a", "out", "acc", "in"),
                Coupling("b", "out", "acc", "in"),
            ],
        )
        handle = initialize(model)
        last_time = 0.0
        for _ in range(40):
            t, _ = handle.step()
            assert t >= last_time
            last_time = t
            for _, t_last, t_next in handle.node_times():
                assert t_last <= handle.clock <= t_next

    def test_select_totality_k_events_at_tied_time(self):
        model = CoupledSpec(
            components={"a": generator(2.0), "b": generator(2.0), "c": generator(2.0)},
            select=["c", "a", "b"],
        )
        assert internal_times(trace_rows(model, 2.0)) == [(2.0, "c"), (2.0, "a"), (2.0, "b")]


class TestHierarchy:
    def test_nested_coupled_flattens_and_translates(self):
        # gen's "out" leaves inner as "y" and reaches acc as "x": each
        # coupling translates the port and carries the payload unchanged.
        inner = CoupledSpec(
            components={"gen": generator(1.0)},
            couplings=[Coupling("gen", "out", None, "y")],
            output_ports=("y",),
        )
        model = CoupledSpec(
            components={"inner": inner, "acc": counter("x")},
            couplings=[Coupling("inner", "y", "acc", "x")],
        )
        stream = io.StringIO()
        handle = initialize(model, trace_file=stream)
        handle.run_until(3.0)
        assert [p for _, [p] in handle.state_of("acc")["seen"]] == [0, 1, 2]
        rows = [row[1:] for row in parse_trace(stream.getvalue())]
        assert rows[:2] == [("inner/gen", "internal", "out", "0"), ("acc", "external", "x", "0")]

    def test_external_input_coupling_descends_into_nested_model(self):
        inner = CoupledSpec(
            components={"acc": counter()},
            couplings=[Coupling(None, "in", "acc", "in")],
            input_ports=("in",),
        )
        model = CoupledSpec(
            components={"gen": generator(2.0), "inner": inner},
            couplings=[Coupling("gen", "out", "inner", "in")],
        )
        handle = initialize(model)
        handle.run_until(6.0)
        assert handle.state_of("inner/acc")["count"] == 3

    def test_root_boundary_outputs_returned(self):
        inner = CoupledSpec(
            components={"gen": generator(1.0)},
            couplings=[Coupling("gen", "out", None, "y")],
            output_ports=("y",),
        )
        model = CoupledSpec(
            components={"inner": inner},
            couplings=[Coupling("inner", "y", None, "root_out")],
            output_ports=("root_out",),
        )
        handle = initialize(model)
        t, outputs = handle.step()
        assert (t, [(m.port, m.payload) for m in outputs]) == (1.0, [("root_out", 0)])

    def test_one_output_fans_out_to_sibling_nested_atomic_and_root(self):
        # Every route ends on its own port, so the trace shows which
        # coupling delivered each message.
        inner = CoupledSpec(
            components={"acc": counter("i", "j")},
            couplings=[Coupling(None, "in", "acc", "i"), Coupling(None, "in", "acc", "j")],
            input_ports=("in",),
        )
        model = CoupledSpec(
            components={"gen": generator(1.0), "inner": inner, "sib": counter("s", "t")},
            couplings=[
                Coupling("gen", "out", "sib", "s"),
                Coupling("gen", "out", "inner", "in"),
                Coupling("gen", "out", None, "y"),
                Coupling("gen", "out", "sib", "t"),
                Coupling("gen", "out", None, "z"),
            ],
            output_ports=("y", "z"),
        )
        stream = io.StringIO()
        handle = initialize(model, trace_file=stream)
        t, outputs = handle.step()
        assert (t, [(m.port, m.payload) for m in outputs]) == (1.0, [("y", 0), ("z", 0)])
        # Each receiver gets one bag, in coupling declaration order, and the
        # receivers take their external transitions in select order.
        assert handle.state_of("sib")["seen"] == [(1.0, [0, 0])]
        assert handle.state_of("inner/acc")["seen"] == [(1.0, [0, 0])]
        assert [row[1:] for row in parse_trace(stream.getvalue())] == [
            ("gen", "internal", "out", "0"),
            ("inner/acc", "external", "i", "0"),
            ("inner/acc", "external", "j", "0"),
            ("sib", "external", "s", "0"),
            ("sib", "external", "t", "0"),
        ]

    def test_hierarchical_select_composes_lexicographically(self):
        # inner comes before the sibling atomic at the root level, and within
        # inner its own select decides; all three fire at t=1.
        inner = CoupledSpec(
            components={"x": generator(1.0), "y": generator(1.0)},
            select=["y", "x"],
        )
        model = CoupledSpec(
            components={"inner": inner, "z": generator(1.0)},
            select=["inner", "z"],
        )
        assert internal_times(trace_rows(model, 1.0)) == [
            (1.0, "inner/y"), (1.0, "inner/x"), (1.0, "z"),
        ]


class TestTraceDump:
    def test_tab_separated_lines(self):
        model = CoupledSpec(
            components={"gen": generator(1.0), "acc": counter()},
            couplings=[Coupling("gen", "out", "acc", "in")],
        )
        stream = io.StringIO()
        initialize(model, trace_file=stream).run_until(2.0)
        lines = stream.getvalue().splitlines()
        assert lines[0] == "1\tgen\tinternal\tout\t0"
        assert lines[1] == "1\tacc\texternal\tin\t0"
        assert all(len(line.split("\t")) == 5 for line in lines)


class TestStreamedTrace:
    @staticmethod
    def two_receivers() -> CoupledSpec:
        return CoupledSpec(
            components={
                "a": generator(1.0),
                "b": generator(1.5),
                "first": counter(),
                "second": counter(),
            },
            couplings=[
                Coupling("a", "out", "second", "in"),
                Coupling("a", "out", "first", "in"),
                Coupling("b", "out", "second", "in"),
            ],
            select=["b", "first", "a", "second"],
        )

    def test_step_streams_each_event_as_it_ends(self):
        stream = io.StringIO()
        handle = initialize(self.two_receivers(), trace_file=stream)
        handle.step()
        assert stream.getvalue() == (
            "1\ta\tinternal\tout\t0\n"
            "1\tfirst\texternal\tin\t0\n"
            "1\tsecond\texternal\tin\t0\n"
        )


class TestHandTraceOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        periods=st.lists(
            st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0]), min_size=1, max_size=3
        ),
        shuffle=st.randoms(use_true_random=False),
    )
    def test_constant_generators_match_hand_schedule(self, periods, shuffle):
        names = [f"g{i}" for i in range(len(periods))]
        select = list(names)
        shuffle.shuffle(select)
        model = CoupledSpec(
            components={name: generator(p) for name, p in zip(names, periods)},
            select=select,
        )
        expected = generator_schedule(dict(zip(names, periods)), select, 10.0)
        assert internal_times(trace_rows(model, 10.0)) == expected
