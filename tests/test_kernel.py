"""Kernel semantics: scheduling, select ties, routing, hierarchy, guards."""

from __future__ import annotations

import io
import math
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
    ModelConfig,
    SimulationHandle,
    build_consanguinity_model,
    collect_run_stats,
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
        output=lambda s: [("out", s["n"])],
        output_ports=("out",),
    )


def counter(*ports: str) -> AtomicSpec:
    """Passive accumulator recording (elapsed, payloads) per delivery, on
    the input ports given, ``in`` by default."""

    def dext(s, e, xs):
        s["count"] += len(xs)
        s["seen"].append((e, [payload for _, payload in xs]))
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

    @pytest.mark.parametrize("ta", [-1.0, math.nan], ids=["negative", "nan"])
    def test_negative_initial_time_advance_rejected(self, ta):
        bad = AtomicSpec(
            initial_state={},
            time_advance=lambda s: ta,
            delta_int=lambda s: s,
            delta_ext=lambda s, e, xs: s,
            output=lambda s: [],
        )
        with pytest.raises(ContractViolationError, match="model: time advance of initial state"):
            initialize(bad, 0.0)  # an atomic root is named "model"

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_start_time_that_is_not_finite_rejected(self, t0):
        # A NaN or infinite clock never advances: the zero-time guard
        # would end the run only after a million steps.
        with pytest.raises(SimulationError, match="finite start time"):
            initialize(generator(2.0), t0)

    @pytest.mark.parametrize("t0", [math.nan, math.inf], ids=["nan", "inf"])
    def test_handle_built_directly_rejects_a_start_time_that_is_not_finite(self, t0):
        # The check lives in the constructor, so no handle runs on a NaN clock.
        with pytest.raises(SimulationError, match="finite start time"):
            SimulationHandle(generator(2.0), t0, None)


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

    # A path joins names with "/", and "" is the root boundary's path, so a
    # name that is empty or holds "/" would collide.  A scope's names are
    # checked before its couplings, so the nested case's bad coupling loses.
    BAD_NAMES = {
        # The root's "a/b" would share its path with the b inside "a".
        "slash beside its nesting": (
            CoupledSpec(
                components={
                    "gen": generator(1.0),
                    "a/b": counter(),
                    "a": CoupledSpec(
                        components={"b": counter()},
                        couplings=[Coupling(None, "in", "b", "in")],
                        input_ports=("in",),
                    ),
                },
                couplings=[
                    Coupling("gen", "out", "a/b", "in"),
                    Coupling("gen", "out", "a", "in"),
                ],
            ),
            "<root>: component name 'a/b' is empty or contains '/'",
        ),
        # An atomic named "" would be the root boundary itself.
        "empty": (
            CoupledSpec(
                components={"": generator(1.0)},
                couplings=[Coupling("", "out", None, "out")],
                output_ports=("out",),
            ),
            "<root>: component name '' is empty or contains '/'",
        ),
        "nested": (
            CoupledSpec(components={"top": CoupledSpec(
                components={"gen": generator(1.0), "x/y": counter(), "": counter()},
                couplings=[Coupling("gen", "out", "ghost", "in")],
            )}),
            "top: component name 'x/y' is empty or contains '/'",
        ),
    }

    @pytest.mark.parametrize("case", list(BAD_NAMES))
    def test_component_name_that_could_collide_rejected(self, case):
        model, message = self.BAD_NAMES[case]
        with pytest.raises(StructuralError) as raised:
            initialize(model)
        assert str(raised.value) == message

    def test_sibling_scopes_checked_in_select_order(self):
        def broken(port):
            return CoupledSpec(
                components={"gen": generator(1.0)},
                couplings=[Coupling("gen", port, None, "y")],
                output_ports=("y",),
            )

        model = CoupledSpec(
            components={"first": broken("nope1"), "second": broken("nope2")},
            select=["second", "first"],
        )
        with pytest.raises(StructuralError) as raised:
            initialize(model)
        assert str(raised.value) == "second: unknown endpoint gen.nope2 (output)"

    def test_undeclared_output_port_raises_routing_error(self):
        rogue = AtomicSpec(
            initial_state={},
            time_advance=lambda s: 1.0,
            delta_int=lambda s: s,
            delta_ext=lambda s, e, xs: s,
            output=lambda s: [("oops", 1)],
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
        assert outputs == [("out", 0)]

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
        state = dict(handle.components())["acc"]
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
            output=lambda s: [("out", "b")],
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
        state = dict(handle.components())["b"]
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

    def test_nan_horizon_rejected(self):
        # Three events, then passive: a run to a NaN horizon would fire all
        # three and return, as if NaN were past every event time.
        three = AtomicSpec(
            initial_state={"left": 3},
            time_advance=lambda s: 1.0 if s["left"] else INFINITY,
            delta_int=lambda s: {"left": s["left"] - 1},
            delta_ext=lambda s, e, xs: s,
            output=lambda s: [],
        )
        handle = initialize(three)
        with pytest.raises(SimulationError, match="NaN"):
            handle.run_until(math.nan)
        assert handle.clock == 0.0 and handle.next_event_time == 1.0

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
                output=lambda s: [("out", round(s["next"], 6))],
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

        # The longer horizon writes over 1 000 lines, and slices of 0.7 end
        # between events as well as on them.
        for horizon in (12.0, 500.0):
            expected = io.StringIO()
            by_run = initialize(build(), trace_file=expected)
            by_run.run_until(horizon)
            stepped = io.StringIO()
            by_step = initialize(build(), trace_file=stepped)
            while by_step.next_event_time <= horizon:
                by_step.step()
            sliced = io.StringIO()
            by_slice = initialize(build(), trace_file=sliced)
            t_end = 0.0
            while t_end < horizon:
                t_end = min(t_end + 0.7, horizon)
                by_slice.run_until(t_end)
            assert stepped.getvalue() == expected.getvalue()
            assert sliced.getvalue() == expected.getvalue()
            assert by_step.clock == by_run.clock == by_slice.clock == horizon
            assert [row[1] for row in parse_trace(expected.getvalue())[:3]] == ["a", "first", "second"]
        assert len(expected.getvalue().splitlines()) > 1000


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
                output=lambda s: [("out", "tick")],
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

    def test_nan_time_advance_after_internal_transition_rejected(self):
        def dint(s):
            s["n"] += 1
            return s

        bad = AtomicSpec(
            initial_state={"n": 0},
            time_advance=lambda s: 1.0 if s["n"] == 0 else math.nan,
            delta_int=dint,
            delta_ext=lambda s, e, xs: s,
            output=lambda s: [],
        )
        handle = initialize(CoupledSpec(components={"bad": bad}))
        with pytest.raises(ContractViolationError, match="bad: time advance returned nan"):
            handle.step()

    def test_nan_time_advance_after_external_transition_rejected(self):
        bad = AtomicSpec(
            initial_state={"hit": False},
            time_advance=lambda s: math.nan if s["hit"] else INFINITY,
            delta_int=lambda s: s,
            delta_ext=lambda s, e, xs: {"hit": True},
            output=lambda s: [],
            input_ports=("in",),
        )
        model = CoupledSpec(
            components={"gen": generator(1.0), "bad": bad},
            couplings=[Coupling("gen", "out", "bad", "in")],
        )
        handle = initialize(model)
        with pytest.raises(ContractViolationError, match="bad: time advance returned nan"):
            handle.step()

    def test_a_raising_callback_leaves_the_clock_at_its_event(self):
        # The receiver fails on its third delivery, at t = 3, whether the
        # event runs alone or inside run_until; the trace keeps the events
        # before it.
        def dext(s, e, xs):
            s["n"] += 1
            if s["n"] == 3:
                raise ValueError("third delivery")
            return s

        def build():
            failing = AtomicSpec(
                initial_state={"n": 0},
                time_advance=lambda s: INFINITY,
                delta_int=lambda s: s,
                delta_ext=dext,
                output=lambda s: [],
                input_ports=("in",),
            )
            return CoupledSpec(
                components={"gen": generator(1.0), "fail": failing},
                couplings=[Coupling("gen", "out", "fail", "in")],
            )

        before = "".join(f"{t}\tgen\tinternal\tout\t{n}\n{t}\tfail\texternal\tin\t{n}\n"
                         for t, n in ((1, 0), (2, 1)))
        for run in (lambda handle: handle.run_until(10.0),
                    lambda handle: [handle.step() for _ in range(3)]):
            stream = io.StringIO()
            handle = initialize(build(), trace_file=stream)
            with pytest.raises(ValueError, match="third delivery"):
                run(handle)
            assert handle.clock == 3.0
            assert stream.getvalue() == before

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
        assert [p for _, [p] in dict(handle.components())["acc"]["seen"]] == [0, 1, 2]
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
        assert dict(handle.components())["inner/acc"]["count"] == 3

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
        assert (t, outputs) == (1.0, [("root_out", 0)])

    def test_root_outputs_through_nested_boundaries(self):
        # src, two levels down, emits on p and q in one event; each port
        # leaves inner and then outer by two boundary outputs, declared
        # against name order, and p also reaches an atomic at the root.
        def build():
            src = AtomicSpec(
                initial_state={"n": 0},
                time_advance=lambda s: 1.0,
                delta_int=lambda s: {"n": s["n"] + 1},
                delta_ext=lambda s, e, xs: s,
                output=lambda s: [("p", f"p{s['n']}"), ("q", f"q{s['n']}")],
                output_ports=("p", "q"),
            )
            inner = CoupledSpec(
                components={"src": src},
                couplings=[
                    Coupling("src", "q", None, "q2"),
                    Coupling("src", "p", None, "p2"),
                    Coupling("src", "p", None, "p1"),
                    Coupling("src", "q", None, "q1"),
                ],
                output_ports=("p1", "p2", "q1", "q2"),
            )
            outer = CoupledSpec(
                components={"inner": inner},
                couplings=[
                    Coupling("inner", "p1", None, "p1"),
                    Coupling("inner", "q1", None, "q1"),
                    Coupling("inner", "p2", None, "p2"),
                    Coupling("inner", "q2", None, "q2"),
                ],
                output_ports=("p1", "p2", "q1", "q2"),
            )
            return CoupledSpec(
                components={"outer": outer, "acc": counter()},
                couplings=[
                    Coupling("outer", "q1", None, "qa"),
                    Coupling("outer", "p2", None, "pz"),
                    Coupling("outer", "p1", None, "pa"),
                    Coupling("outer", "q2", None, "qz"),
                    Coupling("outer", "p1", "acc", "in"),
                ],
                output_ports=("pa", "pz", "qa", "qz"),
            )

        stepped = io.StringIO()
        handle = initialize(build(), trace_file=stepped)
        for n in range(3):
            # p's routes, then q's, each in coupling declaration order
            assert handle.step() == (n + 1.0, [
                ("pz", f"p{n}"), ("pa", f"p{n}"), ("qz", f"q{n}"), ("qa", f"q{n}"),
            ])
        assert dict(handle.components())["acc"]["seen"] == [(1.0, ["p0"]), (1.0, ["p1"]), (1.0, ["p2"])]
        expected = io.StringIO()
        initialize(build(), trace_file=expected).run_until(3.0)
        assert stepped.getvalue() == expected.getvalue()
        assert [row[1:] for row in parse_trace(expected.getvalue())[:3]] == [
            ("outer/inner/src", "internal", "p", "p0"),
            ("outer/inner/src", "internal", "q", "q0"),
            ("acc", "external", "in", "p0"),
        ]

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
        assert (t, outputs) == (1.0, [("y", 0), ("z", 0)])
        # Each receiver gets one bag, in coupling declaration order, and the
        # receivers take their external transitions in select order.
        assert dict(handle.components())["sib"]["seen"] == [(1.0, [0, 0])]
        assert dict(handle.components())["inner/acc"]["seen"] == [(1.0, [0, 0])]
        assert [row[1:] for row in parse_trace(stream.getvalue())] == [
            ("gen", "internal", "out", "0"),
            ("inner/acc", "external", "i", "0"),
            ("inner/acc", "external", "j", "0"),
            ("sib", "external", "s", "0"),
            ("sib", "external", "t", "0"),
        ]

    def test_routed_messages_are_pairs_with_the_same_payload(self):
        payload = object()
        bags = {}

        def keeper(name, *ports):
            def dext(s, e, xs):
                bags[name] = list(xs)
                return s

            return AtomicSpec(
                initial_state={},
                time_advance=lambda s: INFINITY,
                delta_int=lambda s: s,
                delta_ext=dext,
                output=lambda s: [],
                input_ports=ports,
            )

        model = CoupledSpec(
            components={
                "src": AtomicSpec(
                    initial_state={},
                    time_advance=lambda s: 1.0,
                    delta_int=lambda s: s,
                    delta_ext=lambda s, e, xs: s,
                    output=lambda s: [("out", payload)],
                    output_ports=("out",),
                ),
                "a": keeper("a", "p", "q"),
                "b": keeper("b", "r"),
            },
            couplings=[
                Coupling("src", "out", "a", "p"),
                Coupling("src", "out", "b", "r"),
                Coupling("src", "out", None, "y"),
                Coupling("src", "out", "a", "q"),
            ],
            output_ports=("y",),
        )
        _, outputs = initialize(model).step()
        # Each message is a 2-tuple on the renamed port, carrying the
        # emitted object itself.
        for message in [*bags["a"], *bags["b"], *outputs]:
            assert type(message) is tuple and len(message) == 2
            assert message[1] is payload
        delivered = {name: [port for port, _ in bag] for name, bag in bags.items()}
        assert delivered == {"a": ["p", "q"], "b": ["r"]}
        assert [port for port, _ in outputs] == ["y"]

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

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_nesting_the_consanguinity_model_keeps_its_trace(self, data):
        # Closure under coupling: wrapping contiguous runs of the components
        # in coupled models, each cut coupling routed through boundary
        # ports, changes only the component paths of the trace.
        flat = consanguinity_trace(lambda spec: spec)
        tree = data.draw(nestings(list(build_consanguinity_model(ModelConfig()).components)))
        nested = consanguinity_trace(lambda spec: nest(spec, tree))
        assert [(t, path.rsplit("/", 1)[-1], *rest) for t, path, *rest in nested] == flat

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_nesting_the_consanguinity_model_keeps_its_report(self, data):
        # The CSV half of closure under coupling: the nested model's
        # statistics, read off its objects by the last segment of each path,
        # equal the flat model's over a whole packaged replication.
        config = ModelConfig()
        tree = data.draw(nestings(list(build_consanguinity_model(config).components)))
        flat, nested = (initialize(wrap(build_consanguinity_model(config)))
                        for wrap in (lambda spec: spec, lambda spec: nest(spec, tree)))
        for handle in (flat, nested):
            handle.run_until(config.run_length)
        assert collect_run_stats(nested) == collect_run_stats(flat)


@st.composite
def nestings(draw, names):
    """``names`` cut into contiguous runs: a run of one is that name, a
    longer run a nested list drawn the same way; no cut leaves them flat."""
    cuts = draw(st.sets(st.integers(1, len(names) - 1))) if len(names) > 1 else set()
    bounds = [0, *sorted(cuts), len(names)]
    runs = [names[a:b] for a, b in zip(bounds, bounds[1:])]
    if len(runs) == 1:
        return list(names)
    return [run[0] if len(run) == 1 else draw(nestings(run)) for run in runs]


def nest(flat: CoupledSpec, tree: list) -> CoupledSpec:
    """``flat``'s atomics in coupled models shaped by ``tree`` (nested lists
    of their names, in order, so the select order holds).  Coupling ``k``
    climbs out of each group around its source on output port ``ck``,
    crosses in the lowest group that holds both ends, and descends into
    each group around its destination on input port ``ck``."""
    groups: dict[tuple[str, ...], CoupledSpec] = {}
    where: dict[str, tuple[str, ...]] = {}  # atomic name -> the groups around it

    def build(children, prefix):
        components = {}
        for i, child in enumerate(children):
            if isinstance(child, str):
                components[child] = flat.components[child]
                where[child] = prefix
            else:
                components[f"G{i}"] = build(child, (*prefix, f"G{i}"))
        groups[prefix] = CoupledSpec(components)
        return groups[prefix]

    root = build(tree, ())
    for k, c in enumerate(flat.couplings):
        port = f"c{k}"
        up, down = where[c.src], where[c.dst]
        common = 0
        while common < min(len(up), len(down)) and up[common] == down[common]:
            common += 1
        src, src_port = c.src, c.src_port
        for depth in range(len(up), common, -1):
            group = groups[up[:depth]]
            group.couplings.append(Coupling(src, src_port, None, port))
            group.output_ports += (port,)
            src, src_port = up[depth - 1], port
        dst, dst_port = c.dst, c.dst_port
        for depth in range(len(down), common, -1):
            group = groups[down[:depth]]
            group.couplings.append(Coupling(None, port, dst, dst_port))
            group.input_ports += (port,)
            dst, dst_port = down[depth - 1], port
        groups[up[:common]].couplings.append(Coupling(src, src_port, dst, dst_port))
    return root


def consanguinity_trace(wrap) -> list:
    """The trace rows of the packaged consanguinity model, wrapped by ``wrap``, to 300."""
    return trace_rows(wrap(build_consanguinity_model(ModelConfig())), 300.0)


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

    def test_time_column_reads_back_as_the_event_time(self):
        # Integral times carry no ".0", also past 1e6; close fractional
        # times stay apart.
        stream = io.StringIO()
        handle = initialize(generator(1.0), 1_000_000.0, trace_file=stream)
        handle.run_until(1_000_002.0)
        assert [line.split("\t")[0] for line in stream.getvalue().splitlines()] == [
            "1000001", "1000002"]
        for start, period in ((1234.5678, 0.0034), (0.1, 0.2), (1e-7, 1e-9)):
            stream = io.StringIO()
            handle = initialize(generator(period), start - period, trace_file=stream)
            times = [handle.step()[0] for _ in range(3)]
            columns = [line.split("\t")[0] for line in stream.getvalue().splitlines()]
            assert [float(column) for column in columns] == times
            assert len(set(columns)) == 3


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

    @pytest.mark.parametrize("accepted", [4, 5])
    def test_a_failing_stream_stops_the_run_at_its_event(self, accepted):
        # Each event writes an internal and an external line, so the stream
        # refuses a line of the event at t = 3: its internal line (4
        # accepted) or its external one (5).  The stream's error reaches the
        # caller as raised, the stream holds every line before it once, and
        # the clock stays at the failing event.
        class FailingStream:
            def __init__(self):
                self.lines: list[str] = []
                self.error = OSError(28, "No space left on device")

            def write(self, text):
                for line in text.splitlines(keepends=True):
                    if len(self.lines) == accepted:
                        raise self.error
                    self.lines.append(line)
                return len(text)

        def build():
            return CoupledSpec(
                components={"gen": generator(1.0), "acc": counter()},
                couplings=[Coupling("gen", "out", "acc", "in")],
            )

        expected = [f"{t}\t{path}\t{phase}\t{port}\t{t - 1}\n"
                    for t in range(1, 4)
                    for path, phase, port in (("gen", "internal", "out"), ("acc", "external", "in"))]
        for run in (lambda handle: handle.run_until(10.0),
                    lambda handle: [handle.step() for _ in range(10)]):
            stream = FailingStream()
            handle = initialize(build(), trace_file=stream)
            with pytest.raises(OSError) as excinfo:
                run(handle)
            assert excinfo.value is stream.error
            assert stream.lines == expected[:accepted]
            assert handle.clock == 3.0


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
