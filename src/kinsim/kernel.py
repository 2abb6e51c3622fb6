"""Classic DEVS kernel: declarative model specs plus a sequential simulator.

An atomic model is the tuple (X, Y, S, delta_ext, delta_int, lambda, ta),
expressed here as an :class:`AtomicSpec` holding an initial state and four
callbacks.  A coupled model composes named children with port couplings and a
``select`` total order that breaks ties among simultaneously imminent
components.  The simulator is independent of what any particular model
represents.  :func:`initialize` relies on closure under coupling: one pass
over the hierarchy, children in ``select`` order, checks every name,
coupling and ``select``, collects the atomics in hierarchical select order
and joins all couplings into one graph of port endpoints, whose walk gives
each atomic output port its routes to atomic inputs and, apart, to root
outputs.  A message is a plain ``(port, payload)`` pair, as in coupled
DEVS with ports (Zeigler, Praehofer & Kim 2000); couplings rename its port
only.  :meth:`SimulationHandle.step` and :meth:`SimulationHandle.run_until`
drive one event loop, which delivers only to atomics (``step`` maps the
fired outputs to root outputs); every event runs one Classic-DEVS cycle
over the flat atomics:

1. advance the clock to the minimum ``t_next`` over all components,
2. pick one imminent component via the (hierarchy-composed) select order,
3. route its outputs along couplings to their destination ports,
4. apply ``delta_int`` to the selected component and ``delta_ext`` (with the
   elapsed time ``t - t_last``) to every receiver,
5. recompute ``t_next`` for every affected component.

Simultaneous events therefore resolve one component at a time at a frozen
clock value; a guard aborts models that never let the clock advance.  Given
the same model and seed, a run is fully deterministic.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator, Sequence, TextIO, Union

from ._record import FrozenRecord, Record
from .errors import (
    ContractViolationError,
    IllegitimateModelError,
    RoutingError,
    SimulationError,
    StructuralError,
)

Time = float

INFINITY: Time = math.inf

#: Maximum consecutive steps at a single clock value before the model is
#: declared illegitimate (a zero-delay loop that never advances time).  A
#: packaged replication's longest cascade is 2 steps, an emission and its
#: marriage, so a runaway loop stops after milliseconds.
MAX_ZERO_STEPS = 10_000

INPUT = "input"
OUTPUT = "output"


#: A message, ``(port, payload)``: the port is relative to whichever
#: component emits or receives it, and routing renames it.
Message = tuple[str, Any]


class Coupling(FrozenRecord):
    """A directed connection between two ports of a coupled model.

    ``src``/``dst`` name child components; ``None`` refers to the coupled
    model's own boundary (external input when used as ``src``, external
    output when used as ``dst``).  The payload crosses unchanged.
    """

    __slots__ = ("src", "src_port", "dst", "dst_port")

    def __init__(self, src: str | None, src_port: str, dst: str | None, dst_port: str) -> None:
        super().__init__(src, src_port, dst, dst_port)


class AtomicSpec(Record):
    """Behavior contract of an atomic DEVS model.

    ``time_advance`` maps a state to the remaining dwell time (``INFINITY``
    for passive states); a negative or NaN one raises
    :class:`~kinsim.errors.ContractViolationError` naming the component.
    ``output`` is invoked exactly once, immediately before ``delta_int``,
    when the component is imminent, and returns a sequence of
    ``(output port, payload)`` pairs, which the transitions that follow
    must not change: the trace and :meth:`SimulationHandle.step` read it
    after them (kinsim's objects each return a fresh list).  ``delta_ext``
    receives the elapsed time since the last transition, which the kernel
    guarantees to lie in ``[0, ta(state)]``, and its bag, a list of
    ``(input port, payload)`` pairs in routing order.  Callbacks may mutate
    the state in place or return a fresh one; the kernel tracks whatever
    they return.
    """

    __slots__ = ("initial_state", "time_advance", "delta_int", "delta_ext", "output",
                 "input_ports", "output_ports")

    def __init__(
        self,
        initial_state: Any,
        time_advance: Callable[[Any], Time],
        delta_int: Callable[[Any], Any],
        delta_ext: Callable[[Any, Time, Sequence[Message]], Any],
        output: Callable[[Any], Sequence[Message]],
        input_ports: tuple[str, ...] = (),
        output_ports: tuple[str, ...] = (),
    ) -> None:
        self.initial_state = initial_state
        self.time_advance = time_advance
        self.delta_int = delta_int
        self.delta_ext = delta_ext
        self.output = output
        self.input_ports = input_ports
        self.output_ports = output_ports


class CoupledSpec(Record):
    """A network of named child models plus couplings and a select order.

    ``select`` lists every child name exactly once; earlier names win ties
    among simultaneously imminent children.  It defaults to the insertion
    order of ``components``.
    """

    __slots__ = ("components", "couplings", "select", "input_ports", "output_ports")

    def __init__(
        self,
        components: dict[str, Union[AtomicSpec, "CoupledSpec"]],
        couplings: list[Coupling] | None = None,
        select: list[str] | None = None,
        input_ports: tuple[str, ...] = (),
        output_ports: tuple[str, ...] = (),
    ) -> None:
        self.components = components
        self.couplings = [] if couplings is None else couplings
        self.select = select
        self.input_ports = input_ports
        self.output_ports = output_ports


ModelSpec = Union[AtomicSpec, CoupledSpec]


Endpoint = tuple[str, str, str]  # (model path, port name, INPUT or OUTPUT)


def _flatten(
    spec: ModelSpec,
    path: str,
    atoms: list[tuple[str, AtomicSpec]],
    edges: dict[Endpoint, list[Endpoint]],
) -> None:
    """Check a model and close it into atomics plus an endpoint graph, in one pass.

    Appends ``(path, spec)`` for every atomic to ``atoms``, children in
    ``select`` order, so the atomics come out in hierarchical select order.
    Adds every coupling to ``edges`` as an edge between endpoints ``(path,
    port, direction)``, in declaration order.  A coupled model's boundary
    port is one endpoint whether a coupling inside it or one in its parent
    names it, so the levels join up by themselves; the root's boundary has
    path ``""``.

    Checks run root first; within each scope, the names (non-empty, without
    ``/``: a path joins them with ``/``), then each coupling, source end
    first, then ``select``, then the children in select order.  Raises
    :class:`StructuralError` naming the first offender.
    """
    if isinstance(spec, AtomicSpec):
        atoms.append((path, spec))
        return
    where = path or "<root>"
    for name in spec.components:
        if not name or "/" in name:
            raise StructuralError(f"{where}: component name {name!r} is empty or contains '/'")
    for c in spec.couplings:
        if c.src is None and c.dst is None:
            raise StructuralError(
                f"{where}: coupling may not connect the boundary input "
                f"{c.src_port!r} directly to the boundary output {c.dst_port!r}"
            )
        if c.src is not None and c.src == c.dst:
            raise StructuralError(
                f"{where}: coupling connects {c.src!r} output "
                f"{c.src_port!r} back to its own input {c.dst_port!r}"
            )
        # A source is a boundary input or a child output, a destination a
        # boundary output or a child input.
        src = _endpoint(spec, path, c.src, c.src_port, INPUT if c.src is None else OUTPUT)
        dst = _endpoint(spec, path, c.dst, c.dst_port, OUTPUT if c.dst is None else INPUT)
        edges.setdefault(src, []).append(dst)
    if spec.select is not None and sorted(spec.select) != sorted(spec.components):
        raise StructuralError(
            f"{where}: select must be a total order over the components, "
            f"got {spec.select!r} for components {list(spec.components)!r}"
        )
    for name in spec.components if spec.select is None else spec.select:
        _flatten(spec.components[name], f"{path}/{name}" if path else name, atoms, edges)


def _endpoint(
    scope: CoupledSpec, path: str, child: str | None, port: str, direction: str
) -> Endpoint:
    """Check one end of a coupling in the model at ``path``; ``child`` None is its boundary."""
    where = path or "<root>"
    if child is None:
        owner, label = scope, path or "<boundary>"
    else:
        owner, label = scope.components.get(child), child
        path = f"{path}/{child}" if path else child
        if owner is None:
            raise StructuralError(f"{where}: coupling names unknown component {child!r}")
    if port not in (owner.input_ports if direction == INPUT else owner.output_ports):
        raise StructuralError(f"{where}: unknown endpoint {label}.{port} ({direction})")
    return path, port, direction


def _reach(edges: dict[Endpoint, list[Endpoint]], end: Endpoint) -> Iterator[Endpoint]:
    """Yield ``end`` and every endpoint it reaches, depth first in coupling
    declaration order."""
    yield end
    for nxt in edges.get(end, ()):
        yield from _reach(edges, nxt)


class _Node:
    """One atomic of the flattened model; its ``t_next`` is kept by the handle.

    Holds the spec's four callbacks, read once when the handle is built.
    ``routes`` maps each declared output port to its deliveries, ``(node
    index, input port)`` pairs, and ``root_routes`` to the root output
    ports it reaches, both in coupling declaration order.  ``internal`` and
    ``external`` are the middle of the node's trace lines in each phase,
    between the time and the port.
    """

    __slots__ = ("path", "state", "t_last", "routes", "root_routes", "time_advance",
                 "delta_int", "delta_ext", "output", "internal", "external")

    def __init__(self, path: str, spec: AtomicSpec, t0: Time) -> None:
        self.path = path
        self.state = spec.initial_state
        self.t_last = t0
        self.routes: dict[str, list[tuple[int, str]]] = {}
        self.root_routes: dict[str, list[str]] = {}
        self.time_advance = spec.time_advance
        self.delta_int = spec.delta_int
        self.delta_ext = spec.delta_ext
        self.output = spec.output
        self.internal = f"\t{path}\tinternal\t"
        self.external = f"\t{path}\texternal\t"


class SimulationHandle:
    """Mutable run state for one simulation; confined to one thread at a time.

    Created by :func:`initialize`.  Carries the clock, the atomic components
    in select order with their routes, the ``t_next`` table
    parallel to them, and the write method of the trace stream, if any.
    It keeps no record of past events.
    """

    def __init__(self, model: ModelSpec, t0: Time, trace_file: TextIO | None) -> None:
        if not math.isfinite(t0):  # a NaN or infinite clock never advances
            raise SimulationError(f"a simulation needs a finite start time, got {t0}")
        atoms: list[tuple[str, AtomicSpec]] = []
        edges: dict[Endpoint, list[Endpoint]] = {}
        _flatten(model, "", atoms, edges)
        index = {path: i for i, (path, _) in enumerate(atoms)}
        self.clock: Time = t0
        self._write_trace: Callable[[str], Any] | None = (
            None if trace_file is None else trace_file.write
        )
        self._nodes: list[_Node] = []
        self._t_next: list[Time] = []
        self._steps_at_clock = 0
        for path, spec in atoms:
            # An atomic root is named "model"; its output ports are the root's.
            node = _Node(path or "model", spec, t0)
            ta = node.time_advance(node.state)
            if not ta >= 0:  # NaN too
                raise ContractViolationError(f"{node.path}: time advance of initial state is {ta}")
            for port in spec.output_ports:
                reached = list(_reach(edges, (path, port, OUTPUT)))
                node.routes[port] = [(index[p], q) for p, q, d in reached if d == INPUT and p in index]
                node.root_routes[port] = [q for p, q, d in reached if p == "" and d == OUTPUT]
            self._nodes.append(node)
            self._t_next.append(t0 + ta)

    # -- inspection -------------------------------------------------------

    @property
    def next_event_time(self) -> Time:
        """Time of the earliest pending internal event (INFINITY if none)."""
        return min(self._t_next, default=INFINITY)

    def components(self) -> Iterator[tuple[str, Any]]:
        """Yield (path, current state) for every atomic component."""
        for node in self._nodes:
            yield node.path, node.state

    def node_times(self) -> Iterator[tuple[str, Time, Time]]:
        """Yield (path, t_last, t_next) for every atomic component."""
        for node, t_next in zip(self._nodes, self._t_next):
            yield node.path, node.t_last, t_next

    # -- execution --------------------------------------------------------

    def step(self) -> tuple[Time, list[Message]]:
        """Run one event: fire the selected imminent component.

        Returns the event time and the messages that crossed the root
        boundary, as ``(root output port, payload)`` pairs: the fired
        component's outputs mapped through its root routes, in output
        order, then in coupling declaration order.
        """
        if self.next_event_time == INFINITY:
            raise SimulationError("step() called with no pending events")
        node, outputs = self._run(INFINITY, True)
        return self.clock, [(root_port, payload) for port, payload in outputs
                            for root_port in node.root_routes[port]]

    def run_until(self, t_end: Time) -> None:
        """Process every event with time <= t_end; a NaN ``t_end``, or one
        before the clock, raises :class:`SimulationError`.

        The clock ends at the time of the last processed event (it does not
        jump to ``t_end``).  Deterministic given the model and its seeds.
        """
        if not t_end >= self.clock:  # NaN too: no event time is ever past it
            raise SimulationError(f"run_until({t_end}) is NaN or before the clock {self.clock}")
        self._run(t_end, False)

    def _run(self, t_end: Time, once: bool) -> tuple[_Node, Sequence[Message]] | None:
        """The event loop: fire events up to ``t_end``, or only the next if ``once``.

        Each event fires the first imminent component in select order.  Its
        internal transition comes first, then every receiver's external
        transition in select order; each transition is followed at once by
        the new time advance, which must not be negative or NaN.  The
        event's trace lines are written only after all of them, so the trace
        shows each payload as the event left it (a receiver may relabel a
        payload it was just sent); buffering is the stream's.  If ``once``,
        returns the fired node and the sequence its ``output`` returned.
        """
        t_next = self._t_next
        nodes = self._nodes
        write = self._write_trace
        clock = self.clock
        at = _time_text(clock)  # the trace's time column, made once per clock value
        steps = self._steps_at_clock
        max_steps = MAX_ZERO_STEPS
        try:
            while True:
                t = min(t_next, default=INFINITY)
                if t > t_end or t == INFINITY:
                    break
                if t > clock:
                    clock = t
                    steps = 1
                    if write is not None:
                        at = _time_text(t)
                else:
                    steps += 1
                    if steps > max_steps:
                        raise IllegitimateModelError(
                            f"illegitimate model: more than {max_steps} "
                            f"steps without the clock advancing past {t}"
                        )
                i = t_next.index(t)  # first in select order among the imminent
                node = nodes[i]
                outputs = node.output(node.state)
                routes = node.routes
                deliveries: dict[int, list[Message]] = {}
                for port, payload in outputs:
                    try:
                        targets = routes[port]
                    except KeyError:
                        raise RoutingError(f"{node.path}: output on undeclared port {port!r}") from None
                    for idx, dst_port in targets:
                        bag = deliveries.get(idx)
                        if bag is None:
                            deliveries[idx] = [(dst_port, payload)]
                        else:
                            bag.append((dst_port, payload))
                # Internal transition of the selected component.
                node.state = state = node.delta_int(node.state)
                ta = node.time_advance(state)
                if not ta >= 0:  # NaN too
                    raise ContractViolationError(f"{node.path}: time advance returned {ta}")
                node.t_last = t
                t_next[i] = t + ta
                # External transitions of every receiver, in select order.
                receivers = sorted(deliveries) if len(deliveries) > 1 else deliveries
                for idx in receivers:
                    receiver = nodes[idx]
                    receiver.state = state = receiver.delta_ext(
                        receiver.state, t - receiver.t_last, deliveries[idx])
                    ta = receiver.time_advance(state)
                    if not ta >= 0:  # NaN too
                        raise ContractViolationError(f"{receiver.path}: time advance returned {ta}")
                    receiver.t_last = t
                    t_next[idx] = t + ta
                if write is not None:
                    phase = node.internal
                    for port, payload in outputs or _NO_MESSAGES:
                        write(f"{at}{phase}{port}\t{payload}\n")
                    for idx in receivers:
                        phase = nodes[idx].external
                        for port, payload in deliveries[idx]:
                            write(f"{at}{phase}{port}\t{payload}\n")
                if once:
                    return node, outputs
        finally:
            self.clock = clock
            self._steps_at_clock = steps


def initialize(
    model: ModelSpec,
    t0: Time = 0.0,
    *,
    trace_file: TextIO | None = None,
) -> SimulationHandle:
    """Validate a model and build a simulation handle starting at ``t0``.

    Every component starts with ``t_last = t0`` and
    ``t_next = t0 + ta(initial state)``.  A NaN or infinite ``t0`` raises
    :class:`SimulationError`, structural problems :class:`StructuralError`
    and a negative or NaN initial time advance :class:`ContractViolationError`.

    ``trace_file``, an open text stream, receives the event trace, and the
    caller closes it.  Without it nothing is recorded.  Each event's lines
    are written, one call per line, once that event's transitions are done,
    so after a failure the stream has every event before it; how much it
    buffers is up to the stream.
    The trace is tab-separated text, one line per message, with columns
    time (the shortest text that reads back as the time, without a
    trailing ``.0``), component path, phase (``internal`` or
    ``external``), port and payload (its ``str``).  An internal event lists
    the selected component's outputs, then each receiver's external event
    lists the messages it was delivered, in select order; an event without
    messages is one line with ``-`` in both the port and payload columns.

    A spec instance carries its components' mutable state, so treat each
    built model as single-use: construct a fresh spec per run, as the model
    builders do.
    """
    return SimulationHandle(model, t0, trace_file)


# An event without messages is one line with placeholders for both columns.
_NO_MESSAGES = (("-", "-"),)


def _time_text(t: Time) -> str:
    """The trace's time column: the shortest text that reads back as ``t``,
    without a trailing ``.0``."""
    return repr(float(t)).removesuffix(".0")
