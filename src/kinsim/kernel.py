"""Classic DEVS kernel: declarative model specs plus a sequential simulator.

An atomic model is the tuple (X, Y, S, delta_ext, delta_int, lambda, ta),
expressed here as an :class:`AtomicSpec` holding an initial state and four
callbacks.  A coupled model composes named children with port couplings and a
``select`` total order that breaks ties among simultaneously imminent
components.  The simulator is independent of what any particular model
represents: :func:`initialize` closes the coupled hierarchy into a flat
component table, and every event, whether fired by
:meth:`SimulationHandle.step` or inside :meth:`SimulationHandle.run_until`,
runs one Classic-DEVS cycle:

1. advance the clock to the minimum ``t_next`` over all components,
2. pick one imminent component via the (hierarchy-composed) select order,
3. route its outputs along couplings, applying port translations,
4. apply ``delta_int`` to the selected component and ``delta_ext`` (with the
   elapsed time ``t - t_last``) to every receiver,
5. recompute ``t_next`` for every affected component.

Simultaneous events therefore resolve one component at a time at a frozen
clock value; a guard aborts models that never let the clock advance.  Given
the same model and seed, a run is fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple, Sequence, TextIO, Union

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
#: declared illegitimate (a zero-delay loop that never advances time).
MAX_ZERO_STEPS = 1_000_000

INPUT = "input"
OUTPUT = "output"


@dataclass(frozen=True, slots=True)
class Port:
    """A named port endpoint, used in structural validation messages."""

    owner: str
    name: str
    direction: str

    def __str__(self) -> str:
        return f"{self.owner or '<boundary>'}.{self.name} ({self.direction})"


@dataclass(frozen=True, slots=True)
class Message:
    """A value travelling through a port.

    ``port`` is relative to whichever component emits or receives the
    message; the kernel rewrites it while routing.
    """

    port: str
    payload: Any


@dataclass(frozen=True, slots=True)
class Coupling:
    """A directed connection between two ports of a coupled model.

    ``src``/``dst`` name child components; ``None`` refers to the coupled
    model's own boundary (external input when used as ``src``, external
    output when used as ``dst``).  ``translate`` optionally rewrites the
    payload in flight; the identity is used when omitted.
    """

    src: str | None
    src_port: str
    dst: str | None
    dst_port: str
    translate: Callable[[Any], Any] | None = None


@dataclass
class AtomicSpec:
    """Behavior contract of an atomic DEVS model.

    ``time_advance`` maps a state to the remaining dwell time (``INFINITY``
    for passive states and never negative).  ``output`` is invoked exactly
    once, immediately before ``delta_int``, when the component is imminent.
    ``delta_ext`` receives the elapsed time since the last transition, which
    the kernel guarantees to lie in ``[0, ta(state)]``.  Callbacks may mutate
    the state in place or return a fresh one; the kernel tracks whatever they
    return.
    """

    initial_state: Any
    time_advance: Callable[[Any], Time]
    delta_int: Callable[[Any], Any]
    delta_ext: Callable[[Any, Time, Sequence[Message]], Any]
    output: Callable[[Any], Sequence[Message]]
    input_ports: tuple[str, ...] = ()
    output_ports: tuple[str, ...] = ()


@dataclass
class CoupledSpec:
    """A network of named child models plus couplings and a select order.

    ``select`` lists every child name exactly once; earlier names win ties
    among simultaneously imminent children.  It defaults to the insertion
    order of ``components``.
    """

    components: dict[str, Union[AtomicSpec, "CoupledSpec"]]
    couplings: list[Coupling] = field(default_factory=list)
    select: list[str] | None = None
    input_ports: tuple[str, ...] = ()
    output_ports: tuple[str, ...] = ()


ModelSpec = Union[AtomicSpec, CoupledSpec]


class TraceEvent(NamedTuple):
    time: Time
    component: str
    phase: str  # "internal" or "external"
    messages: tuple[Message, ...]


def _ports_of(spec: ModelSpec, direction: str) -> tuple[str, ...]:
    return spec.input_ports if direction == INPUT else spec.output_ports


def validate_coupled(spec: CoupledSpec, path: str = "") -> None:
    """Check every CoupledSpec invariant, recursively.

    Raises :class:`StructuralError` naming the offending endpoint.
    """
    where = path or "<root>"
    for coupling in spec.couplings:
        if coupling.src is None and coupling.dst is None:
            raise StructuralError(
                f"{where}: coupling may not connect the boundary input "
                f"{coupling.src_port!r} directly to the boundary output {coupling.dst_port!r}"
            )
        if coupling.src is not None and coupling.src == coupling.dst:
            raise StructuralError(
                f"{where}: coupling connects {coupling.src!r} output "
                f"{coupling.src_port!r} back to its own input {coupling.dst_port!r}"
            )
        if coupling.src is None:
            if coupling.src_port not in spec.input_ports:
                raise StructuralError(
                    f"{where}: unknown endpoint {Port(path, coupling.src_port, INPUT)}"
                )
        else:
            child = spec.components.get(coupling.src)
            if child is None:
                raise StructuralError(f"{where}: coupling names unknown component {coupling.src!r}")
            if coupling.src_port not in _ports_of(child, OUTPUT):
                raise StructuralError(
                    f"{where}: unknown endpoint {Port(coupling.src, coupling.src_port, OUTPUT)}"
                )
        if coupling.dst is None:
            if coupling.dst_port not in spec.output_ports:
                raise StructuralError(
                    f"{where}: unknown endpoint {Port(path, coupling.dst_port, OUTPUT)}"
                )
        else:
            child = spec.components.get(coupling.dst)
            if child is None:
                raise StructuralError(f"{where}: coupling names unknown component {coupling.dst!r}")
            if coupling.dst_port not in _ports_of(child, INPUT):
                raise StructuralError(
                    f"{where}: unknown endpoint {Port(coupling.dst, coupling.dst_port, INPUT)}"
                )
    if spec.select is not None:
        if sorted(spec.select) != sorted(spec.components):
            raise StructuralError(
                f"{where}: select must be a total order over the components, "
                f"got {spec.select!r} for components {list(spec.components)!r}"
            )
    for name, child in spec.components.items():
        if isinstance(child, CoupledSpec):
            validate_coupled(child, f"{path}/{name}" if path else name)


class _Node:
    """Flattened per-atomic bookkeeping (t_last <= t_next always)."""

    __slots__ = ("path", "spec", "state", "t_last", "t_next")

    def __init__(self, path: str, spec: AtomicSpec) -> None:
        self.path = path
        self.spec = spec
        self.state = spec.initial_state
        self.t_last: Time = 0.0
        self.t_next: Time = 0.0


class _Flattener:
    """Closes a coupled hierarchy into atomics plus composed routes."""

    def __init__(self, root: ModelSpec) -> None:
        self.atoms: list[tuple[str, AtomicSpec, tuple[int, ...]]] = []
        self.scopes: dict[str, CoupledSpec] = {}
        self.links: dict[str, dict[tuple[str | None, str], list[tuple[str | None, str, Any]]]] = {}
        self.root = root
        if isinstance(root, CoupledSpec):
            validate_coupled(root)
            self._collect(root, "", ())
        else:
            self.atoms.append(("model", root, (0,)))
        # Sort by composed select key: lexicographic order over per-level
        # select indices reproduces the hierarchical select resolution.
        self.atoms.sort(key=lambda item: item[2])
        self.index = {path: i for i, (path, _, _) in enumerate(self.atoms)}

    def _collect(self, spec: CoupledSpec, path: str, key: tuple[int, ...]) -> None:
        self.scopes[path] = spec
        table: dict[tuple[str | None, str], list[tuple[str | None, str, Any]]] = {}
        for c in spec.couplings:
            table.setdefault((c.src, c.src_port), []).append((c.dst, c.dst_port, c.translate))
        self.links[path] = table
        order = spec.select if spec.select is not None else list(spec.components)
        rank = {name: i for i, name in enumerate(order)}
        for name, child in spec.components.items():
            child_path = f"{path}/{name}" if path else name
            child_key = key + (rank[name],)
            if isinstance(child, CoupledSpec):
                self._collect(child, child_path, child_key)
            else:
                self.atoms.append((child_path, child, child_key))

    def resolve(self, atom_path: str, port: str) -> tuple[list, list]:
        """Compose couplings from one atomic output down to atomic inputs.

        Returns (deliveries, root_outputs) where each delivery is
        (atom_index, input_port, translate_chain).
        """
        deliveries: list[tuple[int, str, tuple]] = []
        root_out: list[tuple[str, tuple]] = []
        if isinstance(self.root, AtomicSpec):
            root_out.append((port, ()))
            return deliveries, root_out

        def descend(coupled_path: str, in_port: str, chain: tuple) -> None:
            for dst, dst_port, z in self.links[coupled_path].get((None, in_port), []):
                nxt = chain + (z,) if z is not None else chain
                self._dispatch(coupled_path, dst, dst_port, nxt, deliveries, root_out, descend)

        def ascend(scope: str, child: str, out_port: str, chain: tuple) -> None:
            for dst, dst_port, z in self.links[scope].get((child, out_port), []):
                nxt = chain + (z,) if z is not None else chain
                if dst is None:
                    if scope == "":
                        root_out.append((dst_port, nxt))
                    else:
                        parent, _, me = scope.rpartition("/")
                        ascend(parent, me, dst_port, nxt)
                else:
                    self._dispatch(scope, dst, dst_port, nxt, deliveries, root_out, descend)

        scope, _, child = atom_path.rpartition("/")
        ascend(scope, child, port, ())
        return deliveries, root_out

    def _dispatch(self, scope, dst, dst_port, chain, deliveries, root_out, descend) -> None:
        dst_path = f"{scope}/{dst}" if scope else dst
        child = self.scopes.get(dst_path)
        if child is None:
            deliveries.append((self.index[dst_path], dst_port, chain))
        else:
            descend(dst_path, dst_port, chain)


class SimulationHandle:
    """Mutable run state for one simulation; confined to one thread at a time.

    Created by :func:`initialize`.  Carries the clock, the flattened
    component table in select order, the composed routing table, and the
    in-memory event trace (empty right after initialization, and for good
    when the trace streams to a file).
    """

    def __init__(
        self,
        model: ModelSpec,
        t0: Time,
        record_trace: bool,
        trace_file: TextIO | None,
        max_zero_steps: int,
    ) -> None:
        flat = _Flattener(model)
        self.model = model
        self.clock: Time = t0
        self.trace: list[TraceEvent] = []
        # Receives each event's TraceEvents once its transitions are done.
        self._trace_sink: Callable[[list[TraceEvent]], Any] | None = None
        if trace_file is not None:
            write = trace_file.write
            self._trace_sink = lambda events: write("".join(_trace_lines(events)))
        elif record_trace:
            self._trace_sink = self.trace.extend
        self.max_zero_steps = max_zero_steps
        self._nodes: list[_Node] = []
        self._t_next: list[Time] = []
        self._steps_at_clock = 0
        for path, spec, _ in flat.atoms:
            node = _Node(path, spec)
            node.t_last = t0
            ta = spec.time_advance(node.state)
            if ta < 0:
                raise ContractViolationError(f"{path}: time advance of initial state is {ta}")
            node.t_next = t0 + ta
            self._nodes.append(node)
            self._t_next.append(node.t_next)
        self._routes = [
            {port: flat.resolve(node.path, port) for port in node.spec.output_ports}
            for node in self._nodes
        ]

    # -- inspection -------------------------------------------------------

    @property
    def next_event_time(self) -> Time:
        """Time of the earliest pending internal event (INFINITY if none)."""
        return min(self._t_next, default=INFINITY)

    def components(self) -> Iterator[tuple[str, Any]]:
        """Yield (path, current state) for every atomic component."""
        for node in self._nodes:
            yield node.path, node.state

    def state_of(self, path: str) -> Any:
        for node in self._nodes:
            if node.path == path:
                return node.state
        raise KeyError(path)

    def node_times(self) -> Iterator[tuple[str, Time, Time]]:
        for node in self._nodes:
            yield node.path, node.t_last, node.t_next

    # -- execution --------------------------------------------------------

    def step(self) -> tuple[Time, list[Message]]:
        """Run one event: fire the selected imminent component.

        Returns the event time and any messages that crossed the root
        boundary.
        """
        t = min(self._t_next, default=INFINITY)
        if t == INFINITY:
            raise SimulationError("step() called with no pending events")
        return self._fire(t)

    def run_until(self, t_end: Time) -> list[TraceEvent]:
        """Process every event with time <= t_end; return the new trace slice.

        The clock ends at the time of the last processed event (it does not
        jump to ``t_end``).  Deterministic given the model and its seeds.
        The slice is empty when the trace streams to a file.
        """
        if t_end < self.clock:
            raise SimulationError(f"run_until({t_end}) is before the current clock {self.clock}")
        start = len(self.trace)
        t_next = self._t_next
        fire = self._fire
        while True:
            t = min(t_next, default=INFINITY)
            if t > t_end or t == INFINITY:
                break
            fire(t)
        return self.trace[start:]

    def _fire(self, t: Time) -> tuple[Time, list[Message]]:
        """Fire the first imminent component in select order at ``t``.

        ``t`` must be the minimum over ``_t_next``; both callers have just
        computed it, so the step body scans the table once more, for the
        index.
        """
        if t > self.clock:
            self.clock = t
            self._steps_at_clock = 1
        else:
            self._steps_at_clock += 1
            if self._steps_at_clock > self.max_zero_steps:
                raise IllegitimateModelError(
                    f"illegitimate model: more than {self.max_zero_steps} "
                    f"steps without the clock advancing past {t}"
                )
        i = self._t_next.index(t)  # first in select order among the imminent
        node = self._nodes[i]
        spec = node.spec
        outputs = spec.output(node.state)
        routes = self._routes[i]
        deliveries: dict[int, list[Message]] = {}
        root_outputs: list[Message] = []
        for msg in outputs:
            try:
                atom_targets, root_targets = routes[msg.port]
            except KeyError:
                raise RoutingError(
                    f"{node.path}: output on undeclared port {msg.port!r}"
                ) from None
            for idx, dst_port, chain in atom_targets:
                payload = msg.payload
                for z in chain:
                    payload = z(payload)
                bag = deliveries.get(idx)
                if bag is None:
                    deliveries[idx] = [Message(dst_port, payload)]
                else:
                    bag.append(Message(dst_port, payload))
            for root_port, chain in root_targets:
                payload = msg.payload
                for z in chain:
                    payload = z(payload)
                root_outputs.append(Message(root_port, payload))
        # Internal transition of the selected component.
        node.state = spec.delta_int(node.state)
        self._reschedule(i, node, t)
        sink = self._trace_sink
        if sink is not None:
            events = [TraceEvent(t, node.path, "internal", tuple(outputs))]
        # External transitions of every receiver, in select order.
        for idx in sorted(deliveries) if len(deliveries) > 1 else deliveries:
            receiver = self._nodes[idx]
            bag = deliveries[idx]
            elapsed = t - receiver.t_last
            receiver.state = receiver.spec.delta_ext(receiver.state, elapsed, bag)
            self._reschedule(idx, receiver, t)
            if sink is not None:
                events.append(TraceEvent(t, receiver.path, "external", tuple(bag)))
        # Handed over only now: a receiver may relabel a payload in this
        # event, and the trace shows each payload as the event left it.
        if sink is not None:
            sink(events)
        return t, root_outputs

    def _reschedule(self, idx: int, node: _Node, t: Time) -> None:
        ta = node.spec.time_advance(node.state)
        if ta < 0:
            raise ContractViolationError(f"{node.path}: time advance returned {ta}")
        node.t_last = t
        node.t_next = t + ta
        self._t_next[idx] = node.t_next


def initialize(
    model: ModelSpec,
    t0: Time = 0.0,
    *,
    record_trace: bool = True,
    trace_file: TextIO | None = None,
    max_zero_steps: int = MAX_ZERO_STEPS,
) -> SimulationHandle:
    """Validate a model and build a simulation handle starting at ``t0``.

    Every component starts with ``t_last = t0`` and
    ``t_next = t0 + ta(initial state)``.  Structural problems raise
    :class:`StructuralError`; a negative initial time advance raises
    :class:`ContractViolationError`.

    The event trace goes to one of two places.  With ``trace_file`` (an
    open text stream), each event's lines are written to it, in the
    :func:`dump_trace` format, as soon as that event's transitions are
    done; nothing is kept in memory, so ``handle.trace`` and the slices
    :meth:`~SimulationHandle.run_until` returns stay empty, and the caller
    closes the stream.  Otherwise ``record_trace=True`` keeps every
    :class:`TraceEvent` in ``handle.trace``; set it to ``False`` to record
    nothing.

    A spec instance carries its components' mutable state, so treat each
    built model as single-use: construct a fresh spec per run, as the model
    builders do.
    """
    return SimulationHandle(model, t0, record_trace, trace_file, max_zero_steps)


def dump_trace(events: Sequence[TraceEvent], stream: TextIO) -> None:
    """Write a trace as tab-separated lines.

    Columns: time, component path, phase, port, payload summary.  Events
    with several messages produce one line per message; events without
    messages produce a single line with ``-`` placeholders.
    """
    stream.writelines(_trace_lines(events))


def _trace_lines(events: Sequence[TraceEvent]) -> Iterator[str]:
    for ev in events:
        if ev.messages:
            for msg in ev.messages:
                yield f"{ev.time:g}\t{ev.component}\t{ev.phase}\t{msg.port}\t{msg.payload}\n"
        else:
            yield f"{ev.time:g}\t{ev.component}\t{ev.phase}\t-\t-\n"
