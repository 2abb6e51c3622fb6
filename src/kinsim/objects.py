"""Process-object library: Source, Combiner, Server, Sink, Path, Splitter.

Each object is realized as one DEVS atomic whose state keeps flat
counters in an :class:`~kinsim.entities.ObjectStats` and reports its own
rows through ``report_rows(name)``; :class:`Travelers` is the one exception,
a counter placed on a coupling that reports one row per leg.  Conventions
shared by all objects:

* Zero service times are the default; entities then cascade through an
  arbitrary number of objects at a single clock value, one kernel step per
  object that holds them, in FIFO order.  A leg that only forwards entities
  costs no step: it is a coupling, counted by a :class:`Travelers` translate.
  A :func:`make_path` atomic is only needed for a travel time above zero, and
  a :func:`make_splitter` atomic only where an entity picks among two or
  more routes.
* Objects track their own absolute clock (``now``) from the elapsed times the
  kernel hands to ``delta_ext``; models built from these objects are expected
  to start at t0 = 0.
* A report row is (object name, data source, category, value).  Buffer
  rows are read off the object's counters at the moment of the report: a
  server's and a sink's input buffer report arrivals, a server's output
  buffer reports serviced entities that have left, a combiner's parent
  buffer reports candidates that arrived and its member buffer reports
  members consumed into a batch (``processed x batch_quantity``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from heapq import heappop, heappush
from itertools import accumulate
from typing import Any, Callable, Optional, Sequence

from .entities import Entity, EntityFactory, ObjectStats, individual_count
from .errors import ConfigurationError, ContractViolationError
from .kernel import INFINITY, AtomicSpec, Message, Time
from .randomness import Distribution, RngStream

PORT_IN = "in"
PORT_OUT = "out"
PORT_PARENT_IN = "parent_in"
PORT_MEMBER_IN = "member_in"

INPUT_BUFFER = "[InputBuffer]"
OUTPUT_BUFFER = "[OutputBuffer]"
PROCESSED = "[Processed]"
TRAVELERS = "[Travelers]"
THROUGHPUT = "Throughput"
CONTENT = "Content"

# One report row: (object name, data source, category, value).
StatRow = tuple[str, str, str, int]


def route_select(outgoing: Sequence[tuple[Any, float]], u: float) -> int:
    """Pick an outgoing path index by cumulative scan over the list order.

    Entry ``i`` is selected with probability ``weight_i / sum(weights)``.
    ``u`` is a uniform sample in [0, 1).  All weights must be positive and
    the list must not be empty.
    """
    if not outgoing:
        raise ConfigurationError("route_select: no outgoing paths to choose from")
    total = 0.0
    for _, weight in outgoing:
        if not weight > 0:  # NaN too
            raise ConfigurationError(f"route_select: weights must be positive, got {weight}")
        total += weight
    threshold = u * total
    acc = 0.0
    last = len(outgoing) - 1
    for i, (_, weight) in enumerate(outgoing):
        acc += weight
        if threshold < acc:
            return i
    return last  # float roundoff at u ~ 1.0


# ---------------------------------------------------------------------------
# Source


class SourceState:
    __slots__ = ("class_label", "dist", "remaining", "factory", "stream", "now",
                 "next_time", "pending", "stats")

    def __init__(self, class_label, dist, max_arrivals, factory, stream):
        self.class_label = class_label
        self.dist = dist
        self.remaining = max_arrivals
        self.factory = factory
        self.stream = stream
        self.now: Time = 0.0
        self.next_time: Time = 0.0
        self.pending: Optional[Entity] = None
        self.stats = ObjectStats()
        if max_arrivals is None or max_arrivals > 0:
            self._schedule_next()

    def _schedule_next(self) -> None:
        delay = self.dist.sample(self.stream)
        if delay < 0:
            raise ContractViolationError(
                f"interarrival sample must be >= 0, got {delay} for source {self.class_label!r}"
            )
        self.next_time = self.now + delay
        self.pending = self.factory.create(self.class_label, self.next_time)

    def held_individuals(self) -> int:
        return individual_count(self.pending) if self.pending is not None else 0

    def report_rows(self, name: str) -> list[StatRow]:
        return []


def _source_ta(s: SourceState) -> Time:
    return s.next_time - s.now if s.pending is not None else INFINITY


def _source_out(s: SourceState) -> list[Message]:
    return [Message(PORT_OUT, s.pending)]


def _source_dint(s: SourceState) -> SourceState:
    s.now = s.next_time
    s.stats.created += 1
    s.factory.count_label(s.class_label)
    if s.remaining is not None:
        s.remaining -= 1
        if s.remaining == 0:
            s.pending = None
            return s
    s._schedule_next()
    return s


def make_source(
    class_label: str,
    interarrival: Distribution,
    max_arrivals: Optional[int],
    *,
    factory: EntityFactory,
    stream: RngStream,
) -> AtomicSpec:
    """Emit one fresh entity per interarrival sample, starting after the first.

    ``max_arrivals=None`` means unbounded.  Negative interarrival samples
    raise :class:`ContractViolationError`.
    """
    if max_arrivals is not None and max_arrivals < 0:
        raise ConfigurationError(f"max_arrivals must be >= 0 or None, got {max_arrivals}")
    state = SourceState(class_label, interarrival, max_arrivals, factory, stream)
    return AtomicSpec(
        initial_state=state,
        time_advance=_source_ta,
        delta_int=_source_dint,
        delta_ext=_reject_input,
        output=_source_out,
        output_ports=(PORT_OUT,),
    )


def _reject_input(state, elapsed, bag):  # sources declare no input ports
    raise AssertionError("component without input ports received input")


# ---------------------------------------------------------------------------
# Splitter (weighted routing node)


class RouteChoice:
    """One outgoing port of a splitter with its weight and optional relabel."""

    __slots__ = ("port", "weight", "relabel")

    def __init__(self, port: str, weight: float = 1.0, relabel: Optional[str] = None):
        self.port = port
        self.weight = weight
        self.relabel = relabel


class SplitterState:
    __slots__ = ("choices", "bounds", "total", "stream", "factory", "pending", "stats")

    def __init__(self, choices, stream, factory):
        self.choices = choices
        # route_select's running sums, added in the same order so the floats
        # are bit-equal.  The last sum is left out of ``bounds``: a bisection
        # over the rest then clamps a roundoff overshoot to the last choice.
        sums = list(accumulate((c.weight for c in choices), initial=0.0))
        self.bounds = sums[1:-1]
        self.total = sums[-1]
        self.stream = stream
        self.factory = factory
        self.pending: list[tuple[str, Entity]] = []
        self.stats = ObjectStats()

    def held_individuals(self) -> int:
        return sum(individual_count(e) for _, e in self.pending)

    def report_rows(self, name: str) -> list[StatRow]:
        return []


def _splitter_ta(s: SplitterState) -> Time:
    return 0.0 if s.pending else INFINITY


def _splitter_out(s: SplitterState) -> list[Message]:
    return [Message(port, entity) for port, entity in s.pending]


def _splitter_dint(s: SplitterState) -> SplitterState:
    s.pending.clear()
    return s


def _splitter_dext(s: SplitterState, elapsed: Time, bag) -> SplitterState:
    for msg in bag:
        entity = msg.payload
        # The pick of route_select(weighted, u), as one bisection.
        choice = s.choices[bisect_right(s.bounds, s.stream.uniform() * s.total)]
        if choice.relabel is not None:
            entity.class_label = choice.relabel
            s.factory.count_label(choice.relabel)
        s.pending.append((choice.port, entity))
    return s


def make_splitter(
    choices: Sequence[RouteChoice],
    *,
    stream: Optional[RngStream] = None,
    factory: Optional[EntityFactory] = None,
) -> AtomicSpec:
    """Instantaneous weighted routing node: each entity picks one outgoing port.

    Each entity's pick is that of :func:`route_select` over the choices'
    weights, drawn from ``stream``.  A choice may relabel the entity's
    class; the relabel is counted as a dynamic-object assignment on
    ``factory``, which a relabel therefore requires.  There must be at
    least two choices, each with a positive weight: a single route is a
    coupling, counted by :class:`Travelers`.
    """
    if len(choices) < 2:
        raise ConfigurationError(
            f"splitter needs at least two outgoing choices, got {len(choices)}; "
            "a single route is a coupling"
        )
    if stream is None:
        raise ConfigurationError("splitter needs a random stream")
    for c in choices:
        if not c.weight > 0:
            raise ConfigurationError(
                f"splitter choice {c.port!r}: weight must be positive, got {c.weight}"
            )
        if c.relabel is not None and factory is None:
            raise ConfigurationError(
                f"splitter choice {c.port!r}: relabel {c.relabel!r} needs an entity factory"
            )
    state = SplitterState(list(choices), stream, factory)
    return AtomicSpec(
        initial_state=state,
        time_advance=_splitter_ta,
        delta_int=_splitter_dint,
        delta_ext=_splitter_dext,
        output=_splitter_out,
        input_ports=(PORT_IN,),
        output_ports=tuple(c.port for c in choices),
    )


# ---------------------------------------------------------------------------
# Travelers (counted zero-delay leg)


class Travelers:
    """Counts the entities that cross a coupling and passes them on unchanged.

    Used as a :class:`~kinsim.kernel.Coupling`'s ``translate``, it makes the
    coupling a counted zero-delay leg, the same count a zero-travel-time
    path reports as ``[Travelers]`` without the kernel step per hop.  One
    counter may carry several leg names when every entity crosses those legs
    together; each name gets its own report row with the shared count.
    """

    __slots__ = ("legs", "count")

    def __init__(self, *legs: str) -> None:
        self.legs = legs
        self.count = 0

    def __call__(self, payload: Entity) -> Entity:
        self.count += 1
        return payload

    def report_rows(self) -> list[StatRow]:
        return [(leg, TRAVELERS, THROUGHPUT, self.count) for leg in self.legs]


# ---------------------------------------------------------------------------
# Path


class PathState:
    __slots__ = ("travel_time", "queue", "now", "stats")

    def __init__(self, travel_time):
        self.travel_time = travel_time
        self.queue: deque[tuple[Time, Entity]] = deque()
        self.now: Time = 0.0
        self.stats = ObjectStats()

    def held_individuals(self) -> int:
        return sum(individual_count(e) for _, e in self.queue)

    def report_rows(self, name: str) -> list[StatRow]:
        return [(name, TRAVELERS, THROUGHPUT, self.stats.entered)]


def _path_ta(s: PathState) -> Time:
    return s.queue[0][0] - s.now if s.queue else INFINITY


def _path_out(s: PathState) -> list[Message]:
    due = s.queue[0][0]
    return [Message(PORT_OUT, entity) for exit_time, entity in s.queue if exit_time == due]


def _path_dint(s: PathState) -> PathState:
    due = s.queue[0][0]
    s.now = due
    while s.queue and s.queue[0][0] == due:
        s.queue.popleft()
        s.stats.exited += 1
    return s


def _path_dext(s: PathState, elapsed: Time, bag) -> PathState:
    s.now += elapsed
    for msg in bag:
        s.queue.append((s.now + s.travel_time, msg.payload))
        s.stats.entered += 1
    return s


def make_path(travel_time: Time) -> AtomicSpec:
    """Delay line between two objects; counts every traveler.

    The travel time is one constant and the clock never runs back, so
    entities exit in entry order.
    """
    if travel_time < 0:
        raise ConfigurationError(f"travel_time must be >= 0, got {travel_time}")
    state = PathState(travel_time)
    return AtomicSpec(
        initial_state=state,
        time_advance=_path_ta,
        delta_int=_path_dint,
        delta_ext=_path_dext,
        output=_path_out,
        input_ports=(PORT_IN,),
        output_ports=(PORT_OUT,),
    )


# ---------------------------------------------------------------------------
# Combiner


class CombinerState:
    __slots__ = ("batch_quantity", "parents", "members", "ready", "stats")

    def __init__(self, batch_quantity):
        self.batch_quantity = batch_quantity
        self.parents: deque[Entity] = deque()
        self.members: deque[Entity] = deque()
        self.ready: list[Entity] = []
        self.stats = ObjectStats()

    def _match(self) -> None:
        while self.parents and len(self.members) >= self.batch_quantity:
            parent = self.parents.popleft()
            for _ in range(self.batch_quantity):
                parent.members.append(self.members.popleft())
            self.ready.append(parent)
            self.stats.processed += 1

    def held_individuals(self) -> int:
        held = sum(individual_count(e) for e in self.parents)
        held += sum(individual_count(e) for e in self.members)
        held += sum(individual_count(e) for e in self.ready)
        return held

    def report_rows(self, name: str) -> list[StatRow]:
        s = self.stats
        return [
            (name, "[MemberInputBuffer]", CONTENT, s.processed * self.batch_quantity),
            (name, OUTPUT_BUFFER, CONTENT, s.exited),
            # each processed batch took one parent; the rest still wait
            (name, "[ParentInputBuffer]", CONTENT, s.processed + len(self.parents)),
            (name, PROCESSED, THROUGHPUT, s.processed),
        ]


def _combiner_ta(s: CombinerState) -> Time:
    return 0.0 if s.ready else INFINITY


def _combiner_out(s: CombinerState) -> list[Message]:
    return [Message(PORT_OUT, parent) for parent in s.ready]


def _combiner_dint(s: CombinerState) -> CombinerState:
    s.stats.exited += len(s.ready)
    s.ready.clear()
    return s


def _combiner_dext(s: CombinerState, elapsed: Time, bag) -> CombinerState:
    for msg in bag:
        s.stats.entered += 1
        if msg.port == PORT_PARENT_IN:
            s.parents.append(msg.payload)
        else:
            s.members.append(msg.payload)
    s._match()
    return s


def make_combiner(batch_quantity: int = 1) -> AtomicSpec:
    """Attach batched members to a parent entity and emit it immediately.

    Parents and members wait in FIFO buffers; whenever at least one parent
    and ``batch_quantity`` members are available the members move onto the
    parent's member list and the parent leaves with zero service time.
    Surplus arrivals on either side stay held in their buffer.
    """
    if batch_quantity < 1:
        raise ConfigurationError(f"batch_quantity must be >= 1, got {batch_quantity}")
    state = CombinerState(batch_quantity)
    return AtomicSpec(
        initial_state=state,
        time_advance=_combiner_ta,
        delta_int=_combiner_dint,
        delta_ext=_combiner_dext,
        output=_combiner_out,
        input_ports=(PORT_PARENT_IN, PORT_MEMBER_IN),
        output_ports=(PORT_OUT,),
    )


# ---------------------------------------------------------------------------
# Server


class ServerState:
    __slots__ = ("capacity", "dist", "stream", "on_processed", "queue", "in_service",
                 "outq", "outq_serviced", "now", "_seq", "stats")

    def __init__(self, capacity, dist, stream, on_processed):
        self.capacity = capacity
        self.dist = dist
        self.stream = stream
        self.on_processed = on_processed
        self.queue: deque[Entity] = deque()
        self.in_service: list[tuple[Time, int, Entity]] = []
        self.outq: list[Entity] = []
        self.outq_serviced = 0
        self.now: Time = 0.0
        self._seq = 0
        self.stats = ObjectStats()

    def _settle(self) -> None:
        """Pull waiting entities into service and complete everything due now."""
        while True:
            while self.queue and len(self.in_service) < self.capacity:
                entity = self.queue.popleft()
                duration = self.dist.sample(self.stream) if self.dist is not None else 0.0
                if duration < 0:
                    raise ContractViolationError(f"service time sample must be >= 0, got {duration}")
                heappush(self.in_service, (self.now + duration, self._seq, entity))
                self._seq += 1
            if self.in_service and self.in_service[0][0] == self.now:
                _, _, entity = heappop(self.in_service)
                self.stats.processed += 1
                self.outq.append(entity)
                self.outq_serviced += 1
                if self.on_processed is not None:
                    created = self.on_processed(entity, self.now)
                    if created:
                        self.outq.extend(created)  # offspring leave behind their parent
                continue
            break

    def held_individuals(self) -> int:
        held = sum(individual_count(e) for e in self.queue)
        held += sum(individual_count(e) for _, _, e in self.in_service)
        held += sum(individual_count(e) for e in self.outq)
        return held

    def report_rows(self, name: str) -> list[StatRow]:
        s = self.stats
        return [
            (name, INPUT_BUFFER, CONTENT, s.entered),
            (name, OUTPUT_BUFFER, CONTENT, s.processed - self.outq_serviced),
            (name, PROCESSED, THROUGHPUT, s.processed),
        ]


def _server_ta(s: ServerState) -> Time:
    if s.outq:
        return 0.0
    if s.in_service:
        return s.in_service[0][0] - s.now
    return INFINITY


def _server_out(s: ServerState) -> list[Message]:
    return [Message(PORT_OUT, entity) for entity in s.outq]


def _server_dint(s: ServerState) -> ServerState:
    if s.outq:
        s.stats.exited += len(s.outq)
        s.outq.clear()
        s.outq_serviced = 0
        s._settle()
        return s
    s.now = s.in_service[0][0]
    s._settle()
    return s


def _server_dext(s: ServerState, elapsed: Time, bag) -> ServerState:
    s.now += elapsed
    for msg in bag:
        s.queue.append(msg.payload)
        s.stats.entered += 1
    s._settle()
    return s


ProcessedTrigger = Callable[[Entity, Time], Optional[list[Entity]]]


def make_server(
    capacity: int = 1,
    service_time: Optional[Distribution] = None,
    on_processed: Optional[ProcessedTrigger] = None,
    *,
    stream: Optional[RngStream] = None,
) -> AtomicSpec:
    """Capacitated FIFO process with an optional completion trigger.

    Up to ``capacity`` entities are serviced concurrently; the rest wait in
    the input buffer.  On completion the trigger may create additional
    entities (offspring), which are injected into the output buffer directly
    behind the triggering entity and leave with it, in order.  Buffer rows
    count serviced entities only; trigger-created entities are counted
    under their own class labels by the factory that created them.
    ``service_time=None`` means zero service time.
    """
    if capacity < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
    state = ServerState(capacity, service_time, stream, on_processed)
    return AtomicSpec(
        initial_state=state,
        time_advance=_server_ta,
        delta_int=_server_dint,
        delta_ext=_server_dext,
        output=_server_out,
        input_ports=(PORT_IN,),
        output_ports=(PORT_OUT,),
    )


# ---------------------------------------------------------------------------
# Sink


class SinkState:
    __slots__ = ("stats",)

    def __init__(self):
        self.stats = ObjectStats()

    def held_individuals(self) -> int:
        return 0

    def report_rows(self, name: str) -> list[StatRow]:
        return [(name, INPUT_BUFFER, THROUGHPUT, self.stats.entered)]


def _sink_ta(s: SinkState) -> Time:
    return INFINITY


def _sink_out(s: SinkState) -> list[Message]:
    return []


def _sink_dint(s: SinkState) -> SinkState:
    return s


def _sink_dext(s: SinkState, elapsed: Time, bag) -> SinkState:
    for msg in bag:
        s.stats.entered += 1
        s.stats.destroyed += 1
        _count_destroyed(s.stats, msg.payload)
    return s


def _count_destroyed(stats: ObjectStats, entity: Entity) -> None:
    stats.destroyed_individuals += 1
    stats.destroyed_by_class[entity.class_label] += 1
    if entity.attributes.get("affected"):
        stats.affected_by_class[entity.class_label] += 1
    for member in entity.members:
        _count_destroyed(stats, member)


def make_sink() -> AtomicSpec:
    """Destroy every received entity, recording a class-label breakdown.

    Batched members riding on a parent are counted individually in the
    breakdown and in ``destroyed_individuals``; ``destroyed`` counts the
    flowing units that arrived.
    """
    state = SinkState()
    return AtomicSpec(
        initial_state=state,
        time_advance=_sink_ta,
        delta_int=_sink_dint,
        delta_ext=_sink_dext,
        output=_sink_out,
        input_ports=(PORT_IN,),
    )
