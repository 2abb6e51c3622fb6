"""Process-object library: Source, Combiner, Server and Sink, plus the
routing pieces that live on couplings, WeightedChoice and Travelers.

Each object is realized as one DEVS atomic whose state keeps flat
counters in an :class:`~kinsim.entities.ObjectStats` and reports its own
rows through ``report_rows(name)``.  Routing costs no atomic: a
:class:`WeightedChoice` picks an entity's route with translates on the
couplings, and a :class:`Travelers` translate counts a leg and reports one
row per leg name.  Conventions shared by all objects:

* Every step takes zero time, as marriage and births do in the model:
  entities cascade through an arbitrary number of objects at a single
  clock value, one kernel step per object that holds them, in FIFO order.
  A leg that only forwards, picks or counts entities costs no step: it is
  a coupling.
* Only a source keeps a clock (``now``), advanced to each emission time, to
  schedule its next emission; models built from these objects are expected
  to start at t0 = 0.  No other object reads the time.
* A report row is (object name, data source, category, value).  Buffer
  rows are read off the object's counters at the moment of the report: a
  server's and a sink's input buffer report arrivals, a server's output
  buffer reports processed entities that have left, a combiner's parent
  buffer reports candidates that arrived and its member buffer reports
  members consumed into a marriage, one per marriage.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import accumulate
from typing import Any, Callable, Mapping, Optional

from .entities import Entity, EntityFactory, ObjectStats, individual_count
from .errors import ConfigurationError, ContractViolationError, RoutingError
from .kernel import INFINITY, NO_EVENT, AtomicSpec, Message, Time
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
        self.pending = self.factory.create(self.class_label)

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
# Weighted choice (routing on couplings)


class WeightedChoice:
    """A weighted pick among named routes, made on the couplings themselves.

    Each message that reaches the choice picks one name, with probability
    ``weight / sum(weights)``, by one ``uniform()`` from ``stream``: the
    first name, in the mapping's order, whose running sum of weights
    exceeds ``u * sum(weights)``.  A name in ``relabel`` gives the entities
    that pick it a new class label, counted on ``factory``.

    :meth:`leg` makes the translates to place on couplings: a leg passes
    the entities that picked its name and yields
    :data:`~kinsim.kernel.NO_EVENT` for the rest.  A message that reaches
    one leg must reach every leg made, each once.  The first leg it reaches
    draws; once every leg has served it, the next message draws anew, even
    one that carries the same entity.
    """

    __slots__ = ("names", "bounds", "total", "stream", "relabels", "factory",
                 "legs", "left", "round", "entity", "pick")

    def __init__(
        self,
        weights: Mapping[str, float],
        *,
        stream: RngStream,
        relabel: Mapping[str, str] = {},
        factory: Optional[EntityFactory] = None,
    ) -> None:
        if len(weights) < 2:
            raise ConfigurationError(f"weighted choice needs at least two routes, got "
                                     f"{len(weights)}; a single route is a coupling")
        for name, weight in weights.items():
            if not weight > 0:  # NaN too
                raise ConfigurationError(f"route {name!r}: weight must be positive, got {weight}")
        for name in relabel:
            if name not in weights or factory is None:
                raise ConfigurationError(f"relabel of route {name!r} needs an entity factory "
                                         f"and a route of that name, got {list(weights)}")
        self.names = tuple(weights)
        # The running sums of a scan from the first name, added in that order.
        # The last sum is left out of ``bounds``: a bisection over the rest
        # then clamps a roundoff overshoot to the last route.
        sums = list(accumulate(weights.values(), initial=0.0))
        self.bounds = sums[1:-1]
        self.total = sums[-1]
        self.stream = stream
        self.relabels = tuple(relabel.get(name) for name in self.names)
        self.factory = factory
        self.legs = self.left = 0  # legs made, and legs yet to serve this message
        self.round = 0  # messages drawn for
        self.entity: Optional[Entity] = None
        self.pick = 0

    def leg(self, name: str) -> Callable[[Entity], Entity]:
        """A new translate that passes the entities that pick ``name``."""
        if name not in self.names:
            raise ConfigurationError(f"weighted choice has no route {name!r}")
        self.legs += 1
        return _Leg(self, self.names.index(name))

    def _draw(self, entity: Entity) -> None:
        self.round += 1
        self.left = self.legs
        self.entity = entity
        self.pick = pick = bisect_right(self.bounds, self.stream.uniform() * self.total)
        label = self.relabels[pick]
        if label is not None:
            entity.class_label = label
            self.factory.count_label(label)


class _Leg:
    """One route of a :class:`WeightedChoice`, as a coupling translate."""

    __slots__ = ("choice", "index", "served")

    def __init__(self, choice: WeightedChoice, index: int) -> None:
        self.choice = choice
        self.index = index
        self.served = 0  # the last round this leg served

    def __call__(self, entity: Entity) -> Any:
        choice = self.choice
        if not choice.left:
            choice._draw(entity)
        elif entity is not choice.entity or self.served == choice.round:
            raise RoutingError(f"a message reached leg {choice.names[self.index]!r} before the "
                               f"last one had reached all {choice.legs} legs of its choice")
        self.served = choice.round
        choice.left -= 1
        return entity if choice.pick == self.index else NO_EVENT


# ---------------------------------------------------------------------------
# Travelers (counted zero-delay leg)


class Travelers:
    """Counts the entities that cross a coupling and passes them on unchanged.

    Used as a :class:`~kinsim.kernel.Coupling`'s ``translate``, it makes the
    coupling a counted zero-delay leg, reported as ``[Travelers]``, that
    costs no kernel step.  One counter may carry several leg names when
    every entity crosses those legs together; each name gets its own report
    row with the shared count.  One counter may also sit on several
    couplings, behind picks that let each entity through only one of them;
    it still reports once.
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
# Combiner


class CombinerState:
    __slots__ = ("parents", "members", "ready", "stats")

    def __init__(self):
        self.parents: deque[Entity] = deque()
        self.members: deque[Entity] = deque()
        self.ready: list[Entity] = []
        self.stats = ObjectStats()

    def _match(self) -> None:
        while self.parents and self.members:
            parent = self.parents.popleft()
            parent.member = self.members.popleft()
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
            (name, "[MemberInputBuffer]", CONTENT, s.processed),
            (name, OUTPUT_BUFFER, CONTENT, s.processed - len(self.ready)),  # married and left
            # each marriage took one parent; the rest still wait
            (name, "[ParentInputBuffer]", CONTENT, s.processed + len(self.parents)),
            (name, PROCESSED, THROUGHPUT, s.processed),
        ]


def _combiner_ta(s: CombinerState) -> Time:
    return 0.0 if s.ready else INFINITY


def _combiner_out(s: CombinerState) -> list[Message]:
    return [Message(PORT_OUT, parent) for parent in s.ready]


def _combiner_dint(s: CombinerState) -> CombinerState:
    s.ready.clear()
    return s


def _combiner_dext(s: CombinerState, elapsed: Time, bag) -> CombinerState:
    for msg in bag:
        if msg.port == PORT_PARENT_IN:
            s.parents.append(msg.payload)
        else:
            s.members.append(msg.payload)
    s._match()
    return s


def make_combiner() -> AtomicSpec:
    """Attach one member to a parent entity and emit the parent at once.

    Parents and members wait in FIFO buffers; whenever a parent and a member
    are both available the member becomes the parent's ``member`` and the
    parent leaves with zero service time.  Surplus arrivals on either
    side stay held in their buffer.
    """
    return AtomicSpec(
        initial_state=CombinerState(),
        time_advance=_combiner_ta,
        delta_int=_combiner_dint,
        delta_ext=_combiner_dext,
        output=_combiner_out,
        input_ports=(PORT_PARENT_IN, PORT_MEMBER_IN),
        output_ports=(PORT_OUT,),
    )


# ---------------------------------------------------------------------------
# Server


ProcessedTrigger = Callable[[Entity], list[Entity]]


class ServerState:
    __slots__ = ("on_processed", "outq", "outq_serviced", "stats")

    def __init__(self, on_processed: ProcessedTrigger):
        self.on_processed = on_processed
        self.outq: list[Entity] = []
        self.outq_serviced = 0  # processed entities in ``outq``; offspring are not
        self.stats = ObjectStats()

    def held_individuals(self) -> int:
        return sum(individual_count(e) for e in self.outq)

    def report_rows(self, name: str) -> list[StatRow]:
        s = self.stats
        return [
            (name, INPUT_BUFFER, CONTENT, s.processed),  # each arrival is processed at once
            (name, OUTPUT_BUFFER, CONTENT, s.processed - self.outq_serviced),
            (name, PROCESSED, THROUGHPUT, s.processed),
        ]


def _server_ta(s: ServerState) -> Time:
    return 0.0 if s.outq else INFINITY


def _server_out(s: ServerState) -> list[Message]:
    return [Message(PORT_OUT, entity) for entity in s.outq]


def _server_dint(s: ServerState) -> ServerState:
    s.outq.clear()
    s.outq_serviced = 0
    return s


def _server_dext(s: ServerState, elapsed: Time, bag) -> ServerState:
    for msg in bag:
        entity = msg.payload
        s.stats.processed += 1
        s.outq_serviced += 1
        s.outq.append(entity)
        s.outq.extend(s.on_processed(entity))  # offspring leave behind their parent
    return s


def make_server(on_processed: ProcessedTrigger) -> AtomicSpec:
    """Zero-time FIFO process with a completion trigger.

    Each arrival is processed the moment it arrives, in arrival order, so
    the server keeps no clock: ``on_processed(entity)`` returns the entities
    it creates (offspring), which go to the output buffer directly behind
    the triggering entity and leave with it, in order.  Buffer rows count
    processed entities only; trigger-created entities are counted under
    their own class labels by the factory that created them.
    """
    return AtomicSpec(
        initial_state=ServerState(on_processed),
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
    stats = s.stats
    for msg in bag:
        stats.entered += 1
        entity = msg.payload
        while entity is not None:  # the entity, then its member
            stats.destroyed_individuals += 1
            if entity.affected:
                stats.affected_by_class[entity.class_label] += 1
            entity = entity.member
    return s


def make_sink() -> AtomicSpec:
    """Destroy every received entity, counting its individuals.

    ``entered`` counts the flowing units that arrived; a member riding on
    its parent is counted in ``destroyed_individuals``, and in the affected
    tally by class label, as an individual of its own.
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
