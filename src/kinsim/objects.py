"""Process-object library: Source, Combiner, Server and Sink, plus
WeightedChoice, the weighted pick a source may route by.

Each object is realized as one DEVS atomic whose state keeps flat
counters in an :class:`~kinsim.entities.ObjectStats` and reports its own
rows through ``report_rows(name)``.  A combiner, server or sink also
tells how many entities arrived on an input port, ``arrivals(port)``,
derived from those counters.  Routing costs no atomic: a source's
``route`` picks each entity's output port as it emits it, for instance
with :class:`WeightedChoice` picks.  Conventions shared by all objects:

* Every step but a source's emission takes zero time, as marriage and
  births do in the model: entities cascade through an arbitrary number of
  objects at a single clock value, one kernel step per object that holds
  them, in FIFO order.  A leg that only forwards entities costs no step:
  it is a coupling, and what crossed it is read off the arrivals at its
  end.
* No object reads the time: a source holds the gap to its next emission,
  which the kernel adds to the time of the last one.
* A report row is (object name, data source, category, value).  Buffer
  rows are read off the object's counters at the moment of the report: a
  server's and a sink's input buffer report arrivals; a combiner's and a
  server's output buffer report the processed entities that had left by
  the object's last internal transition; a combiner's parent buffer
  reports candidates that arrived and its member buffer reports members
  consumed into a marriage, one per marriage.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from itertools import accumulate
from typing import Callable, Mapping, Optional

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


# ---------------------------------------------------------------------------
# Source


class SourceState:
    __slots__ = ("class_label", "dist", "remaining", "factory", "stream", "route", "gap",
                 "pending", "stats")

    def __init__(self, class_label, dist, max_arrivals, factory, stream, route):
        self.class_label = class_label
        self.dist = dist
        self.remaining = max_arrivals
        self.factory = factory
        self.stream = stream
        self.route = route
        # From the last emission, or the start, to ``pending``'s: the time advance.
        self.gap: Time = INFINITY
        self.pending: Optional[Entity] = None
        self.stats = ObjectStats()
        if max_arrivals is None or max_arrivals > 0:
            self._schedule_next()

    def _schedule_next(self) -> None:
        gap = self.dist.sample(self.stream)
        if gap < 0:
            raise ContractViolationError(
                f"interarrival sample must be >= 0, got {gap} for source {self.class_label!r}"
            )
        self.gap = gap
        self.pending = self.factory.create(self.class_label)

    def held_individuals(self) -> int:
        return individual_count(self.pending) if self.pending is not None else 0

    def report_rows(self, name: str) -> list[StatRow]:
        return []


def _source_ta(s: SourceState) -> Time:
    return s.gap


def _source_out(s: SourceState) -> list[Message]:
    entity = s.pending
    return [Message(s.route(entity), entity)]


def _source_dint(s: SourceState) -> SourceState:
    s.factory.count_label(s.class_label)
    if s.remaining is not None:
        s.remaining -= 1
        if s.remaining == 0:
            s.pending = None
            s.gap = INFINITY
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
    route: Callable[[Entity], str],
    ports: tuple[str, ...],
) -> AtomicSpec:
    """Emit one fresh entity per interarrival sample, starting after the first.

    ``max_arrivals=None`` means unbounded.  Negative interarrival samples
    raise :class:`ContractViolationError`.  Each entity leaves on the port
    that ``route(entity)`` names, called once per emission in the output
    function; ``ports`` declares the ports it may name.
    """
    if max_arrivals is not None and max_arrivals < 0:
        raise ConfigurationError(f"max_arrivals must be >= 0 or None, got {max_arrivals}")
    state = SourceState(class_label, interarrival, max_arrivals, factory, stream, route)
    return AtomicSpec(
        initial_state=state,
        time_advance=_source_ta,
        delta_int=_source_dint,
        delta_ext=_reject_input,
        output=_source_out,
        output_ports=ports,
    )


def _reject_input(state, elapsed, bag):  # sources declare no input ports
    raise AssertionError("component without input ports received input")


# ---------------------------------------------------------------------------
# Weighted choice


class WeightedChoice:
    """A weighted pick among named routes, for a source's ``route``.

    Each :meth:`pick` returns one name, with probability
    ``weight / sum(weights)``, by one ``uniform()`` from ``stream``: the
    first name, in the mapping's order, whose running sum of weights
    exceeds ``u * sum(weights)``.  Every weight must be positive and their
    sum finite.
    """

    __slots__ = ("names", "bounds", "total", "stream")

    def __init__(self, weights: Mapping[str, float], *, stream: RngStream) -> None:
        if len(weights) < 2:
            raise ConfigurationError(f"weighted choice needs at least two routes, got "
                                     f"{len(weights)}; a single route is a coupling")
        for name, weight in weights.items():
            if not weight > 0:  # NaN too
                raise ConfigurationError(f"route {name!r}: weight must be positive, got {weight}")
        self.names = tuple(weights)
        # The running sums of a scan from the first name, added in that order.
        # The last sum is left out of ``bounds``: a bisection over the rest
        # then clamps a roundoff overshoot to the last route.
        sums = list(accumulate(weights.values(), initial=0.0))
        if not math.isfinite(sums[-1]):  # u * inf would name the last route every time
            raise ConfigurationError(f"weights must have a finite sum, got {sums[-1]}")
        self.bounds = sums[1:-1]
        self.total = sums[-1]
        self.stream = stream

    def pick(self) -> str:
        """One route name, drawn by one ``uniform()``."""
        return self.names[bisect_right(self.bounds, self.stream.uniform() * self.total)]


# ---------------------------------------------------------------------------
# Zero-time output, shared by the combiner and the server


def _zero_time_ta(s: CombinerState | ServerState) -> Time:
    return 0.0 if s.outq else INFINITY


def _zero_time_out(s: CombinerState | ServerState) -> list[Message]:
    return [Message(PORT_OUT, entity) for entity in s.outq]


def _zero_time_dint(s: CombinerState | ServerState) -> CombinerState | ServerState:
    """Everything in ``outq`` has left, so each entity processed so far has."""
    s.outq.clear()
    s.left = s.stats.processed
    return s


# ---------------------------------------------------------------------------
# Combiner


class CombinerState:
    __slots__ = ("parents", "members", "outq", "left", "stats")

    def __init__(self):
        self.parents: deque[Entity] = deque()
        self.members: deque[Entity] = deque()
        self.outq: list[Entity] = []
        self.left = 0  # marriages whose parent has left
        self.stats = ObjectStats()

    def _match(self) -> None:
        while self.parents and self.members:
            parent = self.parents.popleft()
            parent.member = self.members.popleft()
            self.outq.append(parent)
            self.stats.processed += 1

    def held_individuals(self) -> int:
        held = sum(individual_count(e) for e in self.parents)
        held += sum(individual_count(e) for e in self.members)
        held += sum(individual_count(e) for e in self.outq)
        return held

    def arrivals(self, port: str) -> int:
        """Each marriage took one arrival of each side; the rest still wait."""
        waiting = self.parents if port == PORT_PARENT_IN else self.members
        return self.stats.processed + len(waiting)

    def report_rows(self, name: str) -> list[StatRow]:
        s = self.stats
        return [
            (name, "[MemberInputBuffer]", CONTENT, s.processed),
            (name, OUTPUT_BUFFER, CONTENT, self.left),
            (name, "[ParentInputBuffer]", CONTENT, self.arrivals(PORT_PARENT_IN)),
            (name, PROCESSED, THROUGHPUT, s.processed),
        ]


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
        time_advance=_zero_time_ta,
        delta_int=_zero_time_dint,
        delta_ext=_combiner_dext,
        output=_zero_time_out,
        input_ports=(PORT_PARENT_IN, PORT_MEMBER_IN),
        output_ports=(PORT_OUT,),
    )


# ---------------------------------------------------------------------------
# Server


ProcessedTrigger = Callable[[Entity], list[Entity]]


class ServerState:
    __slots__ = ("on_processed", "outq", "left", "stats")

    def __init__(self, on_processed: ProcessedTrigger):
        self.on_processed = on_processed
        self.outq: list[Entity] = []
        self.left = 0  # processed entities that have left; offspring are not counted
        self.stats = ObjectStats()

    def held_individuals(self) -> int:
        return sum(individual_count(e) for e in self.outq)

    def arrivals(self, port: str) -> int:
        return self.stats.processed  # each arrival is processed at once

    def report_rows(self, name: str) -> list[StatRow]:
        s = self.stats
        return [
            (name, INPUT_BUFFER, CONTENT, s.processed),  # each arrival is processed at once
            (name, OUTPUT_BUFFER, CONTENT, self.left),
            (name, PROCESSED, THROUGHPUT, s.processed),
        ]


def _server_dext(s: ServerState, elapsed: Time, bag) -> ServerState:
    for msg in bag:
        entity = msg.payload
        s.stats.processed += 1
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
        time_advance=_zero_time_ta,
        delta_int=_zero_time_dint,
        delta_ext=_server_dext,
        output=_zero_time_out,
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

    def arrivals(self, port: str) -> int:
        return self.stats.entered

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
