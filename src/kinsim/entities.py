"""Dynamic entities flowing through a model, plus a sink's statistics."""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ._record import Record


class Entity:
    """One simulated individual, or a married couple led by one.

    Identity semantics: two entities are equal only if they are the same
    object.  ``affected`` is a child's congenital-disorder flag, drawn at
    birth.  ``member`` is set when a combiner marries a member to this
    entity; until then it is None.
    """

    __slots__ = ("id", "class_label", "affected", "member")

    def __init__(self, id: int, class_label: str, affected: bool = False,
                 member: Optional["Entity"] = None) -> None:
        self.id = id
        self.class_label = class_label
        self.affected = affected
        self.member = member

    __repr__ = Record.__repr__  # field-wise; equality stays identity

    def __str__(self) -> str:
        return f"{self.class_label}#{self.id}"


def individual_count(entity: Entity) -> int:
    """Number of individuals this flowing entity represents (itself and its member)."""
    count = 1
    while entity.member is not None:
        entity = entity.member
        count += 1
    return count


class EntityFactory:
    """Per-replication entity allocator.

    Ids are assigned in creation order from 0, so ``created_total``, which
    counts every allocated entity and anchors the conservation checks, is
    also the next id.  :meth:`reserve` allocates the ids of several entities
    that the caller builds itself.
    """

    __slots__ = ("created_total",)

    def __init__(self) -> None:
        self.created_total = 0

    def create(self, class_label: str) -> Entity:
        entity = Entity(self.created_total, class_label)
        self.created_total += 1
        return entity

    def reserve(self, n: int) -> range:
        """The ids of ``n`` new entities, in creation order."""
        first = self.created_total
        self.created_total = first + n
        return range(first, first + n)


class ObjectStats(Record):
    """Flat counters kept by a sink.

    ``entered`` counts the flowing units the sink absorbed, and
    ``destroyed_individuals`` their individuals, a married couple as two,
    so that conservation can be checked per individual;
    ``affected_by_class`` counts, by class label, the individuals flagged
    ``affected``.
    """

    __slots__ = ("entered", "destroyed_individuals", "affected_by_class")

    def __init__(self, entered: int = 0, destroyed_individuals: int = 0,
                 affected_by_class: Optional[Counter] = None) -> None:
        self.entered = entered
        self.destroyed_individuals = destroyed_individuals
        self.affected_by_class = Counter() if affected_by_class is None else affected_by_class
