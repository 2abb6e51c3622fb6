"""Dynamic entities flowing through a model, plus per-object statistics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional


@dataclass(eq=False, slots=True)
class Entity:
    """One simulated individual, or a married couple led by one.

    Identity semantics: two entities are equal only if they are the same
    object.  ``affected`` is a child's congenital-disorder flag, drawn at
    birth.  ``member`` is set when a combiner marries a member to this
    entity; until then it is None.
    """

    id: int
    class_label: str
    affected: bool = False
    member: Optional["Entity"] = None

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
    also the next id.  ``label_counts`` counts population-class assignments
    (source emissions, relabels, offspring births) and feeds the
    dynamic-object report rows.
    """

    __slots__ = ("created_total", "label_counts")

    def __init__(self) -> None:
        self.created_total = 0
        self.label_counts: Counter[str] = Counter()

    def create(self, class_label: str) -> Entity:
        entity = Entity(self.created_total, class_label)
        self.created_total += 1
        return entity

    def count_label(self, class_label: str) -> None:
        self.label_counts[class_label] += 1


@dataclass(slots=True)
class ObjectStats:
    """Flat counters kept by every process object.

    ``entered`` counts the flowing units a sink absorbed; ``processed``
    counts a server's services and a combiner's marriages.  A sink also
    counts ``destroyed_individuals``, a married couple as two, so that
    conservation can be checked per individual, and, by class label, the
    individuals flagged ``affected``.
    """

    entered: int = 0
    processed: int = 0
    destroyed_individuals: int = 0
    affected_by_class: Counter = field(default_factory=Counter)
