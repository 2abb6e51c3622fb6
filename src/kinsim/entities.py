"""Dynamic entities flowing through a model, plus per-object statistics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any


@dataclass(eq=False, slots=True)
class Entity:
    """One simulated individual (or a batched group led by one).

    Identity semantics: two entities are equal only if they are the same
    object.  ``members`` is populated when a combiner attaches batched
    members to this entity; until then it is empty.
    """

    id: int
    class_label: str
    created_at: float
    attributes: dict[str, Any] = field(default_factory=dict)
    members: list["Entity"] = field(default_factory=list)

    def __str__(self) -> str:
        return f"{self.class_label}#{self.id}"


def individual_count(entity: Entity) -> int:
    """Number of individuals this flowing entity represents (itself + batched members)."""
    return 1 + sum(individual_count(member) for member in entity.members)


class EntityFactory:
    """Per-replication entity allocator.

    Ids are unique within a replication and assigned in creation order.
    ``created_total`` counts every allocated entity and anchors the
    conservation checks; ``label_counts`` counts population-class
    assignments (source emissions, relabels, offspring births) and feeds the
    dynamic-object report rows.
    """

    __slots__ = ("_next_id", "created_total", "label_counts")

    def __init__(self) -> None:
        self._next_id = 0
        self.created_total = 0
        self.label_counts: Counter[str] = Counter()

    def create(self, class_label: str, created_at: float, **attributes: Any) -> Entity:
        entity = Entity(self._next_id, class_label, created_at, dict(attributes))
        self._next_id += 1
        self.created_total += 1
        return entity

    def count_label(self, class_label: str) -> None:
        self.label_counts[class_label] += 1


@dataclass(slots=True)
class ObjectStats:
    """Flat counters kept by every process object.

    ``entered``/``exited`` count flowing units through the object as a whole;
    ``processed`` counts completed services or batches; ``destroyed`` counts
    flowing units absorbed by a sink while ``destroyed_individuals`` expands
    batched members so conservation can be checked per individual.  The two
    class-label tallies count a sink's destroyed individuals and, of those,
    the ones flagged ``affected``.
    """

    created: int = 0
    entered: int = 0
    processed: int = 0
    exited: int = 0
    destroyed: int = 0
    destroyed_individuals: int = 0
    destroyed_by_class: Counter = field(default_factory=Counter)
    affected_by_class: Counter = field(default_factory=Counter)
