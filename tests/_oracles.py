"""Independent oracles used by the test suite.

These deliberately avoid the package's own algorithms: kinship comes from
Malecot path counting over explicit pedigrees (exact rational arithmetic),
a weighted pick from a plain cumulative scan (:func:`route_select`, the
oracle of :class:`~kinsim.objects.WeightedChoice`'s bisection), the
offspring law's moments from its percentages, and event
schedules for constant-rate generators come from direct multiplication and
sorting rather than an event loop.  The kernel's event
trace, which it writes only as text, is read back with :func:`trace_rows`
and :func:`parse_trace`.
"""

from __future__ import annotations

import io
from fractions import Fraction
from itertools import count
from typing import Any, Sequence

from kinsim import initialize
from kinsim.errors import ConfigurationError

# One trace line: (time, component path, phase, port, payload text).
TraceRow = tuple[float, str, str, str, str]


class Person:
    """Pedigree node; founders have no parents."""

    _ids = count()

    def __init__(self, father: "Person | None" = None, mother: "Person | None" = None):
        self.id = next(self._ids)
        self.father = father
        self.mother = mother

    @property
    def parents(self):
        return [p for p in (self.father, self.mother) if p is not None]

    def ancestors(self) -> set:
        found = set()
        stack = list(self.parents)
        while stack:
            person = stack.pop()
            if person not in found:
                found.add(person)
                stack.extend(person.parents)
        return found


def _paths_up(person: Person, ancestor: Person) -> list[list[Person]]:
    """All upward paths person -> ... -> ancestor (inclusive of both ends)."""
    if person is ancestor:
        return [[person]]
    paths = []
    for parent in person.parents:
        for tail in _paths_up(parent, ancestor):
            paths.append([person] + tail)
    return paths


def pedigree_inbreeding(person: Person) -> Fraction:
    """Inbreeding coefficient by path counting: for every common ancestor A of
    the parents and every pair of ancestral paths meeting only at A, add
    (1/2) ** (n1 + n2 + 1) * (1 + F_A), with n1/n2 the path lengths in edges.
    """
    if person.father is None or person.mother is None:
        return Fraction(0)
    return pedigree_kinship(person.father, person.mother)


def pedigree_kinship(a: Person, b: Person) -> Fraction:
    total = Fraction(0)
    common = (a.ancestors() | {a}) & (b.ancestors() | {b})
    half = Fraction(1, 2)
    for ancestor in common:
        f_anc = pedigree_inbreeding(ancestor)
        for path_a in _paths_up(a, ancestor):
            for path_b in _paths_up(b, ancestor):
                shared = set(path_a) & set(path_b)
                if shared != {ancestor}:
                    continue
                n1 = len(path_a) - 1
                n2 = len(path_b) - 1
                total += half ** (n1 + n2 + 1) * (1 + f_anc)
    return total


def _sibling_pair() -> tuple[Person, Person]:
    grandfather, grandmother = Person(), Person()
    return Person(grandfather, grandmother), Person(grandfather, grandmother)


def unrelated_parents() -> tuple[Person, Person]:
    return Person(), Person()


def first_cousin_parents() -> tuple[Person, Person]:
    s1, s2 = _sibling_pair()
    return Person(s1, Person()), Person(s2, Person())


def second_cousin_parents() -> tuple[Person, Person]:
    c1, c2 = first_cousin_parents()
    return Person(c1, Person()), Person(c2, Person())


def third_cousin_parents() -> tuple[Person, Person]:
    c1, c2 = second_cousin_parents()
    return Person(c1, Person()), Person(c2, Person())


def first_cousin_once_removed_parents() -> tuple[Person, Person]:
    c1, c2 = first_cousin_parents()
    return c1, Person(c2, Person())


def genotype_disorder_probability(q: Fraction, f: Fraction) -> Fraction:
    """Enumerate offspring genotype probabilities with identity-by-descent.

    With probability f both alleles descend from one ancestral copy, which is
    deleterious with probability q; otherwise the two alleles are independent
    draws.  Exact rational arithmetic throughout.
    """
    ibd_affected = f * q
    independent_affected = (1 - f) * q * q
    return ibd_affected + independent_affected


def offspring_moments() -> tuple[Fraction, Fraction]:
    """E[X] and E[X**2] of the default offspring law, in exact arithmetic.

    The law is read from its percentages (10/20/30/30/8/2 for 0 to 5
    children), not from the cumulative pairs that the config holds.
    """
    probs = [Fraction(p, 100) for p in (10, 20, 30, 30, 8, 2)]
    mean = sum(value * p for value, p in enumerate(probs))
    second = sum(value * value * p for value, p in enumerate(probs))
    return mean, second


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


def generator_schedule(
    periods: dict[str, float], select_order: list[str], t_end: float
) -> list[tuple[float, str]]:
    """Hand schedule for independent constant-period generators.

    Event k of generator g fires at k * period(g); simultaneous events order
    by the select ranking.  Computed by multiplication and sorting, not by an
    event loop.
    """
    rank = {name: i for i, name in enumerate(select_order)}
    events = []
    for name, period in periods.items():
        k = 1
        while k * period <= t_end:
            events.append((k * period, rank[name], name))
            k += 1
    events.sort()
    return [(t, name) for t, _, name in events]


def parse_trace(text: str) -> list[TraceRow]:
    """Split the kernel's tab-separated trace text into rows, times as floats."""
    rows = []
    for line in text.splitlines():
        time, component, phase, port, payload = line.split("\t")
        rows.append((float(time), component, phase, port, payload))
    return rows


def trace_rows(model, until: float) -> list[TraceRow]:
    """Run a fresh ``model`` to ``until`` and return its event trace as rows."""
    stream = io.StringIO()
    initialize(model, trace_file=stream).run_until(until)
    return parse_trace(stream.getvalue())
