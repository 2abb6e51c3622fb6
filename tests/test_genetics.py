"""Inbreeding table and disorder-probability checks against exact oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import (
    first_cousin_once_removed_parents,
    first_cousin_parents,
    genotype_disorder_probability,
    pedigree_kinship,
    second_cousin_parents,
    third_cousin_parents,
    unrelated_parents,
)
from kinsim import (
    ConsanguinityDegree,
    EntityFactory,
    assign_disorder,
    disorder_probability,
    inbreeding_coefficient,
    substream,
)

D = ConsanguinityDegree


class TestInbreedingTable:
    @pytest.mark.parametrize(
        "degree,parents",
        [
            (D.UNRELATED, unrelated_parents),
            (D.FIRST_COUSIN, first_cousin_parents),
            (D.FIRST_COUSIN_ONCE_REMOVED, first_cousin_once_removed_parents),
            (D.SECOND_COUSIN, second_cousin_parents),
            (D.THIRD_COUSIN, third_cousin_parents),
        ],
    )
    def test_matches_pedigree_path_counting(self, degree, parents):
        father, mother = parents()
        oracle = pedigree_kinship(father, mother)
        assert inbreeding_coefficient(degree) == float(oracle)

    def test_expected_exact_values(self):
        assert inbreeding_coefficient(D.FIRST_COUSIN) == 1 / 16
        assert inbreeding_coefficient(D.FIRST_COUSIN_ONCE_REMOVED) == 1 / 32
        assert inbreeding_coefficient(D.SECOND_COUSIN) == 1 / 64
        assert inbreeding_coefficient(D.THIRD_COUSIN) == 1 / 256
        assert inbreeding_coefficient(D.UNRELATED) == 0.0

    def test_first_cousins_carry_four_times_second_cousins(self):
        assert inbreeding_coefficient(D.FIRST_COUSIN) == 4 * inbreeding_coefficient(D.SECOND_COUSIN)

    def test_once_removed_is_half_of_full_first_cousins(self):
        assert inbreeding_coefficient(D.FIRST_COUSIN_ONCE_REMOVED) == inbreeding_coefficient(D.FIRST_COUSIN) / 2

    def test_strictly_ordered_by_closeness(self):
        chain = [D.FIRST_COUSIN, D.FIRST_COUSIN_ONCE_REMOVED, D.SECOND_COUSIN, D.THIRD_COUSIN, D.UNRELATED]
        values = [inbreeding_coefficient(d) for d in chain]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)


class TestDisorderProbability:
    def test_random_mating_collapses_to_q_squared(self):
        for q in (0.0, 0.01, 0.3, 0.5, 1.0):
            assert disorder_probability(q, 0.0) == q * q

    def test_full_inbreeding_reaches_q(self):
        # Dyadic arguments keep the float arithmetic exact.
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert disorder_probability(q, 1.0) == q

    def test_first_cousin_value_from_genotype_enumeration(self):
        oracle = genotype_disorder_probability(Fraction(1, 100), Fraction(1, 16))
        assert oracle == Fraction(115, 160_000)
        assert float(oracle) == 0.00071875
        assert disorder_probability(0.01, 1 / 16) == pytest.approx(0.00071875, rel=1e-12)

    def test_rare_allele_relative_risk_exceeds_60(self):
        q = 0.001
        ratio = disorder_probability(q, 1 / 16) / (q * q)
        assert ratio > 60

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_bounded_between_q_squared_and_q(self, q, f):
        p = disorder_probability(q, f)
        assert q * q <= p <= q + 4 * math.ulp(max(q, 1e-300))

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_monotone_in_inbreeding(self, q, f1, f2):
        lo, hi = min(f1, f2), max(f1, f2)
        assert disorder_probability(q, lo) <= disorder_probability(q, hi)


class TestAssignDisorder:
    def _child(self, factory, label="Child_C"):
        return factory.create(label)

    def test_zero_frequency_never_affected(self):
        factory = EntityFactory()
        stream = substream(1, 0)
        for _ in range(1000):
            child = assign_disorder(self._child(factory), D.FIRST_COUSIN, 0.0, stream)
            assert child.affected is False

    def test_certain_allele_always_affected(self):
        factory = EntityFactory()
        stream = substream(2, 0)
        for _ in range(1000):
            child = assign_disorder(self._child(factory), D.UNRELATED, 1.0, stream)
            assert child.affected is True

    def _flags(self, seed, degree, q, n=4000, **kwargs):
        """``n`` children's affected flags drawn from one stream."""
        factory, stream = EntityFactory(), substream(seed, 0)
        return [assign_disorder(self._child(factory), degree, q, stream, **kwargs).affected
                for _ in range(n)]

    def _draws_below(self, seed, p, n=4000):
        """Whether each of the first ``n`` draws of the same stream falls below ``p``."""
        stream = substream(seed, 0)
        return [stream.uniform() < p for _ in range(n)]

    def test_draws_with_the_degree_coefficient(self):
        # At q = 0.5 the second-cousin coefficient 1/64 moves p by 1/256;
        # 4 000 draws put some inside that gap, so f = 0 gives other flags.
        flags = self._flags(3, D.SECOND_COUSIN, 0.5)
        assert flags == self._draws_below(3, disorder_probability(0.5, 1 / 64))
        assert flags != self._draws_below(3, disorder_probability(0.5, 0.0))

    def test_override_bypasses_degree_table(self):
        flags = self._flags(4, D.FIRST_COUSIN, 0.5, inbreeding_override=0.5)
        assert flags == self._draws_below(4, disorder_probability(0.5, 0.5))
        assert flags != self._draws_below(4, disorder_probability(0.5, 1 / 16))

    def test_always_consumes_exactly_one_draw(self):
        # Stream alignment must not depend on the configured probabilities.
        factory = EntityFactory()
        a = substream(9, 0)
        b = substream(9, 0)
        assign_disorder(self._child(factory), D.FIRST_COUSIN, 0.0, a)
        assign_disorder(self._child(factory), D.UNRELATED, 0.9, b)
        assert a.uniform() == b.uniform()

    def test_empirical_rate_matches_formula(self):
        factory = EntityFactory()
        stream = substream(5, 0)
        q, n = 0.05, 20_000
        p = disorder_probability(q, 1 / 16)
        affected = 0
        for _ in range(n):
            child = assign_disorder(self._child(factory), D.FIRST_COUSIN, q, stream)
            affected += child.affected
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(affected / n - p) <= 3 * sigma
