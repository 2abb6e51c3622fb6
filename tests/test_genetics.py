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
    INBREEDING_COEFFICIENTS,
    DiscreteDistribution,
    EntityFactory,
    ModelConfig,
    build_consanguinity_model,
    disorder_probability,
    substream,
)
from kinsim.errors import ConfigurationError
from kinsim.model import birth_trigger

F = INBREEDING_COEFFICIENTS

# Every couple has exactly one child.
ONE_CHILD = DiscreteDistribution([(1, 1.0)])


class TestInbreedingTable:
    @pytest.mark.parametrize(
        "degree,parents",
        [
            ("unrelated", unrelated_parents),
            ("first_cousin", first_cousin_parents),
            ("first_cousin_once_removed", first_cousin_once_removed_parents),
            ("second_cousin", second_cousin_parents),
            ("third_cousin", third_cousin_parents),
        ],
    )
    def test_matches_pedigree_path_counting(self, degree, parents):
        father, mother = parents()
        oracle = pedigree_kinship(father, mother)
        assert F[degree] == float(oracle)

    def test_expected_exact_values(self):
        # Every degree, in the order a config's hypothesis strategies draw them.
        assert F == {"unrelated": 0.0, "third_cousin": 1 / 256, "second_cousin": 1 / 64,
                     "first_cousin_once_removed": 1 / 32, "first_cousin": 1 / 16}
        assert list(F) == ["unrelated", "third_cousin", "second_cousin",
                           "first_cousin_once_removed", "first_cousin"]

    def test_first_cousins_carry_four_times_second_cousins(self):
        assert F["first_cousin"] == 4 * F["second_cousin"]

    def test_once_removed_is_half_of_full_first_cousins(self):
        assert F["first_cousin_once_removed"] == F["first_cousin"] / 2

    def test_strictly_ordered_by_closeness(self):
        chain = ["first_cousin", "first_cousin_once_removed", "second_cousin", "third_cousin", "unrelated"]
        values = [F[d] for d in chain]
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
    """The ``affected`` flag the model's birth trigger draws for each child."""

    @staticmethod
    def _children(degree, q, stream, n):
        """The children of ``n`` one-child couples related by ``degree``,
        each flag drawn from ``stream`` at the risk for ``degree`` and ``q``."""
        factory = EntityFactory()
        births = birth_trigger("Child_C", factory, ONE_CHILD, substream(0, 1),
                               disorder_probability(q, F[degree]), stream)
        parent = factory.create("FP")
        return [child for _ in range(n) for child in births(parent)]

    def test_zero_frequency_never_affected(self):
        stream = substream(1, 0)
        for child in self._children("first_cousin", 0.0, stream, 1000):
            assert child.affected is False

    def test_certain_allele_always_affected(self):
        stream = substream(2, 0)
        for child in self._children("unrelated", 1.0, stream, 1000):
            assert child.affected is True

    def _flags(self, seed, degree, q, n=4000):
        """``n`` children's affected flags drawn from one stream."""
        return [child.affected for child in self._children(degree, q, substream(seed, 0), n)]

    def _draws_below(self, seed, p, n=4000):
        """Whether each of the first ``n`` draws of the same stream falls below ``p``."""
        stream = substream(seed, 0)
        return [stream.uniform() < p for _ in range(n)]

    def test_draws_with_the_degree_coefficient(self):
        # At q = 0.5 the second-cousin coefficient 1/64 moves p by 1/256;
        # 4 000 draws put some inside that gap, so f = 0 gives other flags.
        flags = self._flags(3, "second_cousin", 0.5)
        assert flags == self._draws_below(3, disorder_probability(0.5, 1 / 64))
        assert flags != self._draws_below(3, disorder_probability(0.5, 0.0))

    def test_override_bypasses_degree_table(self):
        # The builder resolves the consanguineous branch's f to inbreeding_f
        # when it is set, not to the degree's entry in the table.
        config = ModelConfig(allele_frequency=0.5, consanguinity_degree="first_cousin",
                             inbreeding_f=0.5, base_seed=4,
                             offspring_distribution={"type": "discrete", "pairs": [[1, 1.0]]})
        births = build_consanguinity_model(config).components["Marriage_C"].initial_state.on_processed
        parent = EntityFactory().create("FP")
        flags = [child.affected for _ in range(4000) for child in births(parent)]
        stream = substream(4, 0).named("disorder_consanguineous")
        draws = [stream.uniform() for _ in range(4000)]
        assert flags == [u < disorder_probability(0.5, 0.5) for u in draws]
        assert flags != [u < disorder_probability(0.5, 1 / 16) for u in draws]

    def test_always_consumes_exactly_one_draw(self):
        # Stream alignment must not depend on the configured probabilities.
        a = substream(9, 0)
        b = substream(9, 0)
        self._children("first_cousin", 0.0, a, 1)
        self._children("unrelated", 0.9, b, 1)
        assert a.uniform() == b.uniform()

    def test_empirical_rate_matches_formula(self):
        stream = substream(5, 0)
        q, n = 0.05, 20_000
        p = disorder_probability(q, 1 / 16)
        affected = 0
        for child in self._children("first_cousin", q, stream, n):
            affected += child.affected
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(affected / n - p) <= 3 * sigma

    def test_offspring_law_with_a_negative_count_rejected(self):
        # reserve(-2) would rewind the id counter, and the next entity
        # would reuse an id already given out.
        factory = EntityFactory()
        factory.create("FP")
        with pytest.raises(ConfigurationError, match="offspring counts must be >= 0"):
            birth_trigger("Child_C", factory, DiscreteDistribution([(-2, 0.5), (3, 1.0)]),
                          substream(0, 1), 0.0, substream(0, 0))
        assert factory.created_total == 1
