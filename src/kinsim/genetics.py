"""Inbreeding coefficients by cousin degree and congenital-disorder risk.

The disorder model is the single-locus recessive homozygote frequency under
inbreeding: a child whose parents have inbreeding coefficient ``f`` is
affected with probability

    p = q**2 + f * q * (1 - q)

where ``q`` is the deleterious allele frequency.  With ``f = 0`` this
collapses to random-mating Hardy-Weinberg (q**2); with ``f = 1`` it reaches
``q``.  The model resolves each branch's ``p`` once, with
:func:`disorder_risk`, when it is built; its birth trigger
(:func:`kinsim.model.birth_trigger`) then flags each child affected when
one uniform draw falls below ``p``.  This is deliberately the minimal
standard realization and the main extension point of the package: swap
:func:`disorder_probability` (or pass a different trigger to the marriage
combiners) to study multi-locus or multifactorial risk models.
"""

from __future__ import annotations

from enum import Enum


class ConsanguinityDegree(str, Enum):
    """Closed set of parental relationships distinguished by the model."""

    UNRELATED = "unrelated"
    THIRD_COUSIN = "third_cousin"
    SECOND_COUSIN = "second_cousin"
    FIRST_COUSIN_ONCE_REMOVED = "first_cousin_once_removed"
    FIRST_COUSIN = "first_cousin"


# Standard kinship-theory values; all are exact binary fractions.  First
# cousins carry four times the coefficient of second cousins, and first
# cousins once removed half that of full first cousins.
INBREEDING_COEFFICIENTS: dict[ConsanguinityDegree, float] = {
    ConsanguinityDegree.UNRELATED: 0.0,
    ConsanguinityDegree.THIRD_COUSIN: 1.0 / 256.0,
    ConsanguinityDegree.SECOND_COUSIN: 1.0 / 64.0,
    ConsanguinityDegree.FIRST_COUSIN_ONCE_REMOVED: 1.0 / 32.0,
    ConsanguinityDegree.FIRST_COUSIN: 1.0 / 16.0,
}


def inbreeding_coefficient(degree: ConsanguinityDegree) -> float:
    """Probability that the two alleles of an offspring are identical by descent."""
    return INBREEDING_COEFFICIENTS[degree]


def disorder_probability(allele_frequency: float, inbreeding: float) -> float:
    """Per-birth probability of a recessive congenital disorder.

    Monotone in both arguments; bounded between ``q**2`` and ``q`` for
    arguments in [0, 1].
    """
    q = allele_frequency
    return q * q + inbreeding * q * (1.0 - q)


def disorder_risk(
    degree: ConsanguinityDegree,
    allele_frequency: float,
    *,
    inbreeding_override: float | None = None,
) -> float:
    """Per-birth disorder probability of a child of parents related by ``degree``.

    ``inbreeding_override``, when not None, is ``f``; otherwise ``f`` is the
    coefficient of ``degree``.
    """
    f = inbreeding_coefficient(degree) if inbreeding_override is None else inbreeding_override
    return disorder_probability(allele_frequency, f)
