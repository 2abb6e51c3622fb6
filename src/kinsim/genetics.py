"""Inbreeding coefficients by cousin degree and congenital-disorder risk.

The disorder model is the single-locus recessive homozygote frequency under
inbreeding: a child whose parents have inbreeding coefficient ``f`` is
affected with probability

    p = q**2 + f * q * (1 - q)

where ``q`` is the deleterious allele frequency.  With ``f = 0`` this
collapses to random-mating Hardy-Weinberg (q**2); with ``f = 1`` it reaches
``q``.  The model builder reads ``f`` for the configured degree from
:data:`INBREEDING_COEFFICIENTS` and resolves each branch's ``p`` once, with
:func:`disorder_probability`; its birth trigger
(:func:`kinsim.model.birth_trigger`) then flags each child affected when
one uniform draw falls below ``p``.
"""

from __future__ import annotations

# The parental relationships a config may name, keyed as in its
# ``consanguinity_degree``.  Standard kinship-theory values; all are exact
# binary fractions.  First cousins carry four times the coefficient of
# second cousins, and first cousins once removed half that of full first
# cousins.
INBREEDING_COEFFICIENTS: dict[str, float] = {
    "unrelated": 0.0,
    "third_cousin": 1.0 / 256.0,
    "second_cousin": 1.0 / 64.0,
    "first_cousin_once_removed": 1.0 / 32.0,
    "first_cousin": 1.0 / 16.0,
}


def disorder_probability(allele_frequency: float, inbreeding: float) -> float:
    """Per-birth probability of a recessive congenital disorder.

    Monotone in both arguments; bounded between ``q**2`` and ``q`` for
    arguments in [0, 1].
    """
    q = allele_frequency
    return q * q + inbreeding * q * (1.0 - q)
