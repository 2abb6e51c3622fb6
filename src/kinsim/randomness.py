"""Seeded random streams and the distribution kit used by the process objects.

Reproducibility contract
------------------------
Every stream is a :class:`RngStream`: a self-contained PCG64 generator
(O'Neill 2014; 128-bit LCG state, XSL-RR output) seeded the way numpy's
``SeedSequence`` seeds it, so the stream of seed ``s`` is bit for bit
``numpy.random.Generator(numpy.random.PCG64(s)).random()``, on every
platform, without numpy.  Each draw steps the generator once and computes
that one double, so a stream computes nothing ahead of what is asked of
it.  Stream seeds are derived with the SplitMix64 finalizer (Steele, Lea &
Flood 2014; the same mixer used by ``java.util.SplittableRandom``), so

* the same base seed always yields the same sample sequences, and
* distinct replication indices or stream names yield well-separated seeds.

Each stochastic decision point in a model owns its own named stream
(interarrivals, sex split, branch routing, offspring counts, disorder
draws).  Changing one distribution therefore never perturbs the draws of
another, which keeps paired experiments comparable.
"""

from __future__ import annotations

import math
import numbers
# hashlib's own blake2b, without the OpenSSL digests that importing hashlib loads
from _blake2 import blake2b
from bisect import bisect_right
from contextlib import suppress
from typing import Iterable, Mapping, Sequence, Union

from ._record import FrozenRecord
from .errors import ConfigurationError

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_GAMMA = 0x9E3779B97F4A7C15

#: Cumulative-probability tolerance: the final entry of a discrete table may
#: miss 1.0 by at most this much before the table is rejected.
CUM_PROB_TOLERANCE = 1e-12

# PCG64's 128-bit LCG multiplier (O'Neill 2014).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# The constants of one double: 2⁶⁴ + 1, 53 low bits and 2⁻⁵³.
_DOUBLED = (1 << 64) + 1
_MASK53 = (1 << 53) - 1
_SCALE = 2.0 ** -53


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a documented, invertible 64-bit mix."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _hash_name(name: str) -> int:
    digest = blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_seed(base_seed: int, *components: Union[int, str]) -> int:
    """Mix a base seed with integer or string components into a 64-bit seed."""
    seed = _mix64(base_seed)
    for component in components:
        value = _hash_name(component) if isinstance(component, str) else int(component)
        seed = _mix64((seed + _GAMMA) ^ value)
    return seed


def _pcg64_seeded(seed: int) -> tuple[int, int]:
    """PCG64's (state, increment) after numpy's ``PCG64(seed)``, 0 <= seed < 2⁶⁴.

    numpy hashes the seed with ``SeedSequence``: the seed's 32-bit words,
    least significant first, are mixed into a pool of four words, and
    ``generate_state(4, uint64)`` draws eight words from the pool, paired
    low word first.  PCG64's set-seed then takes the first two as the
    initial state and the last two as the stream selector.
    """
    words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]

    hash_const = 0x43B0D7E5  # INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32  # MULT_A
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32  # MIX_MULT_L, MIX_MULT_R
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in words + [0] * (4 - len(words))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    hash_const = 0x8B51F9DD  # INIT_B
    state_words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32  # MULT_B
        value = (value * hash_const) & _MASK32
        state_words.append(value ^ (value >> 16))
    w0, w1, w2, w3 = (state_words[i] | state_words[i + 1] << 32 for i in range(0, 8, 2))

    # Set-seed: inc = 2·initseq + 1; from state 0, step, add initstate, step.
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
    return state, inc


class RngStream:
    """One deterministic 64-bit random stream: PCG64 with numpy's seeding.

    A stream is owned by exactly one replication.  ``RngStream(s)`` gives
    the doubles of ``numpy.random.Generator(numpy.random.PCG64(s)).random()``
    bit for bit, on every platform, but needs no numpy.

    :meth:`uniform`, the one reader of the generator, steps the LCG once
    per double, so the state after ``n`` draws is numpy's after ``random(n)``.
    """

    __slots__ = ("seed", "_state", "_inc")

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK64
        self._state, self._inc = _pcg64_seeded(self.seed)

    def uniform(self) -> float:
        """Next sample, uniform on [0, 1)."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        # XSL-RR: fold the high half onto the low, rotate right by the top 6
        # bits.  x·(2⁶⁴ + 1) holds two copies of the 64-bit x, so one shift
        # of it rotates x; shifting 11 further keeps the double's 53 bits.
        x = (state ^ state >> 64) & _MASK64
        return ((x * _DOUBLED) >> ((state >> 122) + 11) & _MASK53) * _SCALE

    def named(self, name: str) -> "RngStream":
        """Child stream for one named decision point, derived from this seed."""
        return RngStream(derive_seed(self.seed, name))

    def __repr__(self) -> str:
        return f"RngStream(seed=0x{self.seed:016x})"


def substream(base_seed: int, replication_index: int) -> RngStream:
    """Root stream of one replication.

    Deterministic and collision resistant: the pair (base seed, index) is
    pushed through :func:`derive_seed`, so distinct indices give unrelated
    streams while repeated calls reproduce the same one.
    """
    if replication_index < 0:
        raise ConfigurationError(f"replication_index must be >= 0, got {replication_index}")
    return RngStream(derive_seed(base_seed, replication_index))


def read_number(value, *, integral: bool = False) -> Union[float, int]:
    """A number read from a config: a float, or with ``integral`` an int.

    Only a real number is a number here: a string or ``true``/``false``
    raises TypeError.  An ``integral`` value unequal to its ``int`` (a
    fraction, NaN, an infinity), and an integer too large for a float where
    a float is read, raise ValueError.  The messages name the value's type,
    not the value, so a caller whose own message names the value names it once.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    if integral:
        with suppress(OverflowError, ValueError):
            count = int(value)
            if count == value:
                return count
        raise ValueError("expected an integer")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("expected a number within the range of a float") from None


# ---------------------------------------------------------------------------
# Distributions


class Constant(FrozenRecord):
    """Degenerate distribution; draws nothing from the stream."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        super().__init__(value)

    def sample(self, stream: RngStream) -> float:
        return self.value

    @property
    def support(self) -> tuple[float, float]:
        """The least and the greatest value a draw can take."""
        return self.value, self.value


class Uniform(FrozenRecord):
    __slots__ = ("low", "high")

    def __init__(self, low: float, high: float) -> None:
        if not low <= high:
            raise ConfigurationError(f"uniform distribution needs low <= high, got [{low}, {high}]")
        super().__init__(low, high)

    def sample(self, stream: RngStream) -> float:
        return self.low + (self.high - self.low) * stream.uniform()

    @property
    def support(self) -> tuple[float, float]:
        return self.low, self.high


class Exponential(FrozenRecord):
    """Exponential with the given mean, sampled by inverse CDF."""

    __slots__ = ("mean",)

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise ConfigurationError(f"exponential mean must be positive, got {mean}")
        super().__init__(mean)

    def sample(self, stream: RngStream) -> float:
        return -self.mean * math.log(1.0 - stream.uniform())

    @property
    def support(self) -> tuple[float, float]:
        return 0.0, math.inf


class DiscreteDistribution:
    """Integer-valued distribution given as (value, cumulative probability) pairs.

    The cumulative probabilities must be strictly increasing, lie in (0, 1],
    and end at 1.0 (a closing deficit of at most ``CUM_PROB_TOLERANCE`` is
    normalized away); values must be distinct integers.
    """

    __slots__ = ("values", "cum_probs")

    def __init__(self, entries: Iterable[tuple[int, float]]) -> None:
        pairs = list(entries)
        if not pairs:
            raise ConfigurationError("discrete distribution needs at least one entry")
        values = []
        cums = []
        for value, cum in pairs:
            try:
                values.append(read_number(value, integral=True))
                cums.append(read_number(cum))
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"discrete entries must be (integer, number) pairs, got {[value, cum]!r}: {exc}"
                ) from None
        if len(set(values)) != len(values):
            raise ConfigurationError(f"discrete values must be distinct, got {values}")
        previous = 0.0
        for cum in cums:
            if not previous < cum <= 1.0 + CUM_PROB_TOLERANCE:
                raise ConfigurationError(
                    f"cumulative probabilities must increase strictly within (0, 1], got {cums}"
                )
            previous = cum
        if abs(cums[-1] - 1.0) > CUM_PROB_TOLERANCE:
            raise ConfigurationError(
                f"cumulative probabilities must end at 1.0 (within {CUM_PROB_TOLERANCE}), got {cums[-1]!r}"
            )
        cums[-1] = 1.0
        self.values: tuple[int, ...] = tuple(values)
        self.cum_probs: tuple[float, ...] = tuple(cums)

    def sample(self, stream: RngStream) -> int:
        """Value of the first entry whose cumulative probability exceeds a
        uniform draw ``u``: the right-continuous inverse of the CDF, monotone
        non-decreasing in ``u``.  ``u`` is below 1 and ``cum_probs`` ends at
        exactly 1.0, so some entry always exceeds it."""
        return self.values[bisect_right(self.cum_probs, stream.uniform())]

    @property
    def support(self) -> tuple[int, int]:
        return min(self.values), max(self.values)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{v}:{c}" for v, c in zip(self.values, self.cum_probs))
        return f"DiscreteDistribution({pairs})"


Distribution = Union[Constant, Uniform, Exponential, DiscreteDistribution]


def make_distribution(config: Mapping) -> Distribution:
    """Build a distribution from its config form.

    Accepted shapes:
      {"type": "constant", "value": x}
      {"type": "uniform", "low": a, "high": b}
      {"type": "exponential", "mean": m}
      {"type": "discrete", "pairs": [[value, cum_prob], ...]}
    """
    try:
        kind = config["type"]
    except (TypeError, KeyError):
        raise ConfigurationError(f"distribution config needs a 'type' key, got {config!r}") from None
    try:
        if kind == "constant":
            return Constant(_finite(config, "value"))
        if kind == "uniform":
            return Uniform(_finite(config, "low"), _finite(config, "high"))
        if kind == "exponential":
            return Exponential(_finite(config, "mean"))
        if kind == "discrete":
            pairs: Sequence = config["pairs"]
            return DiscreteDistribution((v, c) for v, c in pairs)
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad distribution config {config!r}: {exc}") from exc
    raise ConfigurationError(f"unknown distribution type {kind!r}")


def _finite(config: Mapping, key: str) -> float:
    # JSON admits NaN and Infinity; either as a time parameter stalls a run.
    value = read_number(config[key])
    if not math.isfinite(value):
        raise ConfigurationError(f"distribution parameter {key!r} must be finite, got {value}")
    return value
