"""Seeded random streams and the distribution kit used by the process objects.

Reproducibility contract
------------------------
Every stream is a :class:`RngStream` wrapping numpy's PCG64 bit generator,
which is documented, high quality, and bit-stable across platforms.  Stream
seeds are derived with the SplitMix64 finalizer (Steele, Lea & Flood 2014;
the same mixer used by ``java.util.SplittableRandom``), so

* the same base seed always yields the same sample sequences, and
* distinct replication indices or stream names yield well-separated seeds.

Each stochastic decision point in a model owns its own named stream
(interarrivals, sex split, branch routing, offspring counts, disorder
draws).  Changing one distribution therefore never perturbs the draws of
another, which keeps paired experiments comparable.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import ConfigurationError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15

#: Cumulative-probability tolerance: the final entry of a discrete table may
#: miss 1.0 by at most this much before the table is rejected.
CUM_PROB_TOLERANCE = 1e-12


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a documented, invertible 64-bit mix."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _hash_name(name: str) -> int:
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_seed(base_seed: int, *components: Union[int, str]) -> int:
    """Mix a base seed with integer or string components into a 64-bit seed."""
    seed = _mix64(base_seed)
    for component in components:
        value = _hash_name(component) if isinstance(component, str) else int(component)
        seed = _mix64((seed + _GAMMA) ^ value)
    return seed


class RngStream:
    """One deterministic 64-bit random stream (PCG64).

    A stream is owned by exactly one replication; equal seeds produce
    identical sample sequences on every platform.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self) -> float:
        """Next sample, uniform on [0, 1)."""
        return self._gen.random()

    def uniforms(self, n: int) -> np.ndarray:
        """Vector of ``n`` uniform [0, 1) samples."""
        return self._gen.random(n)

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


# ---------------------------------------------------------------------------
# Distributions


@dataclass(frozen=True, slots=True)
class Constant:
    """Degenerate distribution; draws nothing from the stream."""

    value: float

    def sample(self, stream: RngStream) -> float:
        return self.value

    @property
    def mean(self) -> float:
        return self.value

    @property
    def support(self) -> tuple[float, float]:
        """The least and the greatest value a draw can take."""
        return self.value, self.value


@dataclass(frozen=True, slots=True)
class Uniform:
    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low <= self.high:
            raise ConfigurationError(f"uniform distribution needs low <= high, got [{self.low}, {self.high}]")

    def sample(self, stream: RngStream) -> float:
        return self.low + (self.high - self.low) * stream.uniform()

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def support(self) -> tuple[float, float]:
        return self.low, self.high


@dataclass(frozen=True, slots=True)
class Exponential:
    """Exponential with the given mean, sampled by inverse CDF."""

    mean: float

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ConfigurationError(f"exponential mean must be positive, got {self.mean}")

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
            if isinstance(value, float) and not value.is_integer():
                raise ConfigurationError(f"discrete values must be integers, got {value!r}")
            values.append(int(value))
            cums.append(float(cum))
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
        return sample_discrete(self, stream.uniform())

    @property
    def mean(self) -> float:
        return mean_of(self)

    @property
    def support(self) -> tuple[int, int]:
        return min(self.values), max(self.values)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{v}:{c}" for v, c in zip(self.values, self.cum_probs))
        return f"DiscreteDistribution({pairs})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiscreteDistribution)
            and self.values == other.values
            and self.cum_probs == other.cum_probs
        )


def sample_discrete(dist: DiscreteDistribution, u: float) -> int:
    """Value of the first entry whose cumulative probability exceeds ``u``.

    This is the right-continuous inverse of the CDF: monotone non-decreasing
    in ``u`` on [0, 1).
    """
    i = bisect_right(dist.cum_probs, u)
    if i >= len(dist.values):  # only reachable for u >= 1, outside the contract
        i = len(dist.values) - 1
    return dist.values[i]


def mean_of(dist: DiscreteDistribution) -> float:
    """Expected value: sum of value * (cum prob - previous cum prob)."""
    total = 0.0
    previous = 0.0
    for value, cum in zip(dist.values, dist.cum_probs):
        total += value * (cum - previous)
        previous = cum
    return total


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
    value = float(config[key])
    if not math.isfinite(value):
        raise ConfigurationError(f"distribution parameter {key!r} must be finite, got {value}")
    return value


def distribution_config(dist: Distribution) -> dict:
    """Inverse of :func:`make_distribution`, for config echo and round trips."""
    if isinstance(dist, Constant):
        return {"type": "constant", "value": dist.value}
    if isinstance(dist, Uniform):
        return {"type": "uniform", "low": dist.low, "high": dist.high}
    if isinstance(dist, Exponential):
        return {"type": "exponential", "mean": dist.mean}
    if isinstance(dist, DiscreteDistribution):
        return {"type": "discrete", "pairs": [[v, c] for v, c in zip(dist.values, dist.cum_probs)]}
    raise ConfigurationError(f"not a distribution: {dist!r}")
