"""Streams, discrete sampling, and the distribution kit."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kinsim import (
    Constant,
    DiscreteDistribution,
    Exponential,
    RngStream,
    Uniform,
    make_distribution,
    substream,
)
from kinsim.errors import ConfigurationError

# Offspring-per-couple law: 10/20/30/30/8/2 percent for 0..5 children,
# stored in cumulative form.
OFFSPRING_PAIRS = [(0, 0.10), (1, 0.30), (2, 0.60), (3, 0.90), (4, 0.98), (5, 1.00)]
OFFSPRING = DiscreteDistribution(OFFSPRING_PAIRS)


def draws(stream: RngStream, n: int) -> np.ndarray:
    """The next ``n`` uniform draws of ``stream``, as an array."""
    return np.array([stream.uniform() for _ in range(n)])


class FixedStream:
    """A stand-in for an :class:`RngStream` whose every draw is ``u``."""

    def __init__(self, u: float) -> None:
        self.u = u

    def uniform(self) -> float:
        return self.u


def sample_at(dist: DiscreteDistribution, u: float) -> int:
    """What ``dist.sample`` gives when the stream's draw is ``u``."""
    return dist.sample(FixedStream(u))


class TestSampleDiscrete:
    @pytest.mark.parametrize(
        "u,expected",
        [
            (0.0, 0),
            (0.05, 0),
            (0.10, 1),  # boundary goes to the next entry: u < cum_prob is strict
            (0.25, 1),
            (0.30, 2),
            (0.59, 2),
            (0.89, 3),
            (0.95, 4),
            (0.979, 4),
            (0.98, 5),
            (0.999, 5),
        ],
    )
    def test_cumulative_scan(self, u, expected):
        assert sample_at(OFFSPRING, u) == expected

    def test_largest_draw_gives_the_last_value(self):
        # A stream's draws are below 1, and the largest, 1 - 2**-53, still
        # lies below the closing cumulative probability of exactly 1.0.
        assert sample_at(OFFSPRING, 1.0 - 2.0 ** -53) == 5
        assert sample_at(DiscreteDistribution([(0, 0.5), (1, 1.0 - 5e-13)]), 1.0 - 2.0 ** -53) == 1

    def test_single_entry_always_selected(self):
        dist = DiscreteDistribution([(7, 1.0)])
        for u in (0.0, 0.3, 0.999999):
            assert sample_at(dist, u) == 7

    @given(st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False))
    def test_matches_searchsorted(self, u):
        # Cross-check against numpy's independent inverse-CDF lookup.
        expected = OFFSPRING.values[int(np.searchsorted(OFFSPRING.cum_probs, u, side="right"))]
        assert sample_at(OFFSPRING, u) == expected

    @given(
        st.floats(min_value=0.0, max_value=0.999999, allow_nan=False),
        st.floats(min_value=0.0, max_value=0.999999, allow_nan=False),
    )
    def test_monotone_in_u(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert sample_at(OFFSPRING, lo) <= sample_at(OFFSPRING, hi)


class TestDiscreteValidation:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            DiscreteDistribution([])

    def test_rejects_non_increasing(self):
        with pytest.raises(ConfigurationError):
            DiscreteDistribution([(0, 0.5), (1, 0.5), (2, 1.0)])

    def test_rejects_short_total(self):
        with pytest.raises(ConfigurationError):
            DiscreteDistribution([(0, 0.5), (1, 0.9)])

    def test_rejects_duplicate_values(self):
        with pytest.raises(ConfigurationError):
            DiscreteDistribution([(1, 0.5), (1, 1.0)])

    def test_rejects_fractional_values(self):
        with pytest.raises(ConfigurationError):
            DiscreteDistribution([(0.5, 1.0)])

    @pytest.mark.parametrize("value", [Fraction(3, 2), np.float32(1.5), np.float32("inf")])
    def test_rejects_fractional_values_of_any_real_type(self, value):
        # Each once read as 1, or raised OverflowError, since only a float's
        # fraction was looked at.
        with pytest.raises(ConfigurationError, match="expected an integer"):
            DiscreteDistribution([(value, 1.0)])

    def test_normalizes_tiny_closing_deficit(self):
        dist = DiscreteDistribution([(0, 0.4), (1, 1.0 - 5e-13)])
        assert dist.cum_probs[-1] == 1.0

    def test_empirical_frequencies_within_3_sigma(self):
        n = 100_000
        us = draws(substream(777, 0), n)
        counts = np.bincount(np.searchsorted(OFFSPRING.cum_probs, us, side="right"), minlength=6)
        previous = 0.0
        for i, cum in enumerate(OFFSPRING.cum_probs):
            p = cum - previous
            previous = cum
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[i] / n - p) <= 3 * sigma
        # and the scalar sampler agrees with the vectorized tally pointwise
        for u in us[:2000]:
            expected = OFFSPRING.values[int(np.searchsorted(OFFSPRING.cum_probs, u, side="right"))]
            assert sample_at(OFFSPRING, float(u)) == expected


class TestStreams:
    def test_same_seed_same_sequence(self):
        a = substream(1234, 0)
        b = substream(1234, 0)
        assert np.array_equal(draws(a, 1000), draws(b, 1000))

    def test_distinct_replications_differ(self):
        a = draws(substream(1234, 0), 10_000)
        b = draws(substream(1234, 1), 10_000)
        assert not np.array_equal(a, b)

    def test_ten_replications_reproducible(self):
        first = [substream(99, r).uniform() for r in range(10)]
        second = [substream(99, r).uniform() for r in range(10)]
        assert first == second
        assert len(set(first)) == 10  # streams are pairwise distinct in practice

    def test_named_streams_differ_from_root_and_each_other(self):
        root = substream(5, 0)
        a = root.named("offspring")
        b = root.named("disorder")
        assert a.seed != b.seed
        assert not np.array_equal(draws(a, 100), draws(b, 100))

    def test_named_streams_deterministic(self):
        assert substream(5, 3).named("x").uniform() == substream(5, 3).named("x").uniform()

    def test_negative_replication_rejected(self):
        with pytest.raises(ConfigurationError):
            substream(1, -1)

    def test_buffered_uniform_is_the_scalar_sequence(self):
        # 1 000 draws one at a time are numpy's one vector call.
        stream = RngStream(2024)
        draws = [stream.uniform() for _ in range(1000)]
        assert draws == np.random.Generator(np.random.PCG64(2024)).random(1000).tolist()

    def test_uniform_range(self):
        stream = substream(2, 0)
        samples = draws(stream, 10_000)
        assert samples.min() >= 0.0 and samples.max() < 1.0


def numpy_draws(seed: int, n: int) -> list[float]:
    """The first ``n`` doubles of numpy's own PCG64 at ``seed``: the oracle."""
    return np.random.Generator(np.random.PCG64(seed)).random(n).tolist()


SEEDS_64 = st.integers(min_value=0, max_value=2**64 - 1)
# Draw counts up to 600, past any batch a generator might compute ahead.
DRAW_COUNTS = st.integers(min_value=1, max_value=600)


class TestNumpyPcg64Bits:
    """A stream is numpy's ``Generator(PCG64(seed)).random()``, bit for bit."""

    @given(SEEDS_64, DRAW_COUNTS)
    # the 32-bit word boundaries of numpy's seed hash
    @example(0, 600)
    @example(2**32 - 1, 256)
    @example(2**32, 257)
    @example(2**64 - 1, 513)
    def test_stream(self, seed, n):
        stream = RngStream(seed)
        assert draws(stream, n).tolist() == numpy_draws(seed, n)

    @given(SEEDS_64, st.text(max_size=20), DRAW_COUNTS)
    def test_named_stream(self, seed, name, n):
        stream = RngStream(seed).named(name)
        assert draws(stream, n).tolist() == numpy_draws(stream.seed, n)

    @given(SEEDS_64, st.integers(min_value=0, max_value=10_000), DRAW_COUNTS)
    def test_substream(self, base_seed, replication, n):
        stream = substream(base_seed, replication)
        assert draws(stream, n).tolist() == numpy_draws(stream.seed, n)

    @given(SEEDS_64, st.integers(min_value=0, max_value=600))
    def test_state_after_n_draws(self, seed, n):
        # a stream computes no double ahead of the ones drawn
        stream = RngStream(seed)
        draws(stream, n)
        generator = np.random.Generator(np.random.PCG64(seed))
        generator.random(n)
        assert {"state": stream._state, "inc": stream._inc} == generator.bit_generator.state["state"]


class TestDistributions:
    def test_constant_consumes_no_randomness(self):
        stream = RngStream(31)
        Constant(4.0).sample(stream)
        assert stream.uniform() == RngStream(31).uniform()

    def test_exponential_inverse_cdf(self):
        stream_a = RngStream(7)
        stream_b = RngStream(7)
        sample = Exponential(3.0).sample(stream_a)
        assert sample == -3.0 * math.log(1.0 - stream_b.uniform())

    def test_exponential_mean_within_3_sigma(self):
        n, mean = 20_000, 2.5
        stream = RngStream(11)
        total = sum(Exponential(mean).sample(stream) for _ in range(n))
        assert abs(total / n - mean) <= 3 * mean / math.sqrt(n)

    def test_uniform_bounds(self):
        stream = RngStream(3)
        dist = Uniform(2.0, 5.0)
        for _ in range(100):
            assert 2.0 <= dist.sample(stream) < 5.0

    def test_uniform_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            Uniform(5.0, 2.0)

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ConfigurationError):
            Exponential(0.0)


class TestDistributionConfig:
    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            make_distribution({"type": "zipf", "s": 2})

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigurationError):
            make_distribution({"type": "constant"})

    @pytest.mark.parametrize("config", [
        {"type": "constant", "value": math.nan},
        {"type": "constant", "value": math.inf},
        {"type": "uniform", "low": -math.inf, "high": 0.0},
        {"type": "uniform", "low": 0.0, "high": math.inf},
        {"type": "exponential", "mean": math.nan},
        {"type": "exponential", "mean": math.inf},
    ])
    def test_nonfinite_parameter_rejected(self, config):
        with pytest.raises(ConfigurationError, match="must be finite"):
            make_distribution(config)

    @pytest.mark.parametrize("config", [
        {"type": "constant", "value": True},
        {"type": "exponential", "mean": "1.0"},
        {"type": "discrete", "pairs": [["2", "1.0"]]},
        {"type": "discrete", "pairs": [[True, 1.0]]},
        {"type": "discrete", "pairs": [[2, False], [3, 1.0]]},
        {"type": "constant", "value": 10**400},
    ])
    def test_non_number_parameter_rejected(self, config):
        with pytest.raises(ConfigurationError, match="expected a number"):
            make_distribution(config)

    def test_missing_type_rejected(self):
        with pytest.raises(ConfigurationError):
            make_distribution({"value": 1.0})
