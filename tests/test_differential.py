"""Checks of the consanguinity model that do not trust its own event loop.

* Differential: ``kinbench/reference.py`` derives a replication's report
  counts straight from the named random streams, with numpy and no kinsim
  code.  Over random valid zero-delay configs, every row of
  :func:`collect_run_stats` and every affected count must equal it, and
  so must every aggregate row (Total, Mean, Min, Max) over several
  replications.  Every stream seed :func:`derive_seed` mixes, from any
  64-bit base and any integer or text parts, must equal the reference's,
  whose name hash is hashlib's.
* Metamorphic, from common random numbers: each decision draws from its
  own named stream and the disorder draw never steers the flow, so at a
  fixed seed the genetics parameters cannot move any report count, and
  raising q or f can only add affected births.
* Conservation at any step: after any number of kernel steps, also inside
  a zero-time cascade of marriages and births, every individual created is
  destroyed or held.
"""

from __future__ import annotations

import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import report_bytes
from kinsim import (
    INBREEDING_COEFFICIENTS,
    ModelConfig,
    build_consanguinity_model,
    collect_run_stats,
    initialize,
    run_experiment,
)
from kinsim.randomness import derive_seed

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "kinbench"))
import reference  # noqa: E402  (kinbench/reference.py, imports no kinsim code)


@st.composite
def offspring_tables(draw):
    """A discrete offspring law: distinct counts with strictly rising cumulative probabilities."""
    values = draw(st.lists(st.integers(0, 8), min_size=1, max_size=6, unique=True))
    cums = sorted(draw(st.lists(
        st.floats(0.01, 0.99), min_size=len(values) - 1, max_size=len(values) - 1, unique=True,
    )))
    return {"type": "discrete", "pairs": [[v, c] for v, c in zip(values, cums + [1.0])]}


weights = st.floats(0.05, 100.0)
interarrivals = st.one_of(
    st.builds(lambda v: {"type": "constant", "value": v}, st.floats(0.2, 4.0)),
    st.builds(lambda m: {"type": "exponential", "mean": m}, st.floats(0.2, 4.0)),
)


@st.composite
def configs(draw) -> ModelConfig:
    config = ModelConfig()
    config.base_seed = draw(st.integers(0, 2**32 - 1))
    config.run_length = draw(st.floats(1.0, 300.0))
    config.sources["WP"]["interarrival"] = draw(interarrivals)
    male = draw(st.floats(0.01, 0.99))
    config.sex_split = {"male": male, "female": 1.0 - male}
    config.routing_weights = {
        sex: {"consanguineous": draw(weights), "non_consanguineous": draw(weights)}
        for sex in ("male", "female")
    }
    config.offspring_distribution = draw(offspring_tables())
    config.allele_frequency = draw(st.floats(0.0, 1.0))
    config.inbreeding_f = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
    config.consanguinity_degree = draw(st.sampled_from(list(INBREEDING_COEFFICIENTS)))
    return config


@settings(max_examples=300, deadline=None)
@given(base=st.integers(0, 2**64 - 1),
       parts=st.lists(st.one_of(st.integers(0, 2**64 - 1), st.text()), max_size=4))
def test_derive_seed_equals_the_reference(base, parts):
    assert derive_seed(base, *parts) == reference.stream_seed(base, *parts)


@settings(max_examples=150, deadline=None)
@given(config=configs())
def test_replication_zero_equals_the_reference(config):
    handle = initialize(build_consanguinity_model(config, 0))
    handle.run_until(config.run_length)
    stats = collect_run_stats(handle)
    expected = reference.replicate(config.to_dict(), 0)
    rows = {(name, source): (category, value) for name, source, category, value in stats.rows}
    assert len(rows) == len(stats.rows)  # one row per (object, data source)
    assert rows == expected["rows"]
    affected = {label: n for label, n in stats.affected_by_class.items() if n}
    assert affected == expected["affected"]


@settings(max_examples=40, deadline=None)
@given(config=configs(), replications=st.integers(2, 4))
def test_several_replications_equal_the_reference_report(config, replications):
    config.replications = replications
    result = run_experiment(config, jobs=1)
    expected = reference.report(
        [reference.replicate(config.to_dict(), r) for r in range(replications)]
    )
    rows = {(row.object_name, row.data_source, row.statistic): (row.category, row.value)
            for row in result.rows}
    assert len(rows) == len(result.rows)  # one row per (object, data source, statistic)
    assert rows == expected


@settings(max_examples=100, deadline=None)
@given(config=configs(), steps=st.integers(0, 300))
def test_ledger_balances_after_any_step(config, steps):
    # WP is unbounded, so an event is always pending.
    handle = initialize(build_consanguinity_model(config, 0))
    for _ in range(steps):
        handle.step()
    stats = collect_run_stats(handle)
    assert stats.created_total == stats.destroyed_individuals + stats.held_individuals


Q_VALUES = (0.0, 0.01, 0.05, 0.2)
F_VALUES = (0.0, 1 / 64, 1 / 16, 0.5)


@cache  # both tests below read the same grid of runs
def _run(seed, **genetics):
    config = ModelConfig()
    config.base_seed = seed
    config.replications = 3
    config.run_length = 500.0
    for name, value in genetics.items():
        setattr(config, name, value)
    return run_experiment(config, jobs=1)


def _affected(result, label):
    return [stats.affected_by_class.get(label, 0) for stats in result.per_replication]


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_genetics_parameters_leave_the_report_unchanged(seed, tmp_path):
    path = tmp_path / "report.csv"
    baseline = report_bytes(_run(seed), path)
    for degree in INBREEDING_COEFFICIENTS:
        assert report_bytes(_run(seed, consanguinity_degree=degree), path) == baseline, degree
    for q in Q_VALUES:
        for f in F_VALUES:
            assert report_bytes(_run(seed, allele_frequency=q, inbreeding_f=f), path) == baseline, (q, f)


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_affected_births_non_decreasing_in_q_and_f(seed):
    child_c = {
        (q, f): _affected(_run(seed, allele_frequency=q, inbreeding_f=f), "Child_C")
        for q in Q_VALUES for f in F_VALUES
    }
    for f in F_VALUES:
        for low, high in zip(Q_VALUES, Q_VALUES[1:]):
            assert all(a <= b for a, b in zip(child_c[low, f], child_c[high, f])), (f, low, high)
    for q in Q_VALUES:
        for low, high in zip(F_VALUES, F_VALUES[1:]):
            assert all(a <= b for a, b in zip(child_c[q, low], child_c[q, high])), (q, low, high)
