"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail report.  The statistical criteria use
fixed seeds, so every tolerance check is deterministic.
"""

from __future__ import annotations

import io
import json
import math
import time
from fractions import Fraction

import pytest

from _oracles import (
    first_cousin_once_removed_parents,
    first_cousin_parents,
    generator_schedule,
    offspring_moments,
    parse_trace,
    pedigree_kinship,
    route_select,
    second_cousin_parents,
    third_cousin_parents,
    trace_rows,
    unrelated_parents,
)
from kinsim import (
    ConsanguinityDegree,
    CoupledSpec,
    EntityFactory,
    ModelConfig,
    assign_disorder,
    disorder_probability,
    inbreeding_coefficient,
    initialize,
    run_experiment,
    substream,
)
from kinsim.cli import main as cli_main
from test_kernel import counter, generator, internal_times
from kinsim.kernel import Coupling

MALE_WEIGHTS = (35.7, 65.9)
FEMALE_WEIGHTS = (35.7, 64.2)


def three_sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


@pytest.fixture(scope="module")
def default_run():
    """The default experiment: 10 replications of the full model."""
    config = ModelConfig.default()
    started = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - started
    return config, result, elapsed


def test_criterion_01_kernel_hand_trace_equality():
    started = time.perf_counter()

    trace = trace_rows(generator(2.0), 7.0)
    assert [(t, component) for t, component, *_ in trace] == [(2.0, "model"), (4.0, "model"), (6.0, "model")]

    periods = {"a": 2.0, "b": 3.0, "c": 2.0}
    select = ["c", "a", "b"]
    model = CoupledSpec(
        components={name: generator(p) for name, p in periods.items()},
        select=select,
    )
    assert internal_times(trace_rows(model, 12.0)) == generator_schedule(periods, select, 12.0)

    pipeline = CoupledSpec(
        components={"gen": generator(1.0), "acc": counter()},
        couplings=[Coupling("gen", "out", "acc", "in")],
    )
    stream = io.StringIO()
    handle = initialize(pipeline, trace_file=stream)
    handle.run_until(5.0)
    assert [row[:3] for row in parse_trace(stream.getvalue())] == [
        (t, comp, phase)
        for t in (1.0, 2.0, 3.0, 4.0, 5.0)
        for comp, phase in (("gen", "internal"), ("acc", "external"))
    ]
    assert handle.state_of("acc")["seen"][0] == (1.0, [0])

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 1: kernel traces equal hand schedules ({elapsed:.3f}s < 1s)")


def test_criterion_02_conservation_suite(default_run):
    config, result, elapsed = default_run
    assert config.replications == 10
    total_created = 0
    for replication, stats in enumerate(result.per_replication):
        assert stats.created_total == stats.destroyed_individuals + stats.held_individuals, (
            f"conservation broken in replication {replication}"
        )
        total_created += stats.created_total
    assert total_created >= 10_000
    assert elapsed < 10.0
    print(
        f"PASS criterion 2: created = destroyed + held, exact, in all 10 replications "
        f"({total_created} entities, {elapsed:.2f}s < 10s)"
    )


def test_criterion_03_marriage_flow_identity(default_run):
    _, result, _ = default_run
    for replication, stats in enumerate(result.per_replication):
        for name in ("Marriage_C", "Marriage_NC"):
            processed = stats.value(name, "[Processed]")
            members = stats.value(name, "[MemberInputBuffer]")
            exits = stats.value(name, "[OutputBuffer]")
            candidates = stats.value(name, "[ParentInputBuffer]")
            assert members == processed == exits, (replication, name)
            assert candidates >= processed, (replication, name)
    print("PASS criterion 3: members = processed = exits at drain for every marriage combiner")


def test_criterion_04_sex_split_three_sigma():
    config = ModelConfig.default()
    male_w, female_w = config.sex_split
    outgoing = [("male", male_w), ("female", female_w)]
    stream = substream(config.base_seed, 0).named("sex_split_acceptance")
    n = 100_000
    males = sum(1 for _ in range(n) if route_select(outgoing, stream.uniform()) == 0)
    p = male_w / (male_w + female_w)
    assert p == 0.595
    assert abs(males / n - p) <= three_sigma(p, n)
    print(f"PASS criterion 4: male fraction {males / n:.5f} within 3 sigma of 0.595 (n={n})")


def test_criterion_05_routing_three_sigma():
    n = 100_000
    for label, (w_c, w_nc), expected in (
        ("MP_C", MALE_WEIGHTS, 35.7 / 101.6),
        ("FP_C", FEMALE_WEIGHTS, 35.7 / 99.9),
    ):
        stream = substream(1215, 0).named(label)
        outgoing = [("consang", w_c), ("nonconsang", w_nc)]
        hits = sum(1 for _ in range(n) if route_select(outgoing, stream.uniform()) == 0)
        assert abs(hits / n - expected) <= three_sigma(expected, n), label
        print(
            f"PASS criterion 5: {label} fraction {hits / n:.5f} within 3 sigma "
            f"of {expected:.5f} (n={n})"
        )


def test_criterion_06_offspring_mean(default_run):
    _, result, _ = default_run
    marriages = sum(result.row_value(name, "[Processed]", "Total")
                    for name in ("Marriage_C", "Marriage_NC"))
    children = sum(result.row_value(label, "[Dynamic Object]", "Total")
                   for label in ("Child_C", "Child_NC"))
    assert marriages >= 8_000
    mean, second = offspring_moments()
    assert (mean, second) == (Fraction(53, 25), Fraction(147, 25))  # 2.12 and 5.88
    sd = math.sqrt(second - mean * mean)
    bound = 3.0 * sd / math.sqrt(marriages)
    assert abs(children / marriages - mean) <= bound
    print(
        f"PASS criterion 6: {children / marriages:.4f} children per marriage within "
        f"{bound:.4f} of 2.12 over {marriages:.0f} marriages, both branches pooled"
    )


def test_criterion_07_genetics_oracle():
    q = 0.01
    n = 1_000_000
    factory = EntityFactory()
    cases = (
        ("Child_C", ConsanguinityDegree.FIRST_COUSIN, disorder_probability(q, 1 / 16)),
        ("Child_NC", ConsanguinityDegree.UNRELATED, q * q),
    )
    assert disorder_probability(q, 1 / 16) == pytest.approx(0.00071875, rel=1e-12)
    for label, degree, p in cases:
        stream = substream(826, 0).named(f"disorder_{label}")
        child = factory.create(label)
        affected = 0
        for _ in range(n):
            assign_disorder(child, degree, q, stream)
            affected += child.affected
        assert abs(affected / n - p) <= three_sigma(p, n), label
        print(
            f"PASS criterion 7: {label} affected fraction {affected / n:.6f} within "
            f"3 sigma of {p:.6f} (n={n})"
        )
    # exact-arithmetic limits: f=0 collapses to q^2, f=1 reaches q
    for q_exact in (0.0, 0.01, 0.3, 1.0):
        assert disorder_probability(q_exact, 0.0) == q_exact * q_exact
    for q_dyadic in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert disorder_probability(q_dyadic, 1.0) == q_dyadic
    print("PASS criterion 7: exact checks f=0 -> q^2 and f=1 -> q")


def test_criterion_08_cli_determinism(tmp_path):
    config = ModelConfig.default()
    config.run_length = 300.0
    config.replications = 3
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    out_a, out_b, out_c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert cli_main(["run", "--config", str(config_path), "--seed", "42", "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(config_path), "--seed", "42", "--out", str(out_b)]) == 0
    assert cli_main(["run", "--config", str(config_path), "--seed", "43", "--out", str(out_c)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines_a = out_a.read_text(encoding="utf-8").splitlines()
    lines_c = out_c.read_text(encoding="utf-8").splitlines()
    assert lines_a[0] == lines_c[0]
    assert any(a != c for a, c in zip(lines_a[1:], lines_c[1:]))
    print("PASS criterion 8: identical seeds give byte-identical CSV; a new seed changes rows")


def test_criterion_09_report_schema(default_run):
    _, result, _ = default_run
    roster: list[tuple[str, str]] = []
    roster += [(label, "[Dynamic Object]") for label in ("Child_C", "Child_NC", "MP", "FP")]
    roster += [
        (marriage, source)
        for marriage in ("Marriage_C", "Marriage_NC")
        for source in ("[ParentInputBuffer]", "[MemberInputBuffer]", "[OutputBuffer]", "[Processed]")
    ]
    roster += [
        (server, source)
        for server in ("PopulationG_C", "PopulationG_NC")
        for source in ("[InputBuffer]", "[OutputBuffer]", "[Processed]")
    ]
    roster += [(sink, "[InputBuffer]") for sink in ("NewPopulation_C", "NewPopulation_NC")]
    roster += [(f"Path{i}", "[Travelers]") for i in range(1, 15)]
    assert len(roster) == 34
    for object_name, data_source in roster:
        for statistic in ("Total", "Mean", "Min", "Max"):
            value = result.row_value(object_name, data_source, statistic)
            assert value >= 0
    print(f"PASS criterion 9: all {len(roster)} roster rows present with all four statistics")


def test_criterion_10_inbreeding_table_against_pedigree_oracle():
    oracle_cases = (
        (ConsanguinityDegree.UNRELATED, unrelated_parents),
        (ConsanguinityDegree.FIRST_COUSIN, first_cousin_parents),
        (ConsanguinityDegree.FIRST_COUSIN_ONCE_REMOVED, first_cousin_once_removed_parents),
        (ConsanguinityDegree.SECOND_COUSIN, second_cousin_parents),
        (ConsanguinityDegree.THIRD_COUSIN, third_cousin_parents),
    )
    for degree, make_parents in oracle_cases:
        father, mother = make_parents()
        oracle = pedigree_kinship(father, mother)
        assert inbreeding_coefficient(degree) == float(oracle), degree
    first = inbreeding_coefficient(ConsanguinityDegree.FIRST_COUSIN)
    assert first == 4 * inbreeding_coefficient(ConsanguinityDegree.SECOND_COUSIN)
    assert inbreeding_coefficient(ConsanguinityDegree.FIRST_COUSIN_ONCE_REMOVED) == first / 2
    assert Fraction(1, 16) == pedigree_kinship(*first_cousin_parents())
    print("PASS criterion 10: degree table equals the pedigree path-counting oracle")
