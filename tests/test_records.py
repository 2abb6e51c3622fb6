"""Value semantics of kinsim's record classes.

Each class is built from the keywords and defaults of its fields, in
constructor order.  Two builds with the same fields compare equal and
repr alike, and a changed field makes them unequal; each build gets its
own mutable defaults.  The frozen ones hash by value and refuse
assignment; the others are unhashable, and their fields, an atomic's
callbacks too, can be reassigned.  Every record survives a pickle round
trip, as a replication's statistics do crossing a worker's pipe.  An
entity is the exception: it is equal only to itself.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

from kinsim import (
    AtomicSpec,
    Constant,
    Coupling,
    CoupledSpec,
    Entity,
    ExperimentResult,
    Exponential,
    ModelConfig,
    ObjectStats,
    ReportRow,
    RunStats,
    SourceSettings,
    Uniform,
    Violation,
)
from kinsim.model import DEFAULT_OFFSPRING_PAIRS


# Module-level callbacks, so that an atomic spec pickles.
def time_advance(state):
    return 1.0


def delta_int(state):
    return state


def delta_ext(state, elapsed, bag):
    return state


def output(state):
    return [("out", state)]


def other_output(state):
    return []


# class: (the keywords it needs, the defaults of the rest, one changed field).
# The needed keywords come before the defaults, in constructor order.
RECORDS = {
    Coupling: ({"src": "a", "src_port": "out", "dst": None, "dst_port": "y"}, {},
               {"dst": "b"}),
    AtomicSpec: ({"initial_state": 0, "time_advance": time_advance, "delta_int": delta_int,
                  "delta_ext": delta_ext, "output": output},
                 {"input_ports": (), "output_ports": ()},
                 {"output": other_output}),
    CoupledSpec: ({"components": {}},
                  {"couplings": [], "select": None, "input_ports": (), "output_ports": ()},
                  {"select": []}),
    Entity: ({"id": 3, "class_label": "WP"}, {"affected": False, "member": None},
             {}),
    ObjectStats: ({}, {"entered": 0, "processed": 0, "destroyed_individuals": 0,
                       "affected_by_class": Counter()},
                  {"entered": 1}),
    Constant: ({"value": 1.5}, {}, {"value": 2.5}),
    Uniform: ({"low": 0.0, "high": 2.0}, {}, {"high": 3.0}),
    Exponential: ({"mean": 2.0}, {}, {"mean": 0.5}),
    SourceSettings: ({}, {"interarrival": {"type": "constant", "value": 1.0}, "max_arrivals": None},
                     {"max_arrivals": 5}),
    ModelConfig: ({}, {
        "run_length": 2000.0,
        "replications": 10,
        "base_seed": 42,
        "sources": {"WP": SourceSettings()},
        "sex_split": (0.595, 0.405),
        "routing_weights": {
            "male": {"consanguineous": 35.7, "non_consanguineous": 65.9},
            "female": {"consanguineous": 35.7, "non_consanguineous": 64.2},
        },
        "offspring_distribution": {"type": "discrete", "pairs": DEFAULT_OFFSPRING_PAIRS},
        "allele_frequency": 0.01,
        "consanguinity_degree": "first_cousin",
        "inbreeding_f": None,
        "metadata": {"region": "", "religion": "", "commitment": ""},
    }, {"base_seed": 7}),
    Violation: ({"field": "run_length", "constraint": "must be finite and > 0", "observed": -1.0},
                {}, {"observed": 0.0}),
    RunStats: ({}, {"rows": [], "created_total": 0, "destroyed_individuals": 0,
                    "held_individuals": 0, "affected_by_class": {}},
               {"rows": [("WP", "[Dynamic Object]", "Throughput", 1)]}),
    ReportRow: ({"object_name": "WP", "data_source": "[Dynamic Object]", "category": "Throughput",
                 "statistic": "Total", "value": 2000.0}, {}, {"value": 1999.0}),
    ExperimentResult: ({"rows": [], "per_replication": []}, {}, {"per_replication": [RunStats()]}),
}

FROZEN = {Coupling, Constant, Uniform, Exponential, Violation, ReportRow}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    needed, defaults, changed = RECORDS[cls]
    fields = {**needed, **defaults}
    a, b = cls(**needed), cls(**needed)
    assert {name: getattr(a, name) for name in fields} == fields
    assert repr(a) == repr(cls(*fields.values())) == (
        f"{cls.__name__}({', '.join(f'{name}={value!r}' for name, value in fields.items())})")
    for name, value in defaults.items():
        if isinstance(value, (list, dict)):
            assert getattr(a, name) is not getattr(b, name), name
    assert repr(pickle.loads(pickle.dumps(a))) == repr(a)

    if cls is Entity:
        assert a == a and a != b and len({a, b}) == 2
        return
    assert a == b and a == cls(*fields.values()) and pickle.loads(pickle.dumps(a)) == a
    if cls in FROZEN:
        assert hash(a) == hash(b) and len({a, b}) == 1
        assert cls(**{**needed, **changed}) != a
        for name, value in changed.items():
            with pytest.raises(AttributeError):
                setattr(a, name, value)
        assert a == b
    else:
        with pytest.raises(TypeError):
            hash(a)
        for name, value in changed.items():
            setattr(b, name, value)
            assert getattr(b, name) is value
        assert a != b


def test_config_round_trips_through_its_json_form():
    config = ModelConfig(base_seed=7, inbreeding_f=0.125)
    config.sources["WP"].max_arrivals = 300
    assert ModelConfig.from_dict(config.to_dict()) == config
    assert ModelConfig.from_dict(ModelConfig().to_dict()) != config
