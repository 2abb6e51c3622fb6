"""Value semantics of kinsim's record classes.

Each class is built from the keywords and defaults of its fields, in
constructor order.  Two builds with the same fields compare equal and
repr alike, and a changed field makes them unequal; each build gets its
own mutable defaults.  The frozen ones hash by value and refuse
assignment; the others are unhashable, and their fields, an atomic's
callbacks too, can be reassigned.  Every record survives a pickle round
trip, as a replication's statistics do crossing a worker's pipe.  An
entity is the exception: it is equal only to itself.

A config is its JSON document: the packaged one is its default, and it
shares no object or array with the document it was read from or written
to.
"""

from __future__ import annotations

import json
import pickle
from collections import Counter
from pathlib import Path

import pytest

import kinsim
from kinsim import cli
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
    Uniform,
    Violation,
)


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
    ObjectStats: ({}, {"entered": 0, "destroyed_individuals": 0, "affected_by_class": Counter()},
                  {"entered": 1}),
    Constant: ({"value": 1.5}, {}, {"value": 2.5}),
    Uniform: ({"low": 0.0, "high": 2.0}, {}, {"high": 3.0}),
    Exponential: ({"mean": 2.0}, {}, {"mean": 0.5}),
    # The packaged config's values, written out as an independent pin of
    # kinsim/data/default_config.json, which supplies every default.
    ModelConfig: ({}, {
        "run_length": 2000.0,
        "replications": 10,
        "base_seed": 42,
        "sources": {"WP": {"interarrival": {"type": "constant", "value": 1.0}, "max_arrivals": None}},
        "sex_split": {"male": 0.595, "female": 0.405},
        "routing_weights": {
            "male": {"consanguineous": 35.7, "non_consanguineous": 65.9},
            "female": {"consanguineous": 35.7, "non_consanguineous": 64.2},
        },
        "offspring_distribution": {
            "type": "discrete",
            "pairs": [[0, 0.10], [1, 0.30], [2, 0.60], [3, 0.90], [4, 0.98], [5, 1.00]],
        },
        "allele_frequency": 0.01,
        "consanguinity_degree": "first_cousin",
        "inbreeding_f": None,
        "metadata": {
            "region": "", "religion": "", "commitment": "",
            "stated_consanguineous_union_rate":
                "0.30 (informational; the executable branch split comes from routing_weights)",
        },
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
    config.sources["WP"]["max_arrivals"] = 300
    assert ModelConfig.from_dict(config.to_dict()) == config
    assert ModelConfig.from_dict(ModelConfig().to_dict()) != config


PACKAGED = Path(kinsim.__file__).parent / "data" / "default_config.json"


def test_the_packaged_config_is_the_default():
    packaged = json.loads(PACKAGED.read_text(encoding="utf-8"))
    assert ModelConfig() == cli._load_config(None) == ModelConfig.from_dict(packaged)
    assert ModelConfig().to_dict() == packaged


def containers(value) -> set[int]:
    """The ids of every object and array in a JSON value, itself included."""
    if isinstance(value, dict):
        return {id(value)}.union(*map(containers, value.values()))
    if isinstance(value, list):
        return {id(value)}.union(*map(containers, value))
    return set()


def overwrite(value) -> None:
    """Set every number, string and null in a JSON value's objects and
    arrays to a marker, in place."""
    for key, item in list(value.items() if isinstance(value, dict) else enumerate(value)):
        if isinstance(item, (dict, list)):
            overwrite(item)
        else:
            value[key] = "edited"


def test_config_shares_nothing_with_its_json_form():
    config = ModelConfig(base_seed=7)
    written = config.to_dict()
    assert not containers(written) & containers([getattr(config, name) for name in written])
    overwrite(written)
    assert config == ModelConfig(base_seed=7)

    given = ModelConfig(base_seed=7).to_dict()
    read = ModelConfig.from_dict(given)
    assert not containers(given) & containers([getattr(read, name) for name in given])
    overwrite(given)
    assert read == ModelConfig(base_seed=7)
