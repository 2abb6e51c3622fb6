"""The benchmark's workloads: one consanguinity-model config each.

Every workload starts from the packaged ``default_config.json``; the seed
becomes the config's base seed (and is also passed as ``--seed``), so the
same seed gives the same inputs.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
from pathlib import Path

PACKAGED_CONFIG = Path("src/kinsim/data/default_config.json")

# Horizon of the single traced replication of long_trace.
LONG_TRACE_RUN_LENGTH = 20000.0

# Offspring law of birth_heavy as (count, cumulative probability); mean 5.88.
HIGH_FERTILITY_PAIRS = [[3, 0.10], [4, 0.25], [5, 0.45], [6, 0.65], [7, 0.80],
                        [8, 0.90], [9, 0.97], [10, 1.00]]


def _packaged(config: dict) -> dict:
    return config


def _long_trace(config: dict) -> dict:
    config["replications"] = 1
    config["run_length"] = LONG_TRACE_RUN_LENGTH
    return config


def _birth_heavy(config: dict) -> dict:
    config["sources"]["WP"]["interarrival"] = {"type": "exponential", "mean": 1.0}
    config["sex_split"] = {"male": 0.5, "female": 0.5}
    config["routing_weights"] = {
        sex: {"consanguineous": 50.0, "non_consanguineous": 50.0} for sex in ("male", "female")
    }
    config["offspring_distribution"] = {"type": "discrete", "pairs": HIGH_FERTILITY_PAIRS}
    config["allele_frequency"] = 0.05
    return config


# name -> (config transform, whether the run writes replication 0's event trace)
WORKLOADS = {
    "packaged": (_packaged, False),
    "long_trace": (_long_trace, True),
    "birth_heavy": (_birth_heavy, False),
}


def make(name: str, root: Path, seed: int) -> tuple[dict, bool]:
    """The workload's config for ``seed`` and whether it records a trace."""
    transform, record_trace = WORKLOADS[name]
    with open(root / PACKAGED_CONFIG, encoding="utf-8") as fh:
        config = transform(json.load(fh))
    config["base_seed"] = seed
    return config, record_trace
