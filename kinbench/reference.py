"""Independent reference for the zero-delay consanguinity model.

With every path and service time at zero, a replication's report counts
follow from the named random streams alone; no event loop is needed:

* the WP source emits one individual per interarrival draw while the
  arrival time stays within ``run_length``;
* each individual takes one ``sex_split`` draw, then one draw from its
  sex's branch stream (weighted picks by cumulative scan over the weights);
* FIFO matching in each branch gives ``min(members, parents)`` marriages;
* a branch's offspring counts are its first M offspring draws and its
  affected flags its next sum(children) disorder draws.

Nothing here imports kinsim.  Stream seeds are re-derived from the
documented recipe (SplitMix64 mixing of BLAKE2b name hashes) and draws come
straight from numpy's PCG64, so a disagreement with a report points at the
simulator, not at shared code.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15

# Inbreeding coefficient of a child by the parents' relationship.
_KINSHIP = {
    "unrelated": 0.0,
    "third_cousin": 1.0 / 256.0,
    "second_cousin": 1.0 / 64.0,
    "first_cousin_once_removed": 1.0 / 32.0,
    "first_cousin": 1.0 / 16.0,
}

# Branch tag and the suffix of its offspring and disorder stream names.
_BRANCHES = (("C", "consanguineous"), ("NC", "nonconsanguineous"))

THROUGHPUT = "Throughput"
CONTENT = "Content"


def _splitmix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stream_seed(seed: int, *parts) -> int:
    """Seed of the stream reached from ``seed`` through ``parts`` (ints or names)."""
    x = _splitmix64(seed)
    for part in parts:
        if isinstance(part, str):
            part = int.from_bytes(hashlib.blake2b(part.encode(), digest_size=8).digest(), "big")
        x = _splitmix64(((x + _GOLDEN_GAMMA) & _MASK64) ^ part)
    return x


class _Streams:
    """The named streams of one replication."""

    def __init__(self, base_seed: int, replication: int) -> None:
        self.root = stream_seed(base_seed, replication)

    def generator(self, name: str) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(stream_seed(self.root, name)))

    def draws(self, name: str, n: int) -> np.ndarray:
        return self.generator(name).random(n)

    def sequence(self, name: str):
        """The stream's draws one at a time, as Python floats."""
        gen = self.generator(name)
        while True:
            yield from gen.random(4096).tolist()


def _first_pick(u: np.ndarray, weights: tuple[float, float]) -> np.ndarray:
    """True where a two-way cumulative scan over ``weights`` picks the first."""
    total = 0.0 + weights[0] + weights[1]
    return u * total < weights[0]


def _arrival_count(interarrival: dict, run_length: float, streams: _Streams) -> int:
    """Arrivals of the WP source at times <= run_length (times accumulate in order)."""
    if interarrival["type"] == "constant":
        delays = itertools.repeat(float(interarrival["value"]))
    elif interarrival["type"] == "exponential":
        mean = float(interarrival["mean"])
        delays = (-mean * math.log(1.0 - u) for u in streams.sequence("wp_interarrival"))
    else:
        raise ValueError(f"reference has no interarrival law {interarrival['type']!r}")
    count, t = 0, 0.0
    for delay in delays:
        t = t + delay
        if t > run_length:
            return count
        count += 1


def _offspring_table(law: dict) -> tuple[np.ndarray, np.ndarray]:
    if law["type"] != "discrete":
        raise ValueError("reference needs a discrete offspring law")
    values = np.array([int(v) for v, _ in law["pairs"]], dtype=np.int64)
    cum = np.array([float(c) for _, c in law["pairs"]])
    cum[-1] = 1.0
    return values, cum


def replicate(config: dict, replication: int) -> dict:
    """Report counts and affected births of one replication.

    Returns ``{"rows": {(object, source): (category, value)},
    "affected": {class label: count}}``; rows whose counter never moved
    are absent, as in the simulator.
    """
    streams = _Streams(int(config["base_seed"]), replication)
    wp = config["sources"]["WP"]
    if wp.get("max_arrivals") is not None:
        raise ValueError("reference needs an unbounded WP source")
    n_wp = _arrival_count(wp["interarrival"], float(config["run_length"]), streams)
    split = config["sex_split"]
    male = _first_pick(streams.draws("sex_split", n_wp), (split["male"], split["female"]))
    n_male = int(male.sum())
    n_female = n_wp - n_male
    weights = config["routing_weights"]
    joins = {}
    for sex, n, label in (("male", n_male, "MP"), ("female", n_female, "FP")):
        w = weights[sex]
        consang = int(_first_pick(streams.draws(f"{sex}_branch", n),
                                  (w["consanguineous"], w["non_consanguineous"])).sum())
        joins[label, "C"] = consang
        joins[label, "NC"] = n - consang

    values, cum = _offspring_table(config["offspring_distribution"])
    q = float(config["allele_frequency"])
    f_consang = config.get("inbreeding_f")
    if f_consang is None:
        f_consang = _KINSHIP[config.get("consanguinity_degree", "first_cousin")]
    rows: dict[tuple[str, str], tuple[str, int]] = {}
    labels = {"WP": n_wp, "MP": n_male, "FP": n_female}
    affected: dict[str, int] = {}
    travelers = [n_male, n_female, joins["MP", "C"], joins["MP", "NC"],
                 joins["FP", "C"], joins["FP", "NC"],
                 joins["MP", "C"], joins["MP", "NC"], joins["FP", "C"], joins["FP", "NC"]]
    for tag, suffix in _BRANCHES:
        f = f_consang if tag == "C" else _KINSHIP["unrelated"]
        p = q * q + f * q * (1.0 - q)
        marriages = min(joins["MP", tag], joins["FP", tag])
        u = streams.draws(f"offspring_{suffix}", marriages)
        children = int(values[np.minimum(np.searchsorted(cum, u, side="right"), len(values) - 1)].sum())
        hits = int((streams.draws(f"disorder_{suffix}", children) < p).sum())
        if hits:
            affected[f"Child_{tag}"] = hits
        labels[f"Child_{tag}"] = children
        rows[f"Marriage_{tag}", "[MemberInputBuffer]"] = (CONTENT, marriages)
        rows[f"Marriage_{tag}", "[OutputBuffer]"] = (CONTENT, marriages)
        rows[f"Marriage_{tag}", "[ParentInputBuffer]"] = (CONTENT, joins["FP", tag])
        rows[f"Marriage_{tag}", "[Processed]"] = (THROUGHPUT, marriages)
        rows[f"PopulationG_{tag}", "[InputBuffer]"] = (CONTENT, marriages)
        rows[f"PopulationG_{tag}", "[OutputBuffer]"] = (CONTENT, marriages)
        rows[f"PopulationG_{tag}", "[Processed]"] = (THROUGHPUT, marriages)
        rows[f"NewPopulation_{tag}", "[InputBuffer]"] = (THROUGHPUT, marriages + children)
        travelers.append(marriages)
    # Paths 13 and 14 carry each branch's couples and their children.
    travelers += [rows["NewPopulation_C", "[InputBuffer]"][1], rows["NewPopulation_NC", "[InputBuffer]"][1]]
    for i, count in enumerate(travelers, start=1):
        rows[f"Path{i}", "[Travelers]"] = (THROUGHPUT, count)
    for label, count in labels.items():
        if count:
            rows[label, "[Dynamic Object]"] = (THROUGHPUT, count)
    return {"rows": rows, "affected": affected}


def report(per_replication: list[dict]) -> dict[tuple[str, str, str], tuple[str, float]]:
    """Aggregate rows as the CSV carries them: (object, source, statistic) -> (category, value).

    Total, Min and Max are exact; Mean is the total over the replication
    count rounded to six significant digits.
    """
    n = len(per_replication)
    samples: dict[tuple[str, str], list[int]] = {}
    categories: dict[tuple[str, str], str] = {}
    for rep in per_replication:
        for key, (category, value) in rep["rows"].items():
            samples.setdefault(key, []).append(value)
            categories[key] = category
    out = {}
    for (obj, source), values in samples.items():
        total = sum(values)
        category = categories[obj, source]
        out[obj, source, "Total"] = (category, float(total))
        out[obj, source, "Mean"] = (category, float(format(total / n, ".6g")))
        out[obj, source, "Min"] = (category, float(min(values)))
        out[obj, source, "Max"] = (category, float(max(values)))
    return out
