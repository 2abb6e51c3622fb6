"""The per-layer bench harness, ``bench/layers.py``, so that it cannot rot.

``--quick`` makes one repetition in one process: its numbers mean little,
but its digests must be the seed-42 pins and its counts those of the
packaged replications.  ``--compare`` must read every committed file
format, the oldest too, and flag a row as the harness's docstring says.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from _oracles import REPORT_SHA256, TRACE_SHA256

ROOT = Path(__file__).resolve().parents[1]

ROWS = {"kernel.step", "randomness.uniform", "objects.weighted_pick", "model.build",
        "kernel.initialize", "model.collect_run_stats", "replication.run_until",
        "replication.run_until_traced", "replication.trace_us", "experiment.aggregate_export"}


def bench(*args: str) -> subprocess.CompletedProcess:
    """Run ``python bench/layers.py <args>`` in a fresh interpreter."""
    return subprocess.run([sys.executable, str(ROOT / "bench" / "layers.py"), *args],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    proc = bench("--quick", "--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    return out


def test_quick_run_gives_the_pins_and_the_packaged_counts(quick):
    document = json.loads(quick.read_text(encoding="utf-8"))
    context = document["context"]
    assert (context["report_sha256"], context["trace_sha256"]) == (REPORT_SHA256, TRACE_SHA256)
    assert set(document["rows"]) == ROWS
    counts = document["counts"]["per_replication"]
    assert len(counts) == 10
    assert counts[0] == {"steps": 2820, "draws": 6586, "entities": 3767, "trace_lines": 9172}


def test_compare_reads_the_oldest_committed_file(quick):
    proc = bench("--compare", str(ROOT / "BENCH_37.json"), str(quick))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == len(ROWS)


def row(median: float, *process_medians: float) -> dict:
    """A row whose ``per_process`` medians are ``process_medians``, if any."""
    found = {"unit": "us per call", "median": median}
    if process_medians:
        found["per_process"] = [{"min": m, "median": m} for m in process_medians]
    return found


def test_compare_flags_a_ratio_beyond_the_larger_spread(tmp_path):
    # Spreads: "within" 0.1 in A and 0.02 in B, "beyond" 0.1 in both, "down"
    # 0.05 in both; "bare" has none.
    a = {"within": row(10.0, 10.0, 11.0), "beyond": row(10.0, 10.0, 11.0),
         "down": row(10.0, 10.0, 10.5), "bare": row(10.0), "only_a": row(1.0, 1.0)}
    b = {"within": row(10.5, 10.0, 10.2), "beyond": row(12.0, 12.0, 13.2),
         "down": row(9.0, 9.0, 9.45), "bare": row(20.0), "only_b": row(1.0, 1.0)}
    paths = []
    for name, rows in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({"rows": rows}), encoding="utf-8")
    proc = bench("--compare", *map(str, paths))
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = {line.split()[0]: line for line in proc.stdout.splitlines()}
    assert list(lines) == ["within", "beyond", "down", "bare", "only_a", "only_b"]
    assert lines["only_a"].endswith(f"only in {paths[0]}")
    assert lines["only_b"].endswith(f"only in {paths[1]}")
    assert {name for name, line in lines.items() if line.endswith("  changed")} == {"beyond", "down"}
    assert lines["within"].endswith("B/A 1.050  spread 0.100")
    assert lines["bare"].endswith("B/A 2.000  spread -")
