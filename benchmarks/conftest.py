"""Shared fixtures and result recording for the benchmark harness.

Every benchmark regenerates one of the paper's figures/scenarios or one of
its qualitative claims (see ``benchmarks/README.md``).  Besides the
pytest-benchmark timing, each bench writes the rows/series it regenerated to
``benchmarks/results/<experiment>.txt`` so the reproduced "table" can be
inspected after the run, and attaches the headline numbers to
``benchmark.extra_info``.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List

import pytest

from repro.datasets import BroadcasterConfig, CommuterConfig, WorldConfig, build_world
from repro.roadnet import CityGeneratorConfig

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_result(experiment: str, lines: Iterable[str]) -> str:
    """Write the regenerated rows of an experiment to its results file."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line.rstrip("\n") + "\n")
    return path


def format_table(rows: List[Dict[str, object]]) -> List[str]:
    """Render a list of row dictionaries as aligned text lines."""
    if not rows:
        return ["(no rows)"]
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), max(len(str(row[column])) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for row in rows:
        lines.append("  ".join(str(row[column]).ljust(widths[column]) for column in columns))
    return lines


@pytest.fixture(scope="session")
def bench_world():
    """The default synthetic world shared by most benches."""
    return build_world(
        WorldConfig(
            seed=20170321,  # EDBT 2017 opening day
            city=CityGeneratorConfig(grid_rows=12, grid_cols=12, poi_count=20, seed=3),
            broadcaster=BroadcasterConfig(seed=5, clips_per_day=120),
            commuters=CommuterConfig(seed=7, commuters=12, history_days=7),
            classifier_documents_per_category=10,
            feedback_events_per_user=30,
        )
    )


@pytest.fixture(scope="session")
def population_world():
    """A larger listener population for the skip-rate comparison (Q-1, A-1)."""
    return build_world(
        WorldConfig(
            seed=424242,
            city=CityGeneratorConfig(grid_rows=12, grid_cols=12, poi_count=24, seed=11),
            broadcaster=BroadcasterConfig(seed=13, clips_per_day=150),
            commuters=CommuterConfig(seed=17, commuters=24, history_days=7),
            classifier_documents_per_category=8,
            feedback_events_per_user=30,
        )
    )
