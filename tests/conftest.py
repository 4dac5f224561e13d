"""Session fixtures: spectrum runs shared across test modules."""
from __future__ import annotations

import os

import pytest

from cagekit import graph6, spectrum
from cagekit.named import (
    complete_bipartite,
    complete_graph,
    heawood,
    petersen,
    tutte_coxeter,
)
from cagekit.spectrum import SearchConfig

DATA = os.path.join(os.path.dirname(__file__), "data")
SEED34 = os.path.join(DATA, "seeds", "k3g8", "seed34.g6")


@pytest.fixture(scope="session")
def budget_steps():
    """Budget steps each session run's engine spent, by fixture name."""
    return {}


def _search(steps, name, k, g, seeds, horizon, config=SearchConfig(), citations=None):
    """spectrum_search, recording the steps its engine spends in steps[name]."""
    engine = spectrum._Engine(k, g, list(seeds), horizon, config, citations or {})
    report = engine.run()
    steps[name] = config.budget - engine.budget.remaining
    return report


@pytest.fixture(scope="session")
def report_3_3(budget_steps):
    return _search(budget_steps, "report_3_3", 3, 3, [complete_graph(4)], 40)


@pytest.fixture(scope="session")
def report_3_4(budget_steps):
    return _search(budget_steps, "report_3_4", 3, 4, [complete_bipartite(3, 3)], 40)


@pytest.fixture(scope="session")
def report_3_5(budget_steps):
    return _search(budget_steps, "report_3_5", 3, 5, [petersen()], 40)


@pytest.fixture(scope="session")
def report_3_5_rng7(budget_steps):
    config = SearchConfig(rng_seed=7)
    return _search(budget_steps, "report_3_5_rng7", 3, 5, [petersen()], 40, config)


@pytest.fixture(scope="session")
def report_3_6(budget_steps):
    return _search(budget_steps, "report_3_6", 3, 6, [heawood()], 40)


@pytest.fixture(scope="session")
def report_4_4(budget_steps):
    citations = {(4, 4, 9): "no (4,4)-graph of order 9 exists (exhaustive search)"}
    return _search(
        budget_steps, "report_4_4", 4, 4, [complete_bipartite(4, 4)], 20, citations=citations
    )


@pytest.fixture(scope="session")
def report_3_8(budget_steps):
    seeds = [tutte_coxeter()] + graph6.read_file(SEED34)
    citations = {(3, 8, 32): "no (3,8)-graph of order 32 exists (exhaustive search)"}
    return _search(budget_steps, "report_3_8", 3, 8, seeds, 62, citations=citations)
