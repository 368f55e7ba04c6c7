"""Shared fixtures.

The expensive arrival-time solves (star is ~0.35 s) are cached per
case name for the whole session so the acceptance tests, the curve tests,
and the CLI tests all reuse one run.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

from burnback.cases import Case, build_case
from burnback.eikonal import ArrivalField, solve


@pytest.fixture(scope="session")
def solved():
    @functools.lru_cache(maxsize=None)
    def _solved(name: str) -> tuple[Case, ArrivalField, float]:
        case = build_case(name)
        t0 = time.perf_counter()
        field = solve(case.mesh, case.rate, config=case.config)
        return case, field, time.perf_counter() - t0

    return _solved


@pytest.fixture(scope="session")
def boundary_nodes():
    def _boundary_nodes(mesh) -> np.ndarray:
        """Sorted ids of the nodes on an edge of exactly one triangle."""
        edges = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        uniq, count = np.unique(edges, axis=0, return_counts=True)
        return np.unique(uniq[count == 1])

    return _boundary_nodes
