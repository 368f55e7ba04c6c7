"""Shared fixtures.

The expensive arrival-time solves (star is ~0.35 s) are cached per
case name for the whole session so the acceptance tests, the curve tests,
and the CLI tests all reuse one run.
"""

from __future__ import annotations

import functools
import time

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
