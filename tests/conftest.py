"""Shared fixtures.

The expensive arrival-time solves (star is ~0.35 s) are cached per
case name for the whole session so the acceptance tests, the curve tests,
and the CLI tests all reuse one run.  unfolded mirrors a sector across
its tip ray, so a test can check that the sector solves as its grain.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

from burnback.cases import Case, build_case
from burnback.eikonal import ArrivalField, solve
from burnback.mesh import Marker, Mesh


@pytest.fixture(scope="session")
def solved():
    @functools.lru_cache(maxsize=None)
    def _solved(name: str) -> tuple[Case, ArrivalField, float]:
        case = build_case(name)
        t0 = time.perf_counter()
        field = solve(case.mesh, case.rate)
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


@pytest.fixture(scope="session")
def unfolded():
    def _unfolded(case: Case, angle: float) -> tuple[Mesh, np.ndarray]:
        """The sector of case joined with its reflection across the ray
        from the origin at angle, and the rate of every node.

        The sector keeps its node ids; the reflection's nodes follow,
        less the ray nodes, which both halves share.  Reflected triangles
        are reversed to stay counter-clockwise.  The ray becomes interior:
        its SYMMETRY nodes are marked INTERIOR, its casing end FREE.
        """
        mesh = case.mesh
        nodes, mk = mesh.nodes, mesh.node_markers
        c, s = np.cos(2.0 * angle), np.sin(2.0 * angle)
        on_ray = np.abs(nodes @ [np.sin(angle), -np.cos(angle)]) < 1e-12
        twin = np.arange(mesh.n_nodes)
        twin[~on_ray] = mesh.n_nodes + np.arange(np.count_nonzero(~on_ray))
        mirrored = nodes[~on_ray] @ np.array([[c, s], [s, -c]])
        markers = mk.copy()
        markers[on_ray & (mk == Marker.SYMMETRY)] = Marker.INTERIOR
        markers[np.flatnonzero(on_ray)[np.argmax(np.hypot(*nodes[on_ray].T))]] = Marker.FREE
        grain = Mesh(
            np.concatenate([nodes, mirrored]),
            np.concatenate([mesh.triangles, twin[mesh.triangles[:, ::-1]]]),
            np.concatenate([markers, mk[~on_ray]]),
        )
        return grain, np.concatenate([case.rate, case.rate[~on_ray]])

    return _unfolded
