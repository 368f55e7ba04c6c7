"""Arrival-time solver: rate fields, operators, residual, Jacobian, full solves."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array

from burnback import eikonal
from burnback.cases import CASE_BUILDERS, build_case
from burnback.eikonal import (
    SolverConfig,
    SolverError,
    _System,
    as_rate_field,
    solve,
)
from burnback.mesh import Marker, Mesh, gen_coons, gen_rect, geom_cache


def rect_left_ignition(nx=20, ny=10, width=2.0, height=1.0):
    return gen_rect(nx, ny, width, height, markers={"left": Marker.IGNITION})


def quarter_annulus(nu=12, nv=18, r0=1.0, r1=2.0, samples=64):
    t = np.linspace(0.0, 0.5 * np.pi, samples)
    ring = np.column_stack([np.cos(t), np.sin(t)])
    return gen_coons(r0 * ring, r1 * ring, nu, nv)


# ---------------------------------------------------------------- rate fields


def test_as_rate_field_scalar_array_callable():
    # a number or one value per node; a callable is not a rate
    mesh = rect_left_ignition(4, 2)
    np.testing.assert_array_equal(as_rate_field(mesh, 2.0), np.full(mesh.n_nodes, 2.0))
    arr = np.linspace(1.0, 3.0, mesh.n_nodes)
    np.testing.assert_array_equal(as_rate_field(mesh, arr), arr)
    x, y = mesh.nodes.T
    field = as_rate_field(mesh, 1.0 + x + 0.0 * y)
    np.testing.assert_allclose(field, 1.0 + mesh.nodes[:, 0])
    with pytest.raises(TypeError):
        as_rate_field(mesh, lambda x, y: 1.0 + x + 0.0 * y)


def test_as_rate_field_rejects_bad_values():
    mesh = rect_left_ignition(4, 2)
    with pytest.raises(SolverError, match="node 0"):
        as_rate_field(mesh, -1.0)
    with pytest.raises(ValueError, match=f"^rate has 3 values for {mesh.n_nodes} mesh nodes$") as exc:
        as_rate_field(mesh, np.ones(3))
    assert type(exc.value) is ValueError
    bad = np.ones(mesh.n_nodes)
    bad[7] = np.nan
    with pytest.raises(ValueError, match="^rate is not finite at node 7$") as exc:
        as_rate_field(mesh, bad)
    assert type(exc.value) is ValueError


def test_triangle_gradients_linear_field_exact():
    # the per-triangle gradients of geom_cache are exact on a linear field
    # and vanish on a constant one
    mesh = rect_left_ignition(7, 5)
    grad = geom_cache(mesh).grad
    n_tri = mesh.n_triangles
    s = 3.0 * mesh.nodes[:, 0] + 4.0 * mesh.nodes[:, 1] - 7.0
    g = grad @ s
    np.testing.assert_allclose(g[:n_tri], 3.0, atol=1e-12)
    np.testing.assert_allclose(g[n_tri:], 4.0, atol=1e-12)
    np.testing.assert_allclose(grad @ np.ones(mesh.n_nodes), 0.0, atol=1e-15)


# --------------------------------------------------------- solver operators


def mixed_sides_rect():
    return gen_rect(
        7,
        5,
        1.3,
        0.9,
        markers={"left": Marker.IGNITION, "bottom": Marker.SYMMETRY, "top": Marker.FREE},
    )


def test_gradient_operators_reproduce_linear_field():
    mesh = mixed_sides_rect()
    cache = geom_cache(mesh)
    s = 3.0 * mesh.nodes[:, 0] - 2.0 * mesh.nodes[:, 1] + 0.5
    g = cache.grad @ s
    np.testing.assert_allclose(g[: mesh.n_triangles], 3.0, atol=1e-12)
    np.testing.assert_allclose(g[mesh.n_triangles :], -2.0, atol=1e-12)


def test_mean_grad_reproduces_linear_field():
    # the corner-angle weights of every node sum to one, so the mean of a
    # uniform gradient is that gradient; on the bottom mirror line only
    # its component along the line is kept
    mesh = mixed_sides_rect()
    cache = geom_cache(mesh)
    nn = mesh.n_nodes
    s = 3.0 * mesh.nodes[:, 0] - 2.0 * mesh.nodes[:, 1] + 0.5
    mean = cache.mean_grad @ s
    sym = mesh.node_markers == Marker.SYMMETRY
    assert sym.any()
    np.testing.assert_allclose(mean[:nn], 3.0, atol=1e-12)
    np.testing.assert_allclose(mean[nn:][~sym], -2.0, atol=1e-12)
    np.testing.assert_array_equal(mean[nn:][sym], 0.0)


def test_edge_dissipation_vanishes_on_constant_and_linear_fields():
    mesh = mixed_sides_rect()
    cache = geom_cache(mesh)
    D = cache.edge_diss
    np.testing.assert_allclose(D @ np.ones(mesh.n_nodes), 0.0, atol=1e-12)
    # one-sided boundary fans included: the fan's response to the linear
    # field is subtracted in every row; a SYMMETRY node keeps the part of
    # a field that is linear across its mirror line, which its reflection
    # turns into a kink
    sym = mesh.node_markers == Marker.SYMMETRY
    along = 3.0 * mesh.nodes[:, 0] + 0.5
    np.testing.assert_allclose(D @ along, 0.0, atol=1e-12)
    across = D @ mesh.nodes[:, 1]
    np.testing.assert_allclose(across[~sym], 0.0, atol=1e-12)
    assert np.all(across[sym] > 1.0)
    # D shares one sparsity pattern with both halves of mean_grad
    nnz = D.nnz
    A = cache.mean_grad
    np.testing.assert_array_equal(A.indices[:nnz], D.indices)
    np.testing.assert_array_equal(A.indices[nnz:], D.indices)
    np.testing.assert_array_equal(A.indptr[: mesh.n_nodes + 1], D.indptr)


# ---------------------------------------------------------- boundary handling


def sym_bottom_rect():
    return gen_rect(6, 4, 1.0, 1.0, markers={"bottom": Marker.SYMMETRY, "left": Marker.IGNITION})


def test_dissipation_rows_are_weighed_up_to_a_full_turn():
    # an L of three unit squares, every node on the boundary: node 1 on
    # a smooth side, node 0 at a right-angle corner and node 4 at the
    # 270 degree reflex corner weigh their fans by 2, 4 and 1
    nodes = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1], [0, 2], [1, 2]]
    tris = [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4], [3, 4, 7], [3, 7, 6]]
    mesh = Mesh(nodes, tris, np.full(8, Marker.FREE))
    x, y = mesh.nodes.T
    s = x * x + 3.0 * y * y + x * y
    _, _, diss, angles = reference_terms(mesh, s)
    at = [1, 0, 4]
    np.testing.assert_allclose(angles[at], [np.pi, 0.5 * np.pi, 1.5 * np.pi], rtol=1e-15)
    assert np.all(np.abs(diss[at]) > 0.1)
    np.testing.assert_allclose((geom_cache(mesh).edge_diss @ s)[at], [2.0, 4.0, 1.0] * diss[at], rtol=1e-12)


def test_free_nodes_solve_as_interior_nodes(solved):
    # the solver never reads FREE: relabelling every FREE node INTERIOR
    # leaves the operators and the solved field bitwise unchanged
    for name in ("annulus", "slot-coarse", "bistar", "circle"):
        case, field, _ = solved(name)
        mk = case.mesh.node_markers
        assert (mk == Marker.FREE).any(), name
        plain = Mesh(case.mesh.nodes, case.mesh.triangles, np.where(mk == Marker.FREE, Marker.INTERIOR, mk))
        for op in ("mean_grad", "edge_diss"):
            np.testing.assert_array_equal(getattr(geom_cache(plain), op).data, getattr(geom_cache(case.mesh), op).data)
        np.testing.assert_array_equal(solve(plain, case.rate).s, field.s, err_msg=name)


@pytest.mark.parametrize("name,n", [("star", 5), ("bistar", 4)])
def test_a_sector_solves_as_its_unfolded_grain(name, n, solved, unfolded):
    # mirrored across its tip ray the sector becomes a grain whose ray is
    # interior; a corner of mirror line and casing then weighs its
    # quarter fan as a full one, so both solves agree on the sector
    case, field, _ = solved(name)
    grain, rate = unfolded(case, np.pi / n)
    assert grain.n_nodes == {"star": 19_521, "bistar": 8_265}[name]
    whole = solve(grain, rate)
    assert whole.converged and whole.n_steps == field.n_steps
    gap = np.abs(whole.s[: case.mesh.n_nodes] - field.s).max()
    assert gap <= 1e-14 * case.depth


def system_for(mesh, rate=1.0, scale=SolverConfig().dissipation_scale):
    cache = geom_cache(mesh)
    return _System(mesh, cache, as_rate_field(mesh, rate), scale)


def with_ignition(mesh, ids):
    """A copy of mesh with the nodes ids marked IGNITION as well."""
    markers = mesh.node_markers.copy()
    markers[ids] = Marker.IGNITION
    return Mesh(mesh.nodes, mesh.triangles, markers)


def pseudo_time_step(system, s, c):
    state = system.evaluate(s)
    matrix, _ = system.matrix(state, c)
    delta = np.zeros_like(s)
    delta[system.free] = np.linalg.solve(matrix.toarray(), state.hcal[system.free])
    return state, delta


def test_step_projects_symmetry_mean_onto_mirror_line():
    # s = y climbs straight off the bottom mirror line: joined with its
    # reflection the fan sees |y|, whose mean gradient is zero, so each
    # SYMMETRY node sees H = 1 and a positive curvature term, while every
    # other node is at a fixed point; a short pseudo-time step raises
    # the SYMMETRY nodes and moves the rest far less
    mesh = sym_bottom_rect()
    system = system_for(mesh)
    s = mesh.nodes[:, 1].copy()
    state, delta = pseudo_time_step(system, s, 0.1)
    nn = mesh.n_nodes
    sym = np.flatnonzero(mesh.node_markers == Marker.SYMMETRY)
    assert len(sym) == 6
    np.testing.assert_array_equal(state.mean[nn + sym], 0.0)
    assert np.all(state.hcal[sym] > 1.0)
    rest = np.flatnonzero((mesh.node_markers != Marker.SYMMETRY) & (mesh.node_markers != Marker.IGNITION))
    np.testing.assert_allclose(state.hcal[rest], 0.0, atol=1e-12)
    assert np.all(delta[sym] > 0.0)
    assert delta[sym].min() > 5.0 * np.abs(delta[rest]).max()


def test_step_keeps_gradient_along_mirror_line():
    mesh = sym_bottom_rect()
    system = system_for(mesh)
    s = mesh.nodes[:, 0].copy()
    state, delta = pseudo_time_step(system, s, 1e3)
    assert state.max_residual < 1e-12
    assert np.abs(delta).max() < 1e-12


def test_step_exact_planar_field_is_a_fixed_point():
    mesh = rect_left_ignition()
    system = system_for(mesh)
    s = mesh.nodes[:, 0].copy()
    state, delta = pseudo_time_step(system, s, 1e3)
    assert state.max_residual < 1e-12
    assert np.abs(delta).max() < 1e-12
    # solve starts from the graph distance, here exact along the grid
    # rows, so it stops at once
    field = solve(mesh, 1.0)
    assert field.converged and field.n_steps == 0
    np.testing.assert_allclose(field.s, s, atol=1e-15)


# ---------------------------------------------------- residual and Jacobian


def reference_terms(mesh, s):
    """Node by node from the mesh geometry, without the operators of
    GeomCache: the angle-weighted mean of the triangle gradients
    (projected on a SYMMETRY node's boundary edges to SYMMETRY
    neighbours), L_i as the largest incident gradient, the unweighed
    tan(angle/2) edge sum less its response to the mean gradient's
    linear field, and the fan's angle sum."""
    nodes, tris, mk = mesh.nodes, mesh.triangles, mesh.node_markers
    grads = [np.linalg.solve(nodes[t[1:]] - nodes[t[0]], s[t[1:]] - s[t[0]]) for t in tris]
    nn = mesh.n_nodes
    means, Ls, disses, sums = np.empty((nn, 2)), np.empty(nn), np.empty(nn), np.empty(nn)
    for i in range(nn):
        mean, angles, L = np.zeros(2), 0.0, 0.0
        diss, bias, ring = 0.0, np.zeros(2), []
        for t, k in zip(*np.nonzero(tris == i)):
            j1, j2 = tris[t, (k + 1) % 3], tris[t, (k + 2) % 3]
            ring += [j1, j2]
            e1, e2 = nodes[j1] - nodes[i], nodes[j2] - nodes[i]
            angle = np.arccos(e1 @ e2 / np.sqrt((e1 @ e1) * (e2 @ e2)))
            mean += angle * grads[t]
            angles += angle
            L = max(L, np.sqrt(grads[t] @ grads[t]))
            for j, e in ((j1, e1), (j2, e2)):
                w = np.tan(0.5 * angle) / np.sqrt(e @ e)
                diss += w * (s[j] - s[i])
                bias += w * e
        mean /= angles
        if mk[i] == Marker.SYMMETRY:
            # an edge in one fan triangle only is a boundary edge; turn
            # each to the side of the first and take their mean line
            edges = [nodes[j] - nodes[i] for j in set(ring) if ring.count(j) == 1 and mk[j] == Marker.SYMMETRY]
            d = sum(e if e @ edges[0] >= 0.0 else -e for e in edges)
            d = d / np.sqrt(d @ d)
            mean = (mean @ d) * d
        means[i], Ls[i], disses[i], sums[i] = mean, L, diss - mean @ bias, angles
    return means, Ls, disses, sums


def reference_residual(mesh, rate, s, scale):
    """Hcal from reference_terms, with L_i floored at 1/max(rate) and the
    dissipation of a fan of angle sum a weighed by 2^round(log2(2 pi / a))."""
    mean, L, diss, angles = reference_terms(mesh, s)
    full_turn = 2.0 ** np.round(np.log2(2.0 * np.pi / angles))
    eps = scale * rate**2 * np.maximum(L, 1.0 / rate.max()) / np.pi
    return 1.0 - rate * np.hypot(mean[:, 0], mean[:, 1]) + eps * full_turn * diss


def test_step_residual_matches_reference_formulas(monkeypatch):
    # mid-solve state on a mesh with every marker, interior IGNITION
    # nodes, fans of 1, 2, 3 and 6 triangles and a rate that varies over
    # the nodes
    mesh = gen_rect(
        12,
        8,
        1.5,
        1.0,
        markers={"left": Marker.IGNITION, "bottom": Marker.SYMMETRY, "top": Marker.FREE},
    )
    assert set(np.bincount(mesh.triangles.ravel())) == {1, 2, 3, 6}
    mesh = with_ignition(mesh, [40, 41, 66])
    x, y = mesh.nodes.T
    rate = as_rate_field(mesh, 1.0 + 0.5 * x + 0.25 * y * y)
    monkeypatch.setattr(eikonal, "_MAX_STEPS", 2)
    partial = solve(mesh, rate)
    assert not partial.converged
    state = system_for(mesh, rate).evaluate(partial.s)
    ref = reference_residual(mesh, rate, partial.s, SolverConfig().dissipation_scale)
    assert np.abs(ref).max() > 0.01
    np.testing.assert_allclose(state.hcal, ref, rtol=0.0, atol=1e-12)


def test_step_matrix_holds_each_nodes_own_pseudo_time_step():
    # diag(1 / (c dt_i)) - J over the nodes not held, with dt_i each node's
    # explicit limit 0.5 scale h_i / (rate_i^2 max(L_i, floor)); the held
    # rows and columns, IGNITION ones inside the mesh included, are sliced out
    mesh = with_ignition(quarter_annulus(), [60, 61, 140])  # radially graded triangle heights
    cache = geom_cache(mesh)
    rate = as_rate_field(mesh, 2.0 + mesh.nodes[:, 0])
    held = mesh.node_markers == Marker.IGNITION
    system = _System(mesh, cache, rate, 0.25)
    state = system.evaluate(system.warm_start())
    c = 3.0
    matrix, dt_min = system.matrix(state, c)
    nn = mesh.n_nodes
    J = csr_array((system.jacobian(state), cache.edge_diss.indices, cache.edge_diss.indptr), shape=(nn, nn))
    dt = 0.5 * 0.25 * cache.node_min_height / (rate * rate * np.maximum(state.L, 1.0 / rate.max()))
    free = ~held
    expected = (np.diag(1.0 / (c * dt)) - J.toarray())[np.ix_(free, free)]
    np.testing.assert_allclose(matrix.toarray(), expected, rtol=1e-14, atol=0.0)
    assert dt_min == pytest.approx((c * dt[free]).min(), rel=1e-14)
    assert dt.max() > 2.0 * dt.min()


@pytest.mark.parametrize("at", ["converged", "warm-start"])
@pytest.mark.parametrize("name", ["slot-coarse", "bistar"])
def test_jacobian_matches_central_differences(name, at):
    # J v against (Hcal(s + h v) - Hcal(s - h v)) / 2h in random directions,
    # on meshes with SYMMETRY and FREE nodes (bistar: two rates).  Hcal is
    # only piecewise smooth: rows whose L_i changes triangle, or crosses
    # the floor, inside the difference interval are skipped.  On a
    # converged field many fans hold equal gradient norms, so about half
    # the rows of slot-coarse have a tied L_i.
    case = build_case(name)
    mesh = case.mesh
    system = system_for(mesh, case.rate)
    assert (mesh.node_markers == Marker.SYMMETRY).any()
    held = np.flatnonzero(mesh.node_markers == Marker.IGNITION)
    s = system.warm_start()
    if at == "converged":
        s = solve(mesh, case.rate, cache=system.cache).s
    state = system.evaluate(s)
    nn = mesh.n_nodes
    J = csr_array((system.jacobian(state), system.cache.edge_diss.indices, system.cache.edge_diss.indptr), shape=(nn, nn))
    rng = np.random.default_rng(11)
    h = 1e-8 * s.max()
    for _ in range(3):
        v = rng.standard_normal(nn)
        plus, minus = system.evaluate(s + h * v), system.evaluate(s - h * v)
        floor = system.floor
        smooth = (plus.tri == state.tri) & (minus.tri == state.tri)
        smooth &= ((plus.L > floor) == (state.L > floor)) & ((minus.L > floor) == (state.L > floor))
        smooth[held] = False
        assert np.count_nonzero(smooth) > 0.4 * (nn - len(held))
        fd = (plus.hcal - minus.hcal) / (2.0 * h)
        Jv = J @ v
        scale = np.abs(Jv[smooth]).max()
        np.testing.assert_allclose(Jv[smooth], fd[smooth], rtol=0.0, atol=1e-6 * scale)


def test_step_field_stays_nonnegative_while_marching(monkeypatch):
    # a tenfold rate jump takes enough iterations to watch the field move
    mesh = quarter_annulus(8, 12)
    rate = np.where(mesh.nodes[:, 0] > 1.0, 10.0, 1.0)
    for k in range(1, 30):
        monkeypatch.setattr(eikonal, "_MAX_STEPS", k)
        field = solve(mesh, rate)
        assert field.s.min() >= 0.0
        if field.converged:
            break
    assert field.converged and field.n_steps > 3


def test_solver_config_validation():
    for bad in (0.0, -0.25, 2.0, np.nan, np.inf):
        with pytest.raises(ValueError) as exc:
            SolverConfig(dissipation_scale=bad)
        assert str(exc.value) == f"dissipation_scale = {bad} must be in (0, 1]"


# ----------------------------------------------------------------- full solve


def test_solve_planar_front_on_unit_square():
    mesh = gen_rect(50, 50, 1.0, 1.0, markers={"left": Marker.IGNITION})
    field = solve(mesh, 1.0)
    assert field.converged
    assert np.abs(field.s - mesh.nodes[:, 0]).max() < 0.01


def test_solve_radial_front_on_quarter_annulus():
    # deliberately coarse; the curvature error here is ~1.4% and shrinks
    # with h (the fine-mesh accuracy gates live in the acceptance tests)
    mesh = quarter_annulus()
    field = solve(mesh, 1.0)
    assert field.converged
    r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    assert np.abs(field.s - (r - 1.0)).max() < 0.02


def test_solve_rate_doubling_halves_arrival_bitwise():
    mesh = quarter_annulus(8, 12)
    slow = solve(mesh, 1.0)
    fast = solve(mesh, 2.0)
    assert slow.converged and fast.converged
    assert slow.n_steps == fast.n_steps
    np.testing.assert_array_equal(slow.s, 2.0 * fast.s)


def test_solve_coordinate_scaling_scales_arrival():
    mesh = quarter_annulus(8, 12)
    big = Mesh(3.0 * mesh.nodes, mesh.triangles, mesh.node_markers)
    base = solve(mesh, 1.0)
    scaled = solve(big, 1.0)
    np.testing.assert_allclose(scaled.s, 3.0 * base.s, rtol=1e-9, atol=1e-12)


def test_solve_is_deterministic():
    mesh = quarter_annulus(6, 9)
    a = solve(mesh, 1.0)
    b = solve(mesh, 1.0)
    np.testing.assert_array_equal(a.s, b.s)
    np.testing.assert_array_equal(a.residual_history, b.residual_history)


def test_solve_needs_ignition_or_pins():
    mesh = gen_rect(4, 4, 1.0, 1.0)  # all sides FREE
    with pytest.raises(SolverError, match="IGNITION"):
        solve(mesh, 1.0)


def test_solve_names_a_node_no_held_node_reaches():
    # two rectangles side by side, ignition only on the first
    lit = rect_left_ignition(4, 2)
    dark = gen_rect(4, 2, 2.0, 1.0)
    mesh = Mesh(
        np.concatenate([lit.nodes, dark.nodes + [5.0, 0.0]]),
        np.concatenate([lit.triangles, dark.triangles + lit.n_nodes]),
        np.concatenate([lit.node_markers, dark.node_markers]),
    )
    with pytest.raises(SolverError, match=f"node {lit.n_nodes} is not connected"):
        solve(mesh, 1.0)


def test_solve_two_layer_rate():
    # rate jumps from 1 to 2 at x = 1; arrival stays continuous with a
    # slope break: x for x <= 1, then 1 + (x - 1) / 2
    mesh = rect_left_ignition(60, 10, 2.0, 0.25)
    x = mesh.nodes[:, 0]
    field = solve(mesh, np.where(x <= 1.0, 1.0, 2.0))
    assert field.converged
    exact = np.where(x <= 1.0, x, 1.0 + 0.5 * (x - 1.0))
    assert np.abs(field.s - exact).max() < 0.02


def test_a_solve_that_does_not_converge_stops_after_1000_iterations():
    # a thirtyfold rate jump at x = 1.3 on the coarse quarter annulus does
    # not converge; with _MAX_STEPS as shipped, the solve still returns
    mesh = quarter_annulus(8, 12)
    field = solve(mesh, np.where(mesh.nodes[:, 0] > 1.3, 30.0, 1.0))
    assert field.stop == "max steps" and field.converged is False
    assert field.n_steps == 1000 == len(field.residual_history)
    assert field.residual_history[-1] >= eikonal._TOL
    with pytest.raises(SolverError) as info:
        field.check("jump")
    assert str(info.value) == "case jump did not converge within 1000 steps"


def test_a_root_with_negative_arrival_times_is_not_converged():
    # a hundredfold jump at x = 1.3: the residual falls below tolerance
    # on a root that reaches below zero, about -1, so the field is not
    # an arrival field
    mesh = quarter_annulus(8, 12)
    field = solve(mesh, np.where(mesh.nodes[:, 0] > 1.3, 100.0, 1.0))
    assert field.residual_history[-1] < eikonal._TOL and field.n_steps < 1000
    assert field.s.min() < -0.5
    assert field.stop == "invalid root" and field.converged is False
    with pytest.raises(SolverError) as info:
        field.check("jump")
    assert str(info.value) == f"case jump reached an invalid root after {field.n_steps} steps"


def test_a_runaway_root_is_not_converged():
    # a thirtyfold jump at x = 1.0 on 257-point arcs: the residual falls
    # below tolerance on a root hundreds of times the graph distance
    mesh = quarter_annulus(8, 12, samples=257)
    rate = np.where(mesh.nodes[:, 0] > 1.0, 30.0, 1.0)
    field = solve(mesh, rate)
    assert field.residual_history[-1] < eikonal._TOL and field.n_steps < 1000
    d = system_for(mesh, rate).warm_start()
    assert field.s.min() >= 0.0
    assert np.max(field.s[d > 0.0] / d[d > 0.0]) > eikonal._RUNAWAY
    assert field.stop == "invalid root" and field.converged is False
    with pytest.raises(SolverError) as info:
        field.check("jump")
    assert str(info.value) == f"case jump reached an invalid root after {field.n_steps} steps"


def test_solve_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(eikonal, "_MAX_STEPS", 1)
    mesh = quarter_annulus(8, 12)
    field = solve(mesh, 1.0)
    assert field.stop == "max steps" and not field.converged
    with pytest.raises(AttributeError):
        field.converged = True  # it follows stop
    assert field.n_steps == 1
    assert len(field.residual_history) == len(field.dt_history) == 1
    assert field.residual_history[-1] >= eikonal._TOL


# each demo that solves, and the case it solves first
SOLVING_DEMOS = {
    "bipropellant_star": "bistar",
    "circle_perimeter_law": "circle",
    "interface_schemes": "scheme-corner+5",
    "slot_error_study": "slot-coarse",
}


@pytest.mark.parametrize("stop", ["max steps", "invalid root"])
@pytest.mark.parametrize("demo", sorted(SOLVING_DEMOS))
def test_a_demo_names_the_stop_of_its_solve_and_writes_nothing(demo, stop, solved, tmp_path, monkeypatch):
    name = SOLVING_DEMOS[demo]
    # how a root is judged does not change the iterations that reach it
    steps = solved(name)[1].n_steps
    path = Path(__file__).resolve().parents[1] / "demos" / f"{demo}.py"
    spec = importlib.util.spec_from_file_location(demo, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path)
    if stop == "max steps":
        monkeypatch.setattr(eikonal, "_MAX_STEPS", 0)
        message = f"case {name} did not converge within 0 steps"
    else:
        monkeypatch.setattr(eikonal, "_RUNAWAY", 0.0)
        message = f"case {name} reached an invalid root after {steps} steps"
    with pytest.raises(SolverError) as info:
        module.main()
    assert str(info.value) == message
    assert list(tmp_path.iterdir()) == []


def test_rejected_steps_count_toward_max_steps(monkeypatch):
    # the first step at c = 1e10 is a full Newton step from the graph
    # distance, which overshoots across a tenfold rate jump; without
    # halvings each rejected step keeps the field, quarters c and still
    # counts as an iteration
    monkeypatch.setattr(eikonal, "_HALVINGS", 0)
    mesh = quarter_annulus(8, 12)
    rate = np.where(mesh.nodes[:, 0] > 1.0, 10.0, 1.0)
    monkeypatch.setattr(eikonal, "_MAX_STEPS", 4)
    field = solve(mesh, rate)
    assert not field.converged and field.n_steps == 4
    np.testing.assert_array_equal(field.residual_history, field.residual_history[0])
    np.testing.assert_array_equal(field.dt_history[1:], field.dt_history[:-1] / 4.0)
    monkeypatch.setattr(eikonal, "_MAX_STEPS", 1)
    first = solve(mesh, rate)
    np.testing.assert_array_equal(field.s, first.s)


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_registry_cases_converge_within_eight_iterations(solved, name):
    case, field, _ = solved(name)
    assert field.stop == "converged" and field.converged and field.n_steps <= 8
    assert field.check(name) is field
    # each root lies well inside the bound a converged field meets: s at
    # most twice the warm start's graph distance
    system = system_for(case.mesh, case.rate)
    assert np.all(field.s <= 2.0 * system.warm_start())
    if field.n_steps:
        # the history ends on the residual of the field returned
        assert field.residual_history[-1] == system.evaluate(field.s).max_residual


def test_rate_jump_converges_through_a_shortened_step(monkeypatch):
    # across a tenfold rate jump the full Newton step from the graph
    # distance overshoots; a step accepted at a fraction of its length
    # shows as a factorization whose first trial more than doubles the
    # residual and whose iteration still moves the field
    events = []
    factor, evaluate = eikonal.splu, _System.evaluate

    def logged_factor(*args, **kwargs):
        events.append(None)
        return factor(*args, **kwargs)

    def logged_evaluate(self, s):
        state = evaluate(self, s)
        events.append(state.max_residual)
        return state

    monkeypatch.setattr(eikonal, "splu", logged_factor)
    monkeypatch.setattr(_System, "evaluate", logged_evaluate)
    mesh = quarter_annulus(8, 12)
    field = solve(mesh, np.where(mesh.nodes[:, 0] > 1.0, 10.0, 1.0))
    assert field.converged and field.n_steps <= 10

    starts = [k for k, e in enumerate(events) if e is None]
    assert len(starts) == field.n_steps
    trials = [events[a + 1 : b] for a, b in zip(starts, starts[1:] + [len(events)])]
    assert all(1 <= len(t) <= 5 for t in trials)
    before = np.concatenate([[events[0]], field.residual_history[:-1]])
    shortened = [
        k
        for k, t in enumerate(trials[:-1])
        if t[0] > 2.0 * before[k] and field.residual_history[k] != before[k]
    ]
    assert shortened
