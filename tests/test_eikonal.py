"""Arrival-time relaxation: rate fields, single steps, full solves."""

from __future__ import annotations

import numpy as np
import pytest

from burnback.eikonal import (
    CFL_SAFETY,
    SolverConfig,
    SolverError,
    as_rate_field,
    solve,
    step,
    triangle_gradients,
)
from burnback.mesh import Marker, Mesh, gen_coons, gen_rect, geom_cache


def rect_left_ignition(nx=20, ny=10, width=2.0, height=1.0):
    return gen_rect(nx, ny, width, height, markers={"left": Marker.IGNITION})


def quarter_annulus(nu=12, nv=18, r0=1.0, r1=2.0):
    t = np.linspace(0.0, 0.5 * np.pi, 64)
    ring = np.column_stack([np.cos(t), np.sin(t)])
    return gen_coons(r0 * ring, r1 * ring, nu, nv)


# ---------------------------------------------------------------- rate fields


def test_as_rate_field_scalar_array_callable():
    mesh = rect_left_ignition(4, 2)
    np.testing.assert_array_equal(as_rate_field(mesh, 2.0), np.full(mesh.n_nodes, 2.0))
    arr = np.linspace(1.0, 3.0, mesh.n_nodes)
    np.testing.assert_array_equal(as_rate_field(mesh, arr), arr)
    field = as_rate_field(mesh, lambda x, y: 1.0 + x + 0.0 * y)
    np.testing.assert_allclose(field, 1.0 + mesh.nodes[:, 0])


def test_as_rate_field_rejects_bad_values():
    mesh = rect_left_ignition(4, 2)
    with pytest.raises(SolverError, match="node 0"):
        as_rate_field(mesh, -1.0)
    with pytest.raises(SolverError, match="shape"):
        as_rate_field(mesh, np.ones(3))
    bad = np.ones(mesh.n_nodes)
    bad[7] = np.nan
    with pytest.raises(SolverError, match="node 7"):
        as_rate_field(mesh, bad)


def test_triangle_gradients_linear_field_exact():
    mesh = rect_left_ignition(7, 5)
    s = 3.0 * mesh.nodes[:, 0] + 4.0 * mesh.nodes[:, 1] - 7.0
    grad = triangle_gradients(mesh, s)
    np.testing.assert_allclose(grad[:, 0], 3.0, atol=1e-12)
    np.testing.assert_allclose(grad[:, 1], 4.0, atol=1e-12)
    np.testing.assert_allclose(triangle_gradients(mesh, np.ones(mesh.n_nodes)), 0.0, atol=1e-15)


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


def test_node_mean_rows_sum_to_one():
    cache = geom_cache(mixed_sides_rect())
    np.testing.assert_allclose(cache.node_mean.sum(axis=1), 1.0, rtol=1e-14)


def test_edge_dissipation_vanishes_on_constant_and_linear_fields():
    mesh = mixed_sides_rect()
    cache = geom_cache(mesh)
    np.testing.assert_array_equal(cache.edge_diss @ np.ones(mesh.n_nodes), 0.0)
    g = np.array([3.0, -2.0])
    s = mesh.nodes @ g + 0.5
    bias = cache.node_beta_bias
    np.testing.assert_allclose(cache.edge_diss @ s, g @ bias, atol=1e-12)
    # one-sided boundary fans respond to a linear field, full fans do not
    boundary = mesh.node_markers != Marker.INTERIOR
    assert np.abs(bias[:, boundary]).max() > 1.0
    np.testing.assert_allclose(bias[:, ~boundary], 0.0, atol=1e-12)


# ---------------------------------------------------------- boundary handling


def sym_bottom_rect():
    return gen_rect(6, 4, 1.0, 1.0, markers={"bottom": Marker.SYMMETRY, "left": Marker.IGNITION})


def test_half_fan_dissipation_rows_are_doubled():
    # SYMMETRY and FREE nodes see half a fan; their rows carry twice the
    # weight of the same mesh with every boundary marker but IGNITION cleared
    mesh = sym_bottom_rect()
    mk = mesh.node_markers
    half = (mk == Marker.SYMMETRY) | (mk == Marker.FREE)
    assert half.any() and (~half).any()
    plain = Mesh(mesh.nodes, mesh.triangles, np.where(half, Marker.INTERIOR, mk))
    cache, ref = geom_cache(mesh), geom_cache(plain)
    D, D0 = cache.edge_diss.toarray(), ref.edge_diss.toarray()
    np.testing.assert_array_equal(D[half], 2.0 * D0[half])
    np.testing.assert_array_equal(D[~half], D0[~half])
    bias, bias0 = cache.node_beta_bias, ref.node_beta_bias
    np.testing.assert_array_equal(bias[:, half], 2.0 * bias0[:, half])
    np.testing.assert_array_equal(bias[:, ~half], bias0[:, ~half])


def test_step_projects_symmetry_mean_onto_mirror_line():
    # s = y climbs straight off the bottom mirror line: joined with its
    # reflection the fan sees |y|, whose mean gradient is zero, so each
    # SYMMETRY node sees H = 1 and a positive curvature term and advances
    # by at least its own step, while every other node is at a fixed point
    mesh = sym_bottom_rect()
    cache = geom_cache(mesh)
    rate = as_rate_field(mesh, 1.0)
    config = SolverConfig()
    s = mesh.nodes[:, 1].copy()
    res = step(mesh, cache, rate, s, config)
    sym = cache.sym_nodes
    assert len(sym) == 6
    dt = 0.5 * CFL_SAFETY * config.dissipation_scale * cache.node_min_height
    assert np.all(res.s[sym] - s[sym] >= 0.99 * dt[sym])
    rest = mesh.node_markers != Marker.SYMMETRY
    np.testing.assert_allclose(res.s[rest], s[rest], atol=1e-12)


def test_step_keeps_gradient_along_mirror_line():
    mesh = sym_bottom_rect()
    cache = geom_cache(mesh)
    s = mesh.nodes[:, 0].copy()
    res = step(mesh, cache, as_rate_field(mesh, 1.0), s, SolverConfig())
    np.testing.assert_allclose(res.s, s, atol=1e-12)
    assert res.max_residual < 1e-12


# --------------------------------------------------------------- single steps


def test_step_from_zero_grows_by_each_nodes_own_step():
    # zero field: unit Hamiltonian everywhere, no dissipation, and every
    # gradient at the floor 1/rate, so each node not held at the ignition
    # value advances by exactly its own CFL step 0.5 cfl scale h_i / rate
    mesh = quarter_annulus()  # radially graded triangle heights
    cache = geom_cache(mesh)
    rate = as_rate_field(mesh, 2.0)
    config = SolverConfig()
    res = step(mesh, cache, rate, np.zeros(mesh.n_nodes), config)
    ign = cache.is_ignition
    dt = 0.5 * CFL_SAFETY * config.dissipation_scale * cache.node_min_height / rate
    np.testing.assert_array_equal(res.s[ign], 0.0)
    np.testing.assert_array_equal(res.s[~ign], dt[~ign])
    assert res.dt == dt.min() > 0.0
    assert dt.max() > 1.2 * dt.min()


def reference_step(cache, rate, s, config, held):
    """The step as it was written before the stacked operator and the fan
    table: (nt, 2) gradient columns, node_mean applied to both at once,
    L_i by reduceat over node_mean's pattern, and a masked update."""
    nt = cache.node_mean.shape[1]
    U = np.column_stack([cache.grad[:nt] @ s, cache.grad[nt:] @ s])
    Unorm = np.sqrt(U[:, 0] ** 2 + U[:, 1] ** 2)
    grad_mean = cache.node_mean @ U
    sym, t = cache.sym_nodes, cache.sym_dir.T
    along = grad_mean[sym, 0] * t[:, 0] + grad_mean[sym, 1] * t[:, 1]
    grad_mean[sym] = along[:, None] * t
    fan = cache.node_mean
    L_eff = np.maximum(np.maximum.reduceat(Unorm[fan.indices], fan.indptr[:-1]), 1.0 / rate.max())
    rate_scale = rate * rate * L_eff
    eps = config.dissipation_scale * rate_scale / np.pi
    bias = cache.node_beta_bias.T
    acc = cache.edge_diss @ s - (grad_mean[:, 0] * bias[:, 0] + grad_mean[:, 1] * bias[:, 1])
    H = 1.0 - rate * np.sqrt(grad_mean[:, 0] ** 2 + grad_mean[:, 1] ** 2)
    Hcal = H + eps * acc
    dt = 0.5 * CFL_SAFETY * config.dissipation_scale * cache.node_min_height / rate_scale
    s_new = np.where(held, s, s + dt * Hcal)
    return s_new, dt, float(np.abs(Hcal[~held]).max())


def test_step_matches_reference_formulas_bitwise():
    # mid-march state on a mesh with every marker, pinned nodes, fans of
    # 1, 2, 3 and 6 triangles and a rate that varies over the nodes
    mesh = gen_rect(
        12,
        8,
        1.5,
        1.0,
        markers={"left": Marker.IGNITION, "bottom": Marker.SYMMETRY, "top": Marker.FREE},
    )
    cache = geom_cache(mesh)
    assert set(np.diff(cache.node_mean.indptr)) == {1, 2, 3, 6}
    rate = as_rate_field(mesh, lambda x, y: 1.0 + 0.5 * x + 0.25 * y * y)
    config = SolverConfig()
    pins = np.array([40, 41, 66])
    partial = solve(mesh, rate, config=SolverConfig(max_steps=25), pinned=(pins, [0.3, 0.31, 0.5]))
    assert not partial.converged
    s = partial.s
    held = cache.is_ignition.copy()
    held[pins] = True
    res = step(mesh, cache, rate, s, config, held)
    ref_s, ref_dt, ref_residual = reference_step(cache, rate, s, config, held)
    # StepResult carries min(dt_i); each node's own dt_i enters s through
    # its update, s_i + dt_i * Hcal_i
    assert np.count_nonzero(res.s != s) > 0.8 * np.count_nonzero(~held)
    np.testing.assert_array_equal(res.s, ref_s)
    assert res.dt == ref_dt.min()
    assert ref_dt.max() > 2.0 * ref_dt.min()
    assert res.max_residual == ref_residual > 0.0
    nt = mesh.n_triangles
    np.testing.assert_array_equal(res.grad, np.concatenate([cache.grad[:nt] @ s, cache.grad[nt:] @ s]))


def test_step_exact_planar_field_is_a_fixed_point():
    mesh = rect_left_ignition()
    cache = geom_cache(mesh)
    rate = as_rate_field(mesh, 1.0)
    config = SolverConfig()
    s = mesh.nodes[:, 0].copy()
    res = step(mesh, cache, rate, s, config)
    assert np.abs(res.s - s).max() <= res.dt * config.convergence_tol
    assert res.max_residual < 1e-12


def test_step_field_stays_nonnegative_while_marching():
    mesh = rect_left_ignition(16, 8)
    cache = geom_cache(mesh)
    rate = as_rate_field(mesh, 1.0)
    config = SolverConfig()
    s = np.zeros(mesh.n_nodes)
    for _ in range(400):
        s = step(mesh, cache, rate, s, config).s
        assert s.min() >= 0.0


def test_step_rejects_nonfinite_state():
    mesh = rect_left_ignition(6, 4)
    cache = geom_cache(mesh)
    rate = as_rate_field(mesh, 1.0)
    s = np.zeros(mesh.n_nodes)
    s[10] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(SolverError, match="node"):
            step(mesh, cache, rate, s, SolverConfig())


def test_solver_config_validation():
    for bad in (
        dict(convergence_tol=-1.0),
        dict(convergence_tol=np.inf),
        dict(convergence_tol=np.nan),
        dict(max_steps=0),
        dict(dissipation_scale=0.0),
        dict(dissipation_scale=2.0),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


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
    big = Mesh(
        3.0 * mesh.nodes,
        mesh.triangles,
        mesh.node_markers,
        mesh.symmetry_lines,
        mesh.node_symline,
    )
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


def test_solve_pinned_immersed_front_allows_negative_depth():
    # ignition line at x = 0.25 expressed with pins only: pinned values
    # left of it are negative, no node carries an IGNITION marker
    mesh = gen_rect(40, 10, 2.0, 0.5)
    x = mesh.nodes[:, 0]
    idx = np.flatnonzero(x <= 0.3 + 1e-12)
    field = solve(mesh, 1.0, pinned=(idx, x[idx] - 0.25))
    assert field.converged
    assert field.s.min() < 0.0
    assert np.abs(field.s - (x - 0.25)).max() < 0.01


def test_solve_pinned_shape_mismatch():
    mesh = rect_left_ignition(4, 2)
    with pytest.raises(SolverError, match="pinned"):
        solve(mesh, 1.0, pinned=(np.array([0, 1]), np.array([0.0])))


@pytest.mark.parametrize(
    "ids, match",
    [([3, -1], "pinned id -1 "), ([3, 28], "pinned id 28 "), ([3, 5, 3], "pinned id 3 ")],
    ids=["negative", "past-last-node", "duplicate"],
)
def test_solve_rejects_bad_pinned_ids(ids, match):
    mesh = gen_rect(6, 3, 1.0, 0.5)
    assert mesh.n_nodes == 28
    with pytest.raises(SolverError, match=match):
        solve(mesh, 1.0, pinned=(np.array(ids), np.zeros(len(ids))))


def test_solve_two_layer_rate():
    # rate jumps from 1 to 2 at x = 1; arrival stays continuous with a
    # slope break: x for x <= 1, then 1 + (x - 1) / 2
    mesh = rect_left_ignition(60, 10, 2.0, 0.25)
    x = mesh.nodes[:, 0]
    field = solve(mesh, lambda px, py: np.where(px <= 1.0, 1.0, 2.0))
    assert field.converged
    exact = np.where(x <= 1.0, x, 1.0 + 0.5 * (x - 1.0))
    assert np.abs(field.s - exact).max() < 0.02


def test_solve_reports_nonconvergence():
    mesh = rect_left_ignition(10, 5)
    field = solve(mesh, 1.0, config=SolverConfig(max_steps=5))
    assert not field.converged
    assert field.n_steps == 5
    assert len(field.residual_history) == 5
