"""Isochrone extraction, burn curves, CSV and SVG emitters."""

from __future__ import annotations

import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnback import eikonal, postproc
from burnback.cases import CASE_BUILDERS
from burnback.contour import make_circle
from burnback.eikonal import solve
from burnback.mesh import Marker, gen_coons, gen_rect
from burnback.postproc import (
    _g,
    burn_curves,
    emit_csv,
    emit_svg,
    error_field,
)


@pytest.fixture()
def planar():
    mesh = gen_rect(20, 10, 2.0, 1.0, markers={"left": Marker.IGNITION})
    return mesh, mesh.nodes[:, 0].copy()


@pytest.fixture()
def radial():
    t = np.linspace(0.0, 0.5 * np.pi, 64)
    ring = np.column_stack([np.cos(t), np.sin(t)])
    mesh = gen_coons(ring, 2.0 * ring, 24, 36)
    return mesh, np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1]) - 1.0


def mono_curves(mesh, s, taus):
    return burn_curves(mesh, s, np.ones(mesh.n_nodes, dtype=int), 1.0, taus)


def perimeters(mesh, s, taus):
    return mono_curves(mesh, s, taus).P_b


def isocontour(mesh, s, tau):
    return postproc._isocontour(mesh, s, tau, postproc._unique_edges(mesh.triangles))


# ------------------------------------------------------------------ contours


def test_isocontour_of_planar_field_is_vertical_line(planar):
    mesh, s = planar
    polylines = isocontour(mesh, s, 0.7)
    assert len(polylines) == 1
    line = polylines[0]
    np.testing.assert_allclose(line[:, 0], 0.7, atol=1e-12)
    assert line[:, 1].min() == pytest.approx(0.0, abs=1e-12)
    assert line[:, 1].max() == pytest.approx(1.0, abs=1e-12)


def test_perimeter_of_planar_field(planar):
    mesh, s = planar
    np.testing.assert_allclose(perimeters(mesh, s, [0.3, 0.7, 1.5]), 1.0, rtol=1e-12)


def test_port_area_of_planar_field(planar):
    mesh, s = planar
    # 0.3 and 0.7 cut through the triangles, 1.5 passes through a grid
    # column; the partial areas carry rounding, so allow ~1e-12 slack
    taus = [0.3, 0.7, 1.5]
    for tau, area in zip(taus, mono_curves(mesh, s, taus).A_p):
        assert area == pytest.approx(tau * 1.0, rel=1e-9)


def test_segments_stay_inside_their_host_triangles(planar):
    mesh, s = planar
    _, hosts, _, points, seg_edges = postproc._cut(mesh, s - 0.6123, postproc._unique_edges(mesh.triangles))
    assert points.shape == (len(hosts), 2, 2) and seg_edges.shape == (len(hosts), 2)
    for ends, tri in zip(points, hosts):
        corners = mesh.nodes[mesh.triangles[tri]]
        for p in ends:
            # barycentric coordinates of p within the host triangle
            T = np.column_stack([corners[1] - corners[0], corners[2] - corners[0]])
            lam = np.linalg.solve(T, p - corners[0])
            assert lam.min() >= -1e-9 and lam.sum() <= 1.0 + 1e-9


def test_perimeter_of_radial_field_matches_circle(radial):
    mesh, s = radial
    # quarter ring between the burn front and the casing
    taus = np.array([0.25, 0.5, 0.75])
    curves = mono_curves(mesh, s, taus)
    np.testing.assert_allclose(curves.P_b, 0.5 * np.pi * (1.0 + taus), rtol=2e-3)
    for tau, area in zip(taus, curves.A_p):
        exact_area = 0.25 * np.pi * ((1.0 + tau) ** 2 - 1.0)
        assert area == pytest.approx(exact_area, rel=2e-3)


def test_level_through_a_grid_column_is_exact(planar):
    # nodes exactly at tau count as unburned: the line runs through them
    mesh, s = planar
    tau = mesh.nodes[7, 0]
    assert np.count_nonzero(s == tau) == 11
    curves = mono_curves(mesh, s, [tau])
    assert curves.P_b[0] == 1.0
    assert curves.A_p[0] == pytest.approx(tau * 1.0, rel=1e-15)
    polylines = isocontour(mesh, s, tau)
    assert polylines
    for line in polylines:
        np.testing.assert_array_equal(line[:, 0], tau)


def test_burn_curves_are_invariant_under_power_of_two_field_scaling(planar):
    # the products of tiny node values underflow; the cut must not need them
    mesh, s = planar
    taus = np.array([0.3, 0.7, 1.5])
    scale = 2.0**-550
    plain = mono_curves(mesh, s, taus)
    tiny = mono_curves(mesh, s * scale, taus * scale)
    np.testing.assert_array_equal(tiny.P_b, plain.P_b)
    np.testing.assert_array_equal(tiny.A_p, plain.A_p)
    assert np.all(tiny.P_b > 0.0)


def test_isocontour_outside_range_is_empty(planar):
    mesh, s = planar
    assert isocontour(mesh, s, 5.0) == []
    np.testing.assert_array_equal(perimeters(mesh, s, [5.0]), 0.0)


# ---------------------------------------------------------------- burn curves


def test_burn_curves_two_propellant_bookkeeping(planar):
    mesh, s = planar
    labels = np.where(mesh.nodes[:, 0] <= 1.0, 1, 2)
    curves = burn_curves(mesh, s, labels, 2.0, [0.5, 1.5])
    # at tau = 0.5 the front is entirely in propellant 1, at 1.5 in 2
    assert curves.P_b[0] == pytest.approx(1.0, rel=1e-12)
    assert curves.A_eq[0] == pytest.approx(1.0, rel=1e-12)
    assert curves.P_b[1] == pytest.approx(1.0, rel=1e-12)
    assert curves.A_eq[1] == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(curves.A_p, [0.5, 1.5], rtol=1e-9)


def test_burn_curves_unit_ratio_collapses_to_perimeter(planar):
    mesh, s = planar
    labels = np.where(mesh.nodes[:, 0] <= 0.8, 1, 2)
    curves = burn_curves(mesh, s, labels, 1.0, np.linspace(0.2, 1.8, 9))
    np.testing.assert_array_equal(curves.A_eq, curves.P_b)


def test_burn_curves_validation(planar):
    mesh, s = planar
    ones = np.ones(mesh.n_nodes, dtype=int)
    with pytest.raises(ValueError, match="labels"):
        burn_curves(mesh, s, ones[:-1], 1.0, [0.5])
    with pytest.raises(ValueError, match="1 or 2"):
        burn_curves(mesh, s, 3 * ones, 1.0, [0.5])
    with pytest.raises(ValueError, match="f"):
        burn_curves(mesh, s, ones, 0.5, [0.5])
    with pytest.raises(ValueError, match="increasing"):
        burn_curves(mesh, s, ones, 1.0, [1.0, 0.5])


@pytest.mark.parametrize("taus", [[0.5, np.nan], [np.nan], [0.5, np.inf], [-np.inf, 0.5]])
def test_burn_curves_rejects_nonfinite_levels(planar, taus):
    mesh, s = planar
    with pytest.raises(ValueError, match="not finite"):
        mono_curves(mesh, s, taus)


@pytest.mark.parametrize("length", [np.nan, np.inf, 0.0, -1.0])
def test_burn_curves_rejects_bad_grain_length(planar, length):
    mesh, s = planar
    ones = np.ones(mesh.n_nodes, dtype=int)
    with pytest.raises(ValueError, match="grain_length"):
        burn_curves(mesh, s, ones, 1.0, [0.5], grain_length=length)


def test_burn_curves_grain_length_column(planar):
    mesh, s = planar
    ones = np.ones(mesh.n_nodes, dtype=int)
    curves = burn_curves(mesh, s, ones, 1.0, [0.5, 1.0], grain_length=3.0)
    np.testing.assert_allclose(curves.A_b, 3.0 * curves.P_b, rtol=1e-15)


def test_burn_curves_empty_grid(planar):
    mesh, s = planar
    ones = np.ones(mesh.n_nodes, dtype=int)
    curves = burn_curves(mesh, s, ones, 1.0, [])
    assert emit_csv(curves) == "tau,P_b,A_p,A_eq\n"


# --------------------------------------------------------------- error fields


def test_error_field_zero_for_exact(planar):
    mesh, s = planar
    out = error_field(mesh, s, mesh.nodes[:, 0])
    assert out.max_abs == 0.0
    assert out.mean_abs == 0.0


def test_error_field_normalizes_by_peak_depth(planar):
    mesh, s = planar
    out = error_field(mesh, s + 0.02, mesh.nodes[:, 0])
    assert out.max_abs == pytest.approx(0.01)  # 0.02 against a depth of 2


def test_error_field_zero_for_contour_distance_oracle(radial):
    # |r - 1| is the distance to the unit circular port; the inner rim
    # nodes sit on chords of the circle, slightly inside it
    mesh, s = radial
    assert s.min() < 0.0
    out = error_field(mesh, np.abs(s), make_circle(1.0).distance(mesh.nodes))
    assert out.max_abs < 1e-14


def test_error_field_rejects_zero_oracle(planar):
    mesh, s = planar
    with pytest.raises(ValueError, match="zero"):
        error_field(mesh, s, np.zeros(mesh.n_nodes))


def _curves(P_b, A_p):
    tau = np.arange(len(P_b), dtype=np.float64)
    return postproc.BurnCurves(tau=tau, P_b=np.array(P_b), A_p=np.array(A_p), A_eq=np.array(P_b))


def _overflowing_error(mesh, s):
    # finite inputs whose difference overflows at node 11
    s, exact = s.copy(), mesh.nodes[:, 0].copy()
    s[11], exact[11] = 1e308, -1e308
    with np.errstate(over="ignore"):
        return error_field(mesh, s, exact)


# each input check not reached above: the call on the planar field and
# its ValueError message
POSTPROC_ERRORS = {
    "negative perimeter": (lambda mesh, s: _curves([1.0, -1e-300], [0.0, 1.0]), "negative perimeter"),
    "shrinking port": (lambda mesh, s: _curves([1.0, 1.0], [1.0, 0.5]), "port area must be non-decreasing"),
    # unchecked, emit_csv would write one row, as zip stops at the shortest
    "short column": (
        lambda mesh, s: postproc.BurnCurves(
            tau=np.arange(3.0), P_b=np.array([1.0]), A_p=np.arange(3.0), A_eq=np.ones(3)
        ),
        "P_b has shape (1,), not (3,): one value per tau",
    ),
    # a nan passes the sign and order checks, so each column is checked for it first
    "nan perimeter": (lambda mesh, s: _curves([1.0, np.nan], [0.0, 1.0]), "P_b is not finite at tau index 1"),
    "nan port area": (lambda mesh, s: _curves([0.1, 0.2], [np.nan, 1.0]), "A_p is not finite at tau index 0"),
    "infinite equivalent perimeter": (
        lambda mesh, s: postproc.BurnCurves(tau=[0.0, 1.0], P_b=[1.0, 1.0], A_p=[0.0, 1.0], A_eq=[1.0, np.inf]),
        "A_eq is not finite at tau index 1",
    ),
    "infinite burning area": (
        lambda mesh, s: postproc.BurnCurves(
            tau=[0.0, 1.0], P_b=[1.0, 1.0], A_p=[0.0, 1.0], A_eq=[1.0, 1.0], A_b=[-np.inf, 1.0]
        ),
        "A_b is not finite at tau index 0",
    ),
    "oracle length": (lambda mesh, s: error_field(mesh, s, s[:-1]), "oracle has 230 values for 231 mesh nodes"),
    "non-finite error": (
        lambda mesh, s: error_field(mesh, np.where(s > 1.0, np.nan, s), mesh.nodes[:, 0]),
        "field is not finite at node 11",
    ),
    "overflowing error": (_overflowing_error, "non-finite error value at node 11"),
    "non-finite err column": (
        lambda mesh, s: emit_csv(s, mesh=mesh, err=np.where(s > 1.0, np.inf, 0.0)),
        "err is not finite at node 11",
    ),
    "scalar tau": (lambda mesh, s: mono_curves(mesh, s, 0.5), "tau grid must be one-dimensional, not 0-D"),
    "2-D tau grid": (
        lambda mesh, s: mono_curves(mesh, s, [[0.5, 1.0], [1.5, 1.8]]),
        "tau grid must be one-dimensional, not 2-D",
    ),
    "decreasing tau grid": (
        lambda mesh, s: mono_curves(mesh, s, [0.5, 1.5, 1.0]),
        "tau grid must be strictly increasing: tau[2] = 1.0 follows 1.5",
    ),
    "repeated tau": (
        lambda mesh, s: mono_curves(mesh, s, [0.5, 0.5]),
        "tau grid must be strictly increasing: tau[1] = 0.5 follows 0.5",
    ),
    "nan rate ratio": (
        lambda mesh, s: burn_curves(mesh, s, np.ones(mesh.n_nodes), np.nan, [0.5]),
        "rate ratio f = nan must be finite and >= 1",
    ),
    "infinite rate ratio": (
        lambda mesh, s: burn_curves(mesh, s, np.ones(mesh.n_nodes), np.inf, [0.5]),
        "rate ratio f = inf must be finite and >= 1",
    ),
}


@pytest.mark.parametrize("name", sorted(POSTPROC_ERRORS))
def test_postproc_input_errors(planar, name):
    build, message = POSTPROC_ERRORS[name]
    with pytest.raises(ValueError) as exc:
        build(*planar)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


def test_burn_curves_take_array_likes_and_keep_read_only_copies():
    curves = postproc.BurnCurves(tau=[0, 1, 2], P_b=[1.0, 1.0, 1.0], A_p=[0, 1, 2], A_eq=[1, 1, 1])
    assert curves.A_b is None
    A_p = np.arange(3.0)
    again = postproc.BurnCurves(tau=curves.tau, P_b=curves.P_b, A_p=A_p, A_eq=curves.A_eq, A_b=[2, 2, 2])
    expected = {"tau": [0, 1, 2], "P_b": [1, 1, 1], "A_p": [0, 1, 2], "A_eq": [1, 1, 1]}
    for c in (curves, again):
        for name, values in expected.items():
            column = getattr(c, name)
            assert column.dtype == np.float64 and not column.flags.writeable
            assert column.tolist() == values
    assert again.A_b.tolist() == [2.0, 2.0, 2.0] and not again.A_b.flags.writeable
    A_p[0] = 5.0
    assert again.A_p[0] == 0.0


# each function that reads a field, called on a field of the given length
FIELD_READERS = {
    "burn_curves": lambda mesh, s: mono_curves(mesh, s, [0.5, 1.0]),
    "emit_svg": lambda mesh, s: emit_svg(mesh, s, levels=(0.5,)),
    "error_field": lambda mesh, s: error_field(mesh, s, mesh.nodes[:, 0]),
    "emit_csv": lambda mesh, s: emit_csv(s, mesh=mesh),
}


@pytest.mark.parametrize(
    "size", [1, 233, 228, (231, 1)], ids=["one value", "two long", "three short", "a column"]
)
@pytest.mark.parametrize("name", sorted(FIELD_READERS))
def test_a_field_of_the_wrong_length_is_named(planar, name, size):
    # unchecked, a short field fails deep in indexing or broadcasting and
    # a long or one-value field yields numbers for nodes that do not exist;
    # a column holds one value per node, so its shape is named instead
    mesh, s = planar
    with pytest.raises(ValueError) as exc:
        FIELD_READERS[name](mesh, np.resize(s, size))
    assert type(exc.value) is ValueError
    if np.ndim(size):
        assert str(exc.value) == "field has shape (231, 1), not (231,): one value per mesh node"
    else:
        assert str(exc.value) == f"field has {size} values for 231 mesh nodes"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(FIELD_READERS))
def test_a_non_finite_field_is_named(planar, name, bad):
    # unchecked, a nan field gives nan curves and a CSV row ending in nan
    mesh, s = planar
    s[100] = bad
    with pytest.raises(ValueError) as exc:
        FIELD_READERS[name](mesh, s)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "field is not finite at node 100"


# ------------------------------------------------------------------- emitters


def parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], np.array(rows[1:], dtype=np.float64)


def test_emit_csv_burn_curves_round_trip(planar):
    mesh, s = planar
    ones = np.ones(mesh.n_nodes, dtype=int)
    curves = burn_curves(mesh, s, ones, 1.0, np.linspace(0.1, 1.9, 7))
    head, data = parse_csv(emit_csv(curves))
    assert head == ["tau", "P_b", "A_p", "A_eq"]
    np.testing.assert_allclose(data[:, 0], curves.tau, rtol=1e-11)
    np.testing.assert_allclose(data[:, 1], curves.P_b, rtol=1e-11)
    np.testing.assert_allclose(data[:, 2], curves.A_p, rtol=1e-11)


def test_emit_csv_field_and_residuals(planar, radial, monkeypatch):
    mesh, s = planar
    head, data = parse_csv(emit_csv(s, mesh=mesh))
    assert head == ["node", "x", "y", "s"]
    assert data.shape == (mesh.n_nodes, 4)
    np.testing.assert_allclose(data[:, 3], s, rtol=1e-11)
    err = error_field(mesh, s + 0.02, mesh.nodes[:, 0]).values
    head, data = parse_csv(emit_csv(s, mesh=mesh, err=err))
    assert head == ["node", "x", "y", "s", "err"]
    assert data.shape == (mesh.n_nodes, 5)
    np.testing.assert_allclose(data[:, 4], err, rtol=1e-11)

    # the tenfold rate jump needs more than 3 iterations
    jump = np.where(radial[0].nodes[:, 0] > 1.0, 10.0, 1.0)
    monkeypatch.setattr(eikonal, "_MAX_STEPS", 3)
    field = solve(radial[0], jump)
    assert not field.converged
    head, data = parse_csv(emit_csv(field))
    assert head == ["step", "dt", "max_residual"]
    assert data.shape == (3, 3)
    np.testing.assert_array_equal(data[:, 0], np.arange(1, 4))
    np.testing.assert_allclose(data[:, 2], field.residual_history, rtol=1e-11)


def test_emit_csv_field_needs_mesh(planar):
    _, s = planar
    with pytest.raises(ValueError, match="mesh"):
        emit_csv(s)


@pytest.mark.parametrize("extra", [-1, 1])
def test_emit_csv_err_needs_one_value_per_node(planar, extra):
    mesh, s = planar
    with pytest.raises(ValueError, match="err"):
        emit_csv(s, mesh=mesh, err=np.zeros(mesh.n_nodes + extra))


def test_emit_svg_isochrone_groups(planar):
    mesh, s = planar
    svg = emit_svg(mesh, s, levels=(0.5, 1.0, 1.5))
    assert svg.count('<g class="isochrone"') == 3
    assert 'data-tau="0.5"' in svg
    assert "viewBox" in svg
    assert "<polyline" in svg


def test_emit_svg_contour_only(radial):
    mesh, s = radial
    svg = emit_svg(mesh, s, contour=make_circle(1.0), show_mesh=False)
    assert "viewBox" in svg and 'stroke="#d62728"' in svg
    assert "<polyline" not in svg and 'stroke="#cccccc"' not in svg


def test_emit_svg_mesh_toggle(planar):
    mesh, s = planar
    with_mesh = emit_svg(mesh, s, levels=(0.5,))
    without = emit_svg(mesh, s, levels=(0.5,), show_mesh=False)
    assert len(without) < len(with_mesh)


def test_emit_svg_levels_need_field(planar):
    mesh, _ = planar
    with pytest.raises(ValueError, match="field"):
        emit_svg(mesh, None, levels=(0.5,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_emit_svg_rejects_nonfinite_level(planar, bad):
    mesh, s = planar
    with pytest.raises(ValueError, match="not finite"):
        emit_svg(mesh, s, levels=(0.5, bad))


def test_emit_svg_builds_one_edge_table(planar, monkeypatch):
    mesh, s = planar
    calls = []
    build = postproc._unique_edges

    def counted(tri):
        calls.append(len(tri))
        return build(tri)

    monkeypatch.setattr(postproc, "_unique_edges", counted)
    emit_svg(mesh, s, levels=(0.5, 1.0, 1.5))
    assert calls == [mesh.n_triangles]


@pytest.mark.parametrize("name", ["star", "bistar"])
def test_emit_svg_groups_hold_the_isocontour_polylines(solved, name):
    case, field, _ = solved(name)
    levels = [k * field.s.max() / 9.0 for k in range(1, 9)]
    svg = emit_svg(case.mesh, field.s, levels=levels, contour=case.port)
    groups = re.findall(r'<g class="isochrone" data-tau="([^"]*)">\n(.*?)</g>', svg, flags=re.S)
    assert [tau for tau, _ in groups] == [_g(tau) for tau in levels]
    for tau, (_, body) in zip(levels, groups):
        drawn = re.findall(r'<polyline points="([^"]*)"', body)
        expected = [" ".join(f"{_g(x)},{_g(-y)}" for x, y in poly) for poly in isocontour(case.mesh, field.s, tau)]
        assert expected and drawn == expected


# ------------------------------------------------- reference chainer (oracle)


def _reference_cut(mesh, v, table):
    # the all-edge cut that _cut replaced, kept as the oracle: one crossing
    # per mesh edge, indexed by edge id
    edges, tri_edge = table
    burned = v < 0.0
    corner_burned = burned[mesh.triangles]
    nburned = corner_burned.sum(axis=1)
    hosts = np.flatnonzero((nburned == 1) | (nburned == 2))
    lone = np.argmax(corner_burned[hosts] == (nburned[hosts] == 1)[:, None], axis=1)
    seg_edges = tri_edge[hosts[:, None], postproc._LONE_SIDES[lone]]

    va, vb = v[edges[:, 0]], v[edges[:, 1]]
    crossed = burned[edges[:, 0]] != burned[edges[:, 1]]
    t = np.where(crossed, va / np.where(crossed, va - vb, 1.0), 0.0)
    pa, pb = mesh.nodes[edges[:, 0]], mesh.nodes[edges[:, 1]]
    points = pa + t[:, None] * (pb - pa)
    return nburned, hosts, lone, points, seg_edges


def _reference_isocontour(mesh, s, tau, table):
    # the dict walk that the mate-array chainer replaced, verbatim except
    # that it returns the crossing points and each chain's edge ids
    _, _, _, points, seg_edges = _reference_cut(mesh, s - tau, table)
    nseg = len(seg_edges)
    if nseg == 0:
        return points, []

    incident: dict[int, list[int]] = {}
    for k in range(nseg):
        for e in seg_edges[k]:
            incident.setdefault(int(e), []).append(k)

    used = np.zeros(nseg, dtype=bool)

    def walk(seg: int, start_edge: int) -> list[int]:
        chain = [start_edge]
        cur_seg, cur_edge = seg, start_edge
        while True:
            used[cur_seg] = True
            a, b = (int(x) for x in seg_edges[cur_seg])
            nxt_edge = b if a == cur_edge else a
            chain.append(nxt_edge)
            candidates = [k for k in incident[nxt_edge] if not used[k]]
            if not candidates:
                return chain
            cur_seg, cur_edge = candidates[0], nxt_edge

    chains = []
    # every crossing touches at most two segments, so chains are simple:
    # trace open ones from their degree-1 ends first, then closed loops
    for passno in range(2):
        for k in range(nseg):
            if used[k]:
                continue
            a, b = (int(x) for x in seg_edges[k])
            if passno == 0 and len(incident[a]) != 1 and len(incident[b]) != 1:
                continue
            start = a if passno == 1 or len(incident[a]) == 1 else b
            chains.append(np.asarray(walk(k, start)))
    return points, chains


def reference_polylines(mesh, s, tau, table):
    """The reference polylines, less the repeated point that each
    zero-length tie segment adds: consecutive chain edges are the two cut
    sides of one host, and that host's segment is a tie segment when the
    node the two sides share sits exactly at tau."""
    points, chains = _reference_isocontour(mesh, s, tau, table)
    edges = table[0]
    polylines = []
    for chain in chains:
        a, b = edges[chain[:-1]], edges[chain[1:]]
        shared = np.where((a[:, 0] == b[:, 0]) | (a[:, 0] == b[:, 1]), a[:, 0], a[:, 1])
        polylines.append(points[chain[np.concatenate([[True], s[shared] != tau])]])
    return polylines


def assert_same_polylines(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("name", list(CASE_BUILDERS))
def test_chainer_matches_the_reference_walk_on_every_case(solved, name):
    case, field, _ = solved(name)
    table = postproc._unique_edges(case.mesh.triangles)
    depth = case.depth if case.depth is not None else field.s.max()  # as the CLI takes it
    cli_levels = depth * np.arange(1, 9) / 9.0
    curve_levels = np.linspace(0.05 * depth, 0.95 * depth, 33)
    for tau in np.concatenate([cli_levels, curve_levels]):
        got = postproc._isocontour(case.mesh, field.s, tau, table)
        assert got
        assert_same_polylines(got, reference_polylines(case.mesh, field.s, tau, table))


@pytest.mark.parametrize("k", [3, 6])
def test_rect_tied_level_draws_each_node_once(solved, k):
    # tau = 2/3 and 4/3 at the contours defaults: 31 nodes sit exactly there
    case, field, _ = solved("rect")
    tau = case.depth * k / 9.0
    assert np.count_nonzero(field.s == tau) == 31
    polylines = isocontour(case.mesh, field.s, tau)
    assert len(polylines) == 1 and polylines[0].shape == (31, 2)
    assert np.all(np.any(np.diff(polylines[0], axis=0) != 0.0, axis=1))
    groups = re.findall(r'<polyline points="([^"]*)"', emit_svg(case.mesh, field.s, levels=[tau]))
    assert len(groups) == 1 and len(groups[0].split()) == 31


@st.composite
def meshed_fields(draw):
    if draw(st.booleans()):
        mesh = gen_rect(draw(st.integers(1, 6)), draw(st.integers(1, 6)), 2.0, 1.0)
    else:
        t = np.linspace(0.0, 0.5 * np.pi, draw(st.integers(2, 9)))
        ring = np.column_stack([np.cos(t), np.sin(t)])
        outer = draw(st.sampled_from([1.5, 2.0, 3.0])) * ring
        # the chainer reads no marker; FREE sides keep one-row lofts valid,
        # where a SYMMETRY side would have no SYMMETRY edge
        free = {"side0": Marker.FREE, "side1": Marker.FREE}
        mesh = gen_coons(ring, outer, draw(st.integers(1, 5)), draw(st.integers(1, 5)), markers=free)
    # small integers tie many nodes; arbitrary floats tie none
    value = st.one_of(st.integers(-3, 3).map(float), st.floats(-2.0, 2.0, allow_nan=False))
    s = np.array(draw(st.lists(value, min_size=mesh.n_nodes, max_size=mesh.n_nodes)))
    values = np.unique(s)
    i = draw(st.integers(0, len(values) - 1))
    if draw(st.booleans()) or i == len(values) - 1:
        tau = values[i]
    else:
        tau = 0.5 * values[i] + 0.5 * values[i + 1]
    return mesh, s, float(tau)


@settings(max_examples=150, deadline=None)
@given(meshed_fields())
def test_chainer_matches_the_reference_walk_on_random_fields(drawn):
    mesh, s, tau = drawn
    table = postproc._unique_edges(mesh.triangles)
    got = postproc._isocontour(mesh, s, tau, table)
    if np.any(s == tau):
        assert_same_polylines(got, reference_polylines(mesh, s, tau, table))
    else:
        # with no node at tau there is no tie segment: the walks agree exactly
        points, chains = _reference_isocontour(mesh, s, tau, table)
        assert_same_polylines(got, [points[chain] for chain in chains])
