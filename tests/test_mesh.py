"""Mesh generation, serialization, merging, and geometry cache."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnback.mesh import (
    Marker,
    Mesh,
    MeshError,
    SymmetryLine,
    _close_pairs,
    gen_coons,
    gen_rect,
    geom_cache,
    load_mesh,
    merge_meshes,
    save_mesh,
    validate_mesh,
)


def total_area(mesh) -> float:
    p = mesh.nodes[mesh.triangles]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return 0.5 * float(np.sum(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]))


def arc(radius: float, a0: float, a1: float, n: int) -> np.ndarray:
    t = np.linspace(a0, a1, n)
    return radius * np.column_stack([np.cos(t), np.sin(t)])


# ---------------------------------------------------------------- structured


def test_gen_rect_counts_and_area():
    mesh = gen_rect(8, 5, 2.0, 1.0)
    assert mesh.nodes.shape == (9 * 6, 2)
    assert mesh.triangles.shape == (2 * 8 * 5, 3)
    assert total_area(mesh) == pytest.approx(2.0, rel=1e-12)


def test_gen_rect_default_markers_free():
    mesh = gen_rect(4, 4, 1.0, 1.0)
    on_boundary = (
        np.isclose(mesh.nodes[:, 0], 0.0)
        | np.isclose(mesh.nodes[:, 0], 1.0)
        | np.isclose(mesh.nodes[:, 1], 0.0)
        | np.isclose(mesh.nodes[:, 1], 1.0)
    )
    assert np.all(mesh.node_markers[on_boundary] == Marker.FREE)
    assert np.all(mesh.node_markers[~on_boundary] == Marker.INTERIOR)


def test_gen_rect_corner_takes_higher_priority_marker():
    mesh = gen_rect(
        4,
        4,
        1.0,
        1.0,
        markers={"left": Marker.IGNITION, "bottom": Marker.SYMMETRY},
    )
    origin = np.flatnonzero(
        np.isclose(mesh.nodes[:, 0], 0.0) & np.isclose(mesh.nodes[:, 1], 0.0)
    )
    assert mesh.node_markers[origin[0]] == Marker.IGNITION
    # the rest of the bottom edge keeps its symmetry tag and line id
    bottom = np.isclose(mesh.nodes[:, 1], 0.0) & (mesh.nodes[:, 0] > 1e-9)
    assert np.all(mesh.node_markers[bottom] == Marker.SYMMETRY)
    assert np.all(mesh.node_symline[bottom] >= 0)


def test_gen_rect_rejects_bad_arguments():
    with pytest.raises(MeshError):
        gen_rect(0, 4, 1.0, 1.0)
    with pytest.raises(MeshError):
        gen_rect(4, 4, -1.0, 1.0)
    with pytest.raises(MeshError):
        gen_rect(4, 4, 1.0, 1.0, markers={"north": Marker.FREE})


def test_gen_coons_quarter_annulus():
    inner = arc(1.0, 0.0, 0.5 * np.pi, 40)
    outer = arc(2.0, 0.0, 0.5 * np.pi, 40)
    mesh = gen_coons(inner, outer, 10, 30)
    assert mesh.nodes.shape == (11 * 31, 2)
    assert total_area(mesh) == pytest.approx(0.25 * np.pi * 3.0, rel=2e-3)
    # corner precedence: IGNITION keeps the inner corners, SYMMETRY the outer
    assert np.sum(mesh.node_markers == Marker.IGNITION) == 31
    assert np.sum(mesh.node_markers == Marker.FREE) == 31 - 2
    sym = mesh.node_markers == Marker.SYMMETRY
    assert np.sum(sym) == 2 * (11 - 1)
    assert len(mesh.symmetry_lines) == 2
    assert np.all(mesh.node_symline[sym] >= 0)


def test_gen_coons_accepts_either_orientation():
    inner = arc(1.0, 0.0, 0.5 * np.pi, 40)
    outer = arc(2.0, 0.0, 0.5 * np.pi, 40)
    flipped = gen_coons(inner[::-1], outer[::-1], 6, 12)
    assert total_area(flipped) > 0.0
    validate_mesh(flipped)


def test_gen_rect_symmetry_sides_bind_corners_in_side_order():
    sym = dict.fromkeys(("left", "right", "bottom", "top"), Marker.SYMMETRY)
    mesh = gen_rect(3, 2, 1, 1, markers=sym)
    assert [(ln.point, ln.direction) for ln in mesh.symmetry_lines] == [
        ((0.0, 0.0), (0.0, 1.0)),
        ((1.0, 0.0), (0.0, 1.0)),
        ((0.0, 0.0), (1.0, 0.0)),
        ((0.0, 1.0), (1.0, 0.0)),
    ]
    # node (iu, iv) is 4 iv + iu; a corner goes to the first of its two
    # sides in left, right, bottom, top order
    assert mesh.node_symline.tolist() == [0, 2, 2, 1, 0, -1, -1, 1, 0, 3, 3, 1]


def test_gen_coons_side_chords_run_from_inner_to_outer_in_a_flipped_loft():
    inner = arc(1.0, 0.0, 0.5 * np.pi, 40)
    outer = arc(2.0, 0.0, 0.5 * np.pi, 40)
    mesh = gen_coons(inner, outer, 3, 5)
    # this loft is clockwise, so each cell's two triangles were reversed
    assert mesh.triangles[:2].tolist() == [[0, 7, 1], [0, 6, 7]]
    for line, a, b in zip(mesh.symmetry_lines, inner[[0, -1]], outer[[0, -1]]):
        assert line.point == tuple(a)
        assert line.direction == pytest.approx(tuple((b - a) / np.hypot(*(b - a))), abs=1e-15)
    # node (iu, iv) is 6 iv + iu; the inner corners stay IGNITION
    assert mesh.node_symline[0::6].tolist() == [-1, 0, 0, 0]
    assert mesh.node_symline[5::6].tolist() == [-1, 1, 1, 1]


def test_gen_coons_rejects_symmetry_on_longitudinal_boundaries():
    inner = arc(1.0, 0.0, 0.5 * np.pi, 40)
    outer = arc(2.0, 0.0, 0.5 * np.pi, 40)
    with pytest.raises(MeshError):
        gen_coons(inner, outer, 6, 12, markers={"inner": Marker.SYMMETRY})


def test_gen_coons_degenerate_cells_are_reported():
    # outer curve dips below the inner one mid-span, so the loft folds over
    inner = np.column_stack([np.linspace(0.0, 1.0, 30), np.zeros(30)])
    x = np.linspace(0.0, 1.0, 30)
    outer = np.column_stack([x, 1.0 - 2.4 * np.sin(np.pi * x)])
    with pytest.raises(MeshError, match="cell"):
        gen_coons(inner, outer, 8, 16)


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(min_value=1, max_value=12),
    ny=st.integers(min_value=1, max_value=12),
    width=st.floats(min_value=0.1, max_value=50.0),
    height=st.floats(min_value=0.1, max_value=50.0),
)
def test_gen_rect_area_identity(nx, ny, width, height):
    mesh = gen_rect(nx, ny, width, height)
    assert total_area(mesh) == pytest.approx(width * height, rel=1e-9)


# ------------------------------------------------------------- serialization


def test_save_load_round_trip_is_exact():
    mesh = gen_rect(5, 3, 1.5, 0.7, markers={"left": Marker.IGNITION, "bottom": Marker.SYMMETRY})
    text = save_mesh(mesh)
    again = load_mesh(text)
    np.testing.assert_array_equal(mesh.nodes, again.nodes)
    np.testing.assert_array_equal(mesh.triangles, again.triangles)
    np.testing.assert_array_equal(mesh.node_markers, again.node_markers)
    np.testing.assert_array_equal(mesh.node_symline, again.node_symline)
    assert save_mesh(again) == text


def test_load_mesh_errors_carry_line_numbers():
    text = save_mesh(gen_rect(2, 2, 1.0, 1.0))
    lines = text.splitlines()
    lines[3] = "not a node record"
    with pytest.raises(MeshError, match="line 4"):
        load_mesh("\n".join(lines))


def test_load_mesh_rejects_trailing_records():
    text = save_mesh(gen_rect(2, 2, 1.0, 1.0))
    with pytest.raises(MeshError):
        load_mesh(text + "0 1 2\n")


# save_mesh of a 2x1 block with an ignition left side and a symmetry
# bottom: header on line 1, the symmetry line on line 2, nodes on lines
# 3-8 (nodes 1 and 2 SYMMETRY), triangles on lines 9-12.
DOC = [
    "4 6 1",
    "0 0 1 0",
    "0 0 1",
    "0.5 0 3 0",
    "1 0 3 0",
    "0 1 1",
    "0.5 1 2",
    "1 1 2",
    "0 1 4",
    "0 4 3",
    "1 2 5",
    "1 5 4",
]


def edited(edits: dict, padded: bool) -> str:
    """DOC with lines replaced (a key one past the end appends); padded
    adds two leading comment/blank lines and a comment on every record."""
    lines = list(DOC)
    for ln, text in edits.items():
        lines[ln - 1 : ln] = [text]
    if padded:
        lines = ["# a mesh", "", *(f"{rec}  # note" for rec in lines)]
    return "\n".join(lines)


# (edits, message, line the message names); "{}" in a message stands for
# that line, which moves down by 2 in the padded document
LOAD_ERRORS = {
    "header-width": ({1: "4 6"}, "line {}: header must be 'ntri nnode nsym'", 1),
    "header-long": ({1: "4 6 1 0"}, "line {}: header must be 'ntri nnode nsym'", 1),
    "header-word": ({1: "4 6 x"}, "line {}: header must hold three integers", 1),
    "header-float": ({1: "4 6 1.0"}, "line {}: header must hold three integers", 1),
    "symline-width": ({2: "0 0 1"}, "line {}: symmetry line needs 'px py dx dy'", 2),
    "symline-number": ({2: "0 0 1 x"}, "line {}: bad number in symmetry line", 2),
    "node-short": ({3: "0 0"}, "line {}: node record needs 'x y marker [symline]'", 3),
    "node-long": ({3: "0 0 1 0 0"}, "line {}: node record needs 'x y marker [symline]'", 3),
    "node-x": ({3: "x 0 1"}, "line {}: bad number in node record", 3),
    "node-y": ({6: "0 y 1"}, "line {}: bad number in node record", 6),
    "node-marker": ({3: "0 0 1.5"}, "line {}: bad number in node record", 3),
    "node-extra-symline": ({3: "0 0 1 0"}, "line {}: symline given for a non-SYMMETRY node", 3),
    "node-bad-symline": ({4: "0.5 0 3 x"}, "line {}: bad symline index", 4),
    "node-no-symline": ({5: "1 0 3"}, "line {}: SYMMETRY node missing its symline index", 5),
    "tri-short": ({9: "0 1"}, "line {}: triangle record needs 'i0 i1 i2'", 9),
    "tri-long": ({12: "1 5 4 0"}, "line {}: triangle record needs 'i0 i1 i2'", 12),
    "tri-id": ({10: "0 4 x"}, "line {}: bad node id in triangle record", 10),
    "trailing": ({13: "0 1 2"}, "line {}: trailing records beyond declared counts", 13),
    # a wrong header count shifts the blocks, and the error names the
    # first record that no longer fits
    "nnode-high": ({1: "4 7 1"}, "unexpected end of mesh document", None),
    "nnode-low": ({1: "4 5 1"}, "line {}: trailing records beyond declared counts", 12),
    "ntri-high": ({1: "5 6 1"}, "unexpected end of mesh document", None),
    "ntri-low": ({1: "3 6 1"}, "line {}: trailing records beyond declared counts", 12),
    "nsym-high": ({1: "4 6 2"}, "line {}: symmetry line needs 'px py dx dy'", 3),
    "nsym-low": ({1: "4 6 0"}, "line {}: symline given for a non-SYMMETRY node", 2),
    "nnode-into-tris": (
        {1: "4 7 1", 9: "0 1 3"}, "line {}: SYMMETRY node missing its symline index", 9
    ),
    # within a record: width, then numbers, then the symline token
    "width-before-number": ({3: "0 0 x 0 0"}, "line {}: node record needs 'x y marker [symline]'", 3),
    "number-before-symline": ({4: "x 0 3"}, "line {}: bad number in node record", 4),
    "extra-before-bad-symline": ({3: "0 0 1 x"}, "line {}: symline given for a non-SYMMETRY node", 3),
    # across records: the earliest line, whatever the kind
    "number-before-width": ({8: "1 1", 3: "x 0 1"}, "line {}: bad number in node record", 3),
    "marker-before-y": ({6: "0 y 1", 4: "0.5 0 q 0"}, "line {}: bad number in node record", 4),
    "bad-before-extra-symline": ({5: "1 0 3 x", 6: "0 1 1 0"}, "line {}: bad symline index", 5),
    "missing-before-extra-symline": (
        {4: "0.5 0 3", 6: "0 1 1 0"}, "line {}: SYMMETRY node missing its symline index", 4
    ),
    "node-before-tri": ({11: "1 2", 7: "0.5 1 3"}, "line {}: SYMMETRY node missing its symline index", 7),
    "tri-id-before-width": ({12: "1 5", 9: "0 1 x"}, "line {}: bad node id in triangle record", 9),
    "tri-width-before-id": ({10: "0 4", 12: "1 x 4"}, "line {}: triangle record needs 'i0 i1 i2'", 10),
    # well-formed records that break a mesh invariant
    "marker-value": ({3: "0 0 7"}, "invalid marker value at node 0", None),
    "tri-range": ({9: "0 1 6"}, "triangle 0 references a node outside 0..5", None),
    "symline-range": ({4: "0.5 0 3 1"}, "SYMMETRY node 1 has no valid symmetry line reference", None),
    "off-line": ({4: "0.5 0.25 3 0"}, "SYMMETRY node 1 lies off symmetry line 0 by 2.500e-01", None),
    "clockwise": (
        {9: "0 4 1"}, "non-positive triangle area (clockwise or degenerate): triangles [0]", None
    ),
}


@pytest.mark.parametrize("padded", [False, True], ids=["plain", "padded"])
@pytest.mark.parametrize("name", sorted(LOAD_ERRORS))
def test_load_mesh_error_table(name, padded):
    edits, message, line = LOAD_ERRORS[name]
    assert load_mesh(edited({}, padded)).n_nodes == 6
    with pytest.raises(MeshError) as exc:
        load_mesh(edited(edits, padded))
    assert str(exc.value) == message.format(line + 2 * padded if line else None)


@pytest.mark.parametrize("text", ["", "\n  \n", "# comment only\n\n"])
def test_load_mesh_empty_document(text):
    with pytest.raises(MeshError, match="^empty mesh document$"):
        load_mesh(text)


# faults that escaped as numpy errors, bare OverflowErrors or wrong
# messages, or loaded silently
NEW_ERRORS = {
    "ntri-negative": ({1: "-1 6 1"}, "line 1: header counts must be non-negative"),
    "nnode-negative": ({1: "4 -6 1"}, "line 1: header counts must be non-negative"),
    "nsym-negative": ({1: "4 6 -1"}, "line 1: header counts must be non-negative"),
    "ntri-huge": ({1: "99999999999999999999 6 1"}, "unexpected end of mesh document"),
    "tri-id-huge": ({9: "0 1 99999999999999999999999"}, "line 9: bad node id in triangle record"),
    "marker-huge": ({3: "0 0 99999999999999999999"}, "line 3: bad number in node record"),
    "symline-huge": ({4: "0.5 0 3 -99999999999999999999"}, "line 4: bad symline index"),
    "point-nan": ({2: "nan 0 1 0"}, "line 2: symmetry line point must be finite"),
    "direction-nan": ({2: "0 0 nan 0"}, "line 2: symmetry line direction must be finite"),
    "direction-inf": ({2: "0 0 1e400 0"}, "line 2: symmetry line direction must be finite"),
    "direction-zero": ({2: "0 0 0 0"}, "line 2: symmetry line needs a nonzero direction"),
    "node-nan": ({3: "nan 0 1"}, "non-finite coordinate at node 0"),
    "node-inf": ({7: "0.5 1e400 2"}, "non-finite coordinate at node 4"),
}


@pytest.mark.parametrize("name", sorted(NEW_ERRORS))
def test_load_mesh_names_bad_counts_and_numbers(name):
    edits, message = NEW_ERRORS[name]
    with pytest.raises(MeshError) as exc:
        load_mesh(edited(edits, False))
    assert str(exc.value) == message


def test_symmetry_line_direction_is_normalised_at_any_scale():
    for scale in (1e-200, 1.0, 1e200):
        line = SymmetryLine((0.0, 0.0), (3.0 * scale, -4.0 * scale))
        assert line.direction == pytest.approx((0.6, -0.8), rel=1e-15)


_DRAWN = st.one_of(
    st.integers().map(str),
    st.sampled_from(["", "-1", "-0", "nan", "-inf", "1e400", "99999999999999999999999"]),
    st.floats().map(repr),
    st.text(max_size=5),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_mesh_raises_only_mesh_error(data):
    # one token, or one whole record, of DOC replaced by drawn text
    recs = [ln.split() for ln in DOC]
    r = data.draw(st.integers(0, len(recs) - 1), label="record")
    drawn = data.draw(_DRAWN, label="text")
    if data.draw(st.booleans(), label="whole record"):
        recs[r] = [drawn]
    else:
        recs[r][data.draw(st.integers(0, len(recs[r]) - 1), label="token")] = drawn
    try:
        mesh = load_mesh("\n".join(map(" ".join, recs)))
    except MeshError:
        return
    assert isinstance(mesh, Mesh)


def test_validate_rejects_inverted_triangle():
    mesh = gen_rect(2, 2, 1.0, 1.0)
    mesh.triangles[0] = mesh.triangles[0][::-1]
    with pytest.raises(MeshError, match="non-positive"):
        validate_mesh(mesh)


def test_validate_rejects_overflowing_triangle_areas():
    rect = gen_rect(2, 2, 1.0, 1.0)
    rect.nodes *= 1e200  # every cross product overflows to inf
    sliver = Mesh([[0.0, 0.0], [1e200, 1e200], [1e200, 2e200]], [[0, 1, 2]], [0, 0, 0])  # inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError, match=r"area overflows float64: triangles \[0, 1, 2, 3, 4, 5, 6, 7\]"):
            validate_mesh(rect)
        with pytest.raises(MeshError, match=r"area overflows float64: triangles \[0\]"):
            validate_mesh(sliver)


def test_validate_symmetry_tolerance_survives_large_coordinates():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh = gen_rect(100, 1, 1e155, 1e153, markers={"bottom": Marker.SYMMETRY})
        mesh.nodes[50, 1] += 1e150
        with pytest.raises(MeshError, match="SYMMETRY node 50 lies off symmetry line 0"):
            validate_mesh(mesh)


def test_validate_rejects_nonmanifold_edge():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [1.5, 1.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    from burnback.mesh import Mesh

    with pytest.raises(MeshError, match="edge on more than two triangles"):
        validate_mesh(Mesh(nodes, tris, np.zeros(5, dtype=np.int64)))
    doubled = np.array([[0, 1, 2], [0, 1, 2]])
    with pytest.raises(MeshError, match="edge on more than two triangles"):
        validate_mesh(Mesh(nodes[:3], doubled, np.zeros(3, dtype=np.int64)))


# ------------------------------------------------------------------- merging


def test_merge_meshes_welds_shared_edge():
    left = gen_rect(4, 3, 1.0, 1.0)
    right = gen_rect(4, 3, 1.0, 1.0)
    right = type(right)(
        right.nodes + np.array([1.0, 0.0]),
        right.triangles,
        right.node_markers,
        right.symmetry_lines,
        right.node_symline,
    )
    merged = merge_meshes([left, right])
    assert merged.nodes.shape[0] == 2 * 5 * 4 - 4
    assert merged.triangles.shape[0] == 2 * 24
    assert total_area(merged) == pytest.approx(2.0, rel=1e-12)
    validate_mesh(merged)


def shifted(mesh, dx):
    lines = [SymmetryLine((ln.point[0] + dx, ln.point[1]), ln.direction) for ln in mesh.symmetry_lines]
    return Mesh(mesh.nodes + [dx, 0.0], mesh.triangles, mesh.node_markers, lines, mesh.node_symline)


def test_combine_markers_rank_order():
    # a welded node takes the stronger of its two markers, whichever side
    # of the seam carries it: ignition beats symmetry beats free beats interior
    order = [Marker.INTERIOR, Marker.FREE, Marker.SYMMETRY, Marker.IGNITION]
    for i, low in enumerate(order):
        for high in order[i:]:
            for a, b in ((low, high), (high, low)):
                left = gen_rect(2, 2, 1.0, 1.0, markers={"right": a})
                right = shifted(gen_rect(2, 2, 1.0, 1.0, markers={"left": b}), 1.0)
                merged = merge_meshes([left, right])
                mid = np.flatnonzero(np.all(merged.nodes == [1.0, 0.5], axis=1))
                assert len(mid) == 1
                assert merged.node_markers[mid[0]] == high
                if high == Marker.SYMMETRY:
                    line = merged.symmetry_lines[merged.node_symline[mid[0]]]
                    assert line.point[0] == 1.0 and line.direction == (0.0, 1.0)


def test_close_pairs_match_brute_force():
    # many exact duplicates and shared x coordinates, plus near misses
    rng = np.random.default_rng(2)
    scattered = rng.random((300, 2)).round(1)
    scattered[::7, 1] += 5e-10
    scattered[::11, 1] += 2e-9
    # one long run of equal x, as along a straight seam, welded pairwise
    y = np.linspace(0.0, 1.0, 400)
    column = np.column_stack([np.full(800, 0.5), np.concatenate([y, y + 5e-10])])
    column[::9, 0] += 2e-9
    tol = 1e-9
    for pts in (scattered, column):
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        want = set(zip(*np.nonzero(np.triu(dist <= tol, 1))))
        got = _close_pairs(pts, tol)
        assert len(got) == len(want) > 100
        assert set(map(tuple, np.sort(got, axis=1))) == want


def test_merge_meshes_combines_markers_by_rank():
    a = gen_rect(2, 2, 1.0, 1.0, markers={"right": Marker.IGNITION})
    b = gen_rect(2, 2, 1.0, 1.0, markers={"left": Marker.FREE})
    b = type(b)(
        b.nodes + np.array([1.0, 0.0]),
        b.triangles,
        b.node_markers,
        b.symmetry_lines,
        b.node_symline,
    )
    merged = merge_meshes([a, b])
    seam = np.isclose(merged.nodes[:, 0], 1.0)
    assert np.all(merged.node_markers[seam] == Marker.IGNITION)


def test_merge_meshes_dedupes_symmetry_lines():
    a = gen_rect(3, 2, 1.0, 1.0, markers={"bottom": Marker.SYMMETRY})
    b = gen_rect(3, 2, 1.0, 1.0, markers={"bottom": Marker.SYMMETRY})
    b = type(b)(
        b.nodes + np.array([1.0, 0.0]),
        b.triangles,
        b.node_markers,
        b.symmetry_lines,
        b.node_symline,
    )
    merged = merge_meshes([a, b])
    assert len(merged.symmetry_lines) == 1
    sym = merged.node_markers == Marker.SYMMETRY
    assert np.all(merged.node_symline[sym] == 0)


def test_merge_meshes_welds_only_the_seam_at_large_coordinates():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rect = gen_rect(100, 1, 1e155, 1e153, markers={"bottom": Marker.SYMMETRY})
        merged = merge_meshes([rect, shifted(rect, 1e155)])
    assert merged.n_nodes == 2 * 202 - 2
    assert len(merged.symmetry_lines) == 1


# ------------------------------------------------------------ geometry cache


def test_geom_cache_angle_sums():
    # mean_grad weighs each incident triangle gradient by its corner angle
    # over the node's angle sum: 2 pi at interior nodes, pi at straight
    # boundary nodes
    mesh = gen_rect(6, 5, 1.3, 0.9)
    cache = geom_cache(mesh)
    nn, nt = mesh.n_nodes, mesh.n_triangles
    p = mesh.nodes[mesh.triangles]
    a, b = p[:, [1, 2, 0]] - p, p[:, [2, 0, 1]] - p
    cos = (a * b).sum(axis=2) / np.sqrt((a**2).sum(axis=2) * (b**2).sum(axis=2))
    corner = np.arccos(cos)
    s = np.random.default_rng(5).standard_normal(nn)
    g = cache.grad @ s
    mean = cache.mean_grad @ s
    ptr, cols = cache.mean_grad.indptr, cache.mean_grad.indices
    interior = mesh.node_markers == Marker.INTERIOR
    edge_mid = (
        np.isclose(mesh.nodes[:, 1], 0.0)
        & (mesh.nodes[:, 0] > 1e-9)
        & (mesh.nodes[:, 0] < 1.3 - 1e-9)
    )
    assert interior.any() and edge_mid.any()
    for i in np.flatnonzero(interior | edge_mid):
        t, k = np.nonzero(mesh.triangles == i)
        angle_sum = 2.0 * np.pi if interior[i] else np.pi
        w = corner[t, k] / angle_sum
        np.testing.assert_allclose([mean[i], mean[nn + i]], [w @ g[t], w @ g[nt + t]], rtol=1e-12, atol=1e-12)
        assert set(cols[ptr[i] : ptr[i + 1]]) == set(mesh.triangles[t].ravel())


def test_geom_cache_min_heights_positive_and_bounded():
    mesh = gen_rect(7, 4, 2.0, 1.0)
    cache = geom_cache(mesh)
    assert np.all(cache.node_min_height > 0.0)
    edge = mesh.nodes[mesh.triangles[:, [1, 2, 0]]] - mesh.nodes[mesh.triangles]
    assert np.all(cache.node_min_height <= np.sqrt((edge**2).sum(axis=2)).max())


def test_geom_cache_gradient_of_linear_field_is_exact():
    mesh = gen_rect(5, 5, 1.0, 1.0)
    cache = geom_cache(mesh)
    s = 3.0 * mesh.nodes[:, 0] + 4.0 * mesh.nodes[:, 1] - 7.0
    g = cache.grad @ s
    np.testing.assert_allclose(g[: mesh.n_triangles], 3.0, atol=1e-12)
    np.testing.assert_allclose(g[mesh.n_triangles :], 4.0, atol=1e-12)


def heptagon_fan():
    # seven triangles around node 0, two at each rim node
    a = 2.0 * np.pi * np.arange(7) / 7.0
    nodes = np.vstack([[0.0, 0.0], np.column_stack([np.cos(a), np.sin(a)])])
    tris = np.array([[0, 1 + k, 1 + (k + 1) % 7] for k in range(7)])
    markers = np.array([Marker.INTERIOR] + [Marker.IGNITION] * 7)
    return Mesh(nodes, tris, markers)


@pytest.mark.parametrize("mesh", [gen_rect(7, 5, 1.3, 0.9), heptagon_fan()], ids=["rect", "heptagon"])
def test_geom_cache_fan_table_lists_incident_triangles(mesh):
    cache = geom_cache(mesh)
    nt = mesh.n_triangles
    degree = np.bincount(mesh.triangles.ravel(), minlength=mesh.n_nodes)
    assert len(set(degree)) > 1
    assert cache.fan.shape == (degree.max(), mesh.n_nodes)
    for i in range(mesh.n_nodes):
        col = cache.fan[:, i]
        assert set(col[: degree[i]]) == set(np.flatnonzero((mesh.triangles == i).any(axis=1)))
        np.testing.assert_array_equal(col[degree[i] :], nt)
    # L_i, the largest incident gradient: the column max over the table,
    # whose padding id reads a 0.0 slot, against a max over each fan
    s = np.random.default_rng(3).standard_normal(mesh.n_nodes)
    g = cache.grad @ s
    norm = np.append(np.sqrt(g[:nt] ** 2 + g[nt:] ** 2), 0.0)
    fans = [norm[:nt][(mesh.triangles == i).any(axis=1)].max() for i in range(mesh.n_nodes)]
    np.testing.assert_array_equal(norm[cache.fan].max(axis=0), fans)


def test_geom_cache_names_symmetry_node_without_a_line():
    mesh = gen_rect(4, 3, 1.0, 1.0, markers={"bottom": Marker.SYMMETRY})
    symline = mesh.node_symline.copy()
    symline[2] = -1  # unvalidated: geom_cache must catch it itself
    broken = Mesh(mesh.nodes, mesh.triangles, mesh.node_markers, mesh.symmetry_lines, symline)
    with pytest.raises(MeshError, match="SYMMETRY node 2 "):
        geom_cache(broken)
    # with the line in place, the bottom nodes' mean gradient keeps only
    # its component along the line: their y rows are zero
    cache = geom_cache(mesh)
    sym = np.flatnonzero(mesh.node_markers == Marker.SYMMETRY)
    assert len(sym) == 5
    np.testing.assert_array_equal(cache.mean_grad.toarray()[mesh.n_nodes + sym], 0.0)


def test_load_mesh_line_numbers_count_comments_and_blank_lines():
    mesh = gen_rect(3, 2, 1.0, 1.0, markers={"bottom": Marker.SYMMETRY})
    lines = save_mesh(mesh).splitlines()
    doc = ["# a mesh", lines[0], "", *lines[1:4], "   # note", *lines[4:]]
    again = load_mesh("\n".join(doc))
    assert save_mesh(again) == "\n".join(lines) + "\n"
    doc[-1] = "0 1 x"
    with pytest.raises(MeshError, match=f"line {len(doc)}: bad node id"):
        load_mesh("\n".join(doc))
    doc[5] = doc[5].split()[0] + " 0.0 3"
    with pytest.raises(MeshError, match="line 6: SYMMETRY node missing its symline index"):
        load_mesh("\n".join(doc))
