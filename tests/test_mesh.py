"""Mesh generation, patch chains, serialization, and geometry cache."""

from __future__ import annotations

import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnback.cases import CASE_BUILDERS, build_case
from burnback.mesh import (
    Marker,
    Mesh,
    MeshError,
    _MARKER_RANK,
    _grid_mesh,
    _grid_triangles,
    _loft,
    gen_coons,
    gen_rect,
    geom_cache,
    load_mesh,
    save_mesh,
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


@pytest.mark.parametrize(
    "markers",
    [
        {"left": Marker.IGNITION, "bottom": Marker.SYMMETRY},
        {"bottom": Marker.SYMMETRY, "left": Marker.IGNITION},
        # four markers, one per side, so each corner ranks another pair
        {"right": Marker.FREE, "top": Marker.INTERIOR, "left": Marker.IGNITION, "bottom": Marker.SYMMETRY},
    ],
    ids=["left-bottom", "bottom-left", "four-markers"],
)
def test_gen_rect_corner_takes_higher_priority_marker(markers):
    mesh = gen_rect(4, 4, 1.0, 1.0, markers=markers)
    sides = {"left": Marker.FREE, "right": Marker.FREE, "top": Marker.FREE, **markers}
    corners = ((0, 0, "left", "bottom"), (1, 0, "right", "bottom"), (0, 1, "left", "top"), (1, 1, "right", "top"))
    for x, y, a, b in corners:
        corner = np.flatnonzero(np.isclose(mesh.nodes[:, 0], x) & np.isclose(mesh.nodes[:, 1], y))
        assert mesh.node_markers[corner].tolist() == [max(sides[a], sides[b], key=_MARKER_RANK.__getitem__)]
    # the rest of the bottom edge keeps its symmetry tag and mirrors along x
    bottom = np.isclose(mesh.nodes[:, 1], 0.0) & (mesh.nodes[:, 0] > 1e-9)
    assert np.all(mesh.node_markers[bottom] == Marker.SYMMETRY)
    np.testing.assert_array_equal(mesh.mirror[bottom], [[1.0, 0.0]] * 4)


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
    # each side mirrors along its axis: x for side0, y for side1
    np.testing.assert_allclose(np.abs(mesh.mirror[sym]), [[1.0, 0.0], [0.0, 1.0]] * 10, atol=1e-15)


def test_gen_coons_accepts_either_orientation():
    inner = arc(1.0, 0.0, 0.5 * np.pi, 40)
    outer = arc(2.0, 0.0, 0.5 * np.pi, 40)
    flipped = gen_coons(inner[::-1], outer[::-1], 6, 12)
    assert total_area(flipped) > 0.0
    replace(flipped)  # checks the mesh again


def test_gen_rect_symmetry_corner_mirrors_along_the_chord_of_its_neighbours():
    sym = dict.fromkeys(("left", "right", "bottom", "top"), Marker.SYMMETRY)
    mesh = gen_rect(3, 2, 1, 1, markers=sym)
    # node (iu, iv) is 4 iv + iu.  Each boundary node mirrors along the
    # chord from its previous to its next neighbour on the counter-
    # clockwise boundary: a side node along its side, a corner across it
    ring = [0, 1, 2, 3, 7, 11, 10, 9, 8, 4]
    chord = mesh.nodes[np.roll(ring, -1)] - mesh.nodes[np.roll(ring, 1)]
    want = np.zeros((12, 2))
    want[ring] = chord / np.hypot(*chord.T)[:, None]
    np.testing.assert_allclose(mesh.mirror, want, rtol=0.0, atol=1e-15)
    assert want[0].tolist() == pytest.approx([2 / 13**0.5, -3 / 13**0.5])


def test_gen_coons_side_chords_run_from_inner_to_outer_in_a_flipped_loft():
    inner = arc(1.0, 0.0, 0.5 * np.pi, 40)
    outer = arc(2.0, 0.0, 0.5 * np.pi, 40)
    mesh = gen_coons(inner, outer, 3, 5)
    # this loft is clockwise, so each cell's two triangles were reversed
    assert mesh.triangles[:2].tolist() == [[0, 7, 1], [0, 6, 7]]
    # node (iu, iv) is 6 iv + iu; the inner corners stay IGNITION, and
    # the rest of columns 0 and 5 mirror along their side chords
    assert mesh.node_markers[[0, 5]].tolist() == [Marker.IGNITION] * 2
    for col, a, b in zip((0, 5), inner[[0, -1]], outer[[0, -1]]):
        side = mesh.mirror[col + 6 :: 6]
        np.testing.assert_allclose(np.abs(side @ ((b - a) / np.hypot(*(b - a)))), 1.0, rtol=0.0, atol=1e-15)


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


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_save_load_round_trip_is_exact(name):
    case = build_case(name)
    mesh = case.mesh
    text = save_mesh(mesh, case.rate)
    again, rate = load_mesh(text)
    np.testing.assert_array_equal(mesh.nodes, again.nodes)
    np.testing.assert_array_equal(mesh.triangles, again.triangles)
    np.testing.assert_array_equal(mesh.node_markers, again.node_markers)
    np.testing.assert_array_equal(mesh.mirror, again.mirror)
    np.testing.assert_array_equal(case.rate, rate)
    assert save_mesh(again, rate) == text


def test_save_mesh_takes_one_finite_rate_per_node():
    mesh = gen_rect(2, 2, 1.0, 1.0)
    assert save_mesh(mesh, np.full(9, 0.5)).splitlines()[1:3] == ["0 0 2 0.5", "0.5 0 2 0.5"]
    for rate in (np.ones(3), 1.0):
        with pytest.raises(ValueError, match=f"^rate has {np.size(rate)} values for 9 mesh nodes$"):
            save_mesh(mesh, rate)
    with pytest.raises(ValueError, match="^rate is not finite at node 4$"):
        save_mesh(mesh, np.where(np.arange(9) == 4, np.nan, 1.0))


def test_load_mesh_errors_carry_line_numbers():
    text = save_mesh(gen_rect(2, 2, 1.0, 1.0), np.ones(9))
    lines = text.splitlines()
    lines[3] = "not a node record"
    with pytest.raises(MeshError, match="line 4"):
        load_mesh("\n".join(lines))


def test_load_mesh_rejects_trailing_records():
    text = save_mesh(gen_rect(2, 2, 1.0, 1.0), np.ones(9))
    with pytest.raises(MeshError):
        load_mesh(text + "0 1 2\n")


# save_mesh of a 2x1 block with an ignition left side and a symmetry
# bottom, of rate 1 but 3 on its right side: header on line 1, nodes on
# lines 2-7 (nodes 1 and 2 SYMMETRY), triangles on lines 8-11.
DOC = [
    "4 6",
    "0 0 1 1",
    "0.5 0 3 1",
    "1 0 3 3",
    "0 1 1 1",
    "0.5 1 2 1",
    "1 1 2 3",
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
    "header-width": ({1: "4"}, "line {}: header must be 'ntri nnode'", 1),
    "header-long": ({1: "4 6 1 0"}, "line {}: header must be 'ntri nnode'", 1),
    "header-word": ({1: "4 x"}, "line {}: header must hold two integers", 1),
    "header-float": ({1: "4 6.0"}, "line {}: header must hold two integers", 1),
    "node-short": ({2: "0 0"}, "line {}: node record needs 'x y marker rate'", 2),
    "node-long": ({2: "0 0 1 1 0 0"}, "line {}: node record needs 'x y marker rate'", 2),
    "node-x": ({2: "x 0 1 1"}, "line {}: bad number in node record", 2),
    "node-y": ({5: "0 y 1 1"}, "line {}: bad number in node record", 5),
    "node-marker": ({2: "0 0 1.5 1"}, "line {}: bad number in node record", 2),
    "node-rate": ({3: "0.5 0 3 x"}, "line {}: bad number in node record", 3),
    # a record of the older 'x y marker' format has no rate
    "node-no-rate": ({2: "0 0 1"}, "line {}: node record needs 'x y marker rate'", 2),
    # a symline token of an older format is one field too many
    "node-extra-symline": ({2: "0 0 1 1 0"}, "line {}: node record needs 'x y marker rate'", 2),
    "node-bad-symline": ({3: "0.5 0 3 1 x"}, "line {}: node record needs 'x y marker rate'", 3),
    "tri-short": ({8: "0 1"}, "line {}: triangle record needs 'i0 i1 i2'", 8),
    "tri-long": ({11: "1 5 4 0"}, "line {}: triangle record needs 'i0 i1 i2'", 11),
    "tri-id": ({9: "0 4 x"}, "line {}: bad node id in triangle record", 9),
    "trailing": ({12: "0 1 2"}, "line {}: trailing records beyond declared counts", 12),
    # a wrong header count shifts the blocks, and the error names the
    # first record that no longer fits
    "nnode-high": ({1: "4 7"}, "line {}: node record needs 'x y marker rate'", 8),
    "nnode-low": ({1: "4 5"}, "line {}: triangle record needs 'i0 i1 i2'", 7),
    "ntri-high": ({1: "5 6"}, "unexpected end of mesh document", None),
    "ntri-low": ({1: "3 6"}, "line {}: trailing records beyond declared counts", 11),
    # the older format's header, 'ntri nnode nsym', fails at line 1
    "nsym-high": ({1: "4 6 2"}, "line {}: header must be 'ntri nnode'", 1),
    "nsym-low": ({1: "4 6 0"}, "line {}: header must be 'ntri nnode'", 1),
    "nnode-into-tris": ({1: "4 7", 8: "0 1 4.5 1"}, "line {}: bad number in node record", 8),
    # within a record: width, then numbers
    "width-before-number": ({2: "0 0 x 0 0"}, "line {}: node record needs 'x y marker rate'", 2),
    # across records: the earliest line, whatever the kind
    "number-before-width": ({7: "1 1", 2: "x 0 1 1"}, "line {}: bad number in node record", 2),
    "marker-before-y": ({5: "0 y 1 1", 3: "0.5 0 q 1"}, "line {}: bad number in node record", 3),
    "rate-before-marker": ({5: "0 1 q 1", 3: "0.5 0 3 r"}, "line {}: bad number in node record", 3),
    "node-before-tri": ({10: "1 2", 6: "0.5 1"}, "line {}: node record needs 'x y marker rate'", 6),
    "tri-id-before-width": ({11: "1 5", 8: "0 1 x"}, "line {}: bad node id in triangle record", 8),
    "tri-width-before-id": ({9: "0 4", 11: "1 x 4"}, "line {}: triangle record needs 'i0 i1 i2'", 9),
    # well-formed records that break a mesh invariant
    "marker-value": ({2: "0 0 7 1"}, "invalid marker value at node 0", None),
    "tri-range": ({8: "0 1 6"}, "triangle 0 references a node outside 0..5", None),
    "lone-symmetry": ({4: "1 0 2 3"}, "SYMMETRY node 1 has no SYMMETRY boundary neighbour", None),
    "clockwise": (
        {8: "0 4 1"}, "non-positive triangle area (clockwise or degenerate): triangles [0]", None
    ),
}


@pytest.mark.parametrize("padded", [False, True], ids=["plain", "padded"])
@pytest.mark.parametrize("name", sorted(LOAD_ERRORS))
def test_load_mesh_error_table(name, padded):
    edits, message, line = LOAD_ERRORS[name]
    assert load_mesh(edited({}, padded))[1].tolist() == [1, 1, 3, 1, 1, 3]
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
    "ntri-negative": ({1: "-1 6"}, "line 1: header counts must be non-negative"),
    "nnode-negative": ({1: "4 -6"}, "line 1: header counts must be non-negative"),
    "ntri-huge": ({1: "99999999999999999999 6"}, "unexpected end of mesh document"),
    "tri-id-huge": ({8: "0 1 99999999999999999999999"}, "line 8: bad node id in triangle record"),
    "marker-huge": ({2: "0 0 99999999999999999999 1"}, "line 2: bad number in node record"),
    "node-nan": ({2: "nan 0 1 1"}, "non-finite coordinate at node 0"),
    "node-inf": ({6: "0.5 1e400 2 1"}, "non-finite coordinate at node 4"),
}


@pytest.mark.parametrize("name", sorted(NEW_ERRORS))
def test_load_mesh_names_bad_counts_and_numbers(name):
    edits, message = NEW_ERRORS[name]
    with pytest.raises(MeshError) as exc:
        load_mesh(edited(edits, False))
    assert str(exc.value) == message


def test_symmetry_line_direction_is_normalised_at_any_scale():
    # the hypotenuse of a 3-4-5 triangle is its mirror side; at 1e-160 the
    # squared edge lengths are subnormal
    for scale in (1e-160, 1.0, 1e150):
        mesh = Mesh(scale * np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]), [[0, 1, 2]], [1, 3, 3])
        d = mesh.mirror
        assert d[1].tolist() == d[2].tolist() == pytest.approx([-0.6, 0.8], rel=1e-15)


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
        mesh, rate = load_mesh("\n".join(map(" ".join, recs)))
    except MeshError:
        return
    assert isinstance(mesh, Mesh)
    assert rate.dtype == np.float64 and rate.shape == (mesh.n_nodes,)


def _int64(token: str) -> int:
    value = int(token)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{token} overflows int64")
    return value


def reference_load(text: str) -> tuple[Mesh, list] | str:
    """The mesh and node rates of a document, or the text of its
    MeshError, read one record and then one token at a time: the first
    fault met wins."""
    recs = [(ln, raw.split("#")[0].split()) for ln, raw in enumerate(text.splitlines(), 1)]
    recs = [(ln, rec) for ln, rec in recs if rec]
    if not recs:
        return "empty mesh document"
    (ln, header), body = recs[0], recs[1:]
    if len(header) != 2:
        return f"line {ln}: header must be 'ntri nnode'"
    try:
        ntri, nnode = int(header[0]), int(header[1])
    except ValueError:
        return f"line {ln}: header must hold two integers"
    if ntri < 0 or nnode < 0:
        return f"line {ln}: header counts must be non-negative"
    blocks = [
        (
            body[:nnode],
            (float, float, _int64, float),
            "node record needs 'x y marker rate'",
            "bad number in node record",
        ),
        (body[nnode : nnode + ntri], (_int64,) * 3, "triangle record needs 'i0 i1 i2'", "bad node id in triangle record"),
    ]
    rows = []
    for block, convs, need, bad in blocks:
        rows.append([])
        for ln, rec in block:
            if len(rec) != len(convs):
                return f"line {ln}: {need}"
            try:
                rows[-1].append([conv(tok) for conv, tok in zip(convs, rec)])
            except ValueError:
                return f"line {ln}: {bad}"
    if nnode + ntri > len(body):
        return "unexpected end of mesh document"
    if nnode + ntri < len(body):
        return f"line {body[nnode + ntri][0]}: trailing records beyond declared counts"
    nodes, tris = rows
    xy = np.reshape([rec[:2] for rec in nodes], (-1, 2))
    try:
        return Mesh(xy, np.reshape(tris, (-1, 3)), [rec[2] for rec in nodes]), [rec[3] for rec in nodes]
    except MeshError as exc:
        return str(exc)


def _corrupt(data, recs: list) -> None:
    """Apply one drawn corruption to the records of a document in place."""
    r = data.draw(st.integers(0, len(recs) - 1), label="record")
    kind = data.draw(st.sampled_from(["token", "shorten", "lengthen", "count"]), label="kind")
    if kind == "token" and recs[r]:
        k = data.draw(st.integers(0, len(recs[r]) - 1), label="token")
        recs[r][k] = data.draw(st.sampled_from(["x", "1.5", "1e400", "1" + "0" * 24]), label="text")
    elif kind == "shorten":
        recs[r] = recs[r][:-1]
    elif kind == "lengthen":
        recs[r].append("0")
    elif kind == "count":
        k = data.draw(st.integers(0, 1), label="count")
        if k < len(recs[0]) and recs[0][k].isdigit():
            recs[0][k] = str(int(recs[0][k]) + data.draw(st.sampled_from([-1, 1]), label="by"))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_mesh_matches_a_record_by_record_reader(data):
    recs = [ln.split() for ln in DOC]
    for _ in range(data.draw(st.integers(1, 2), label="corruptions")):
        _corrupt(data, recs)
    text = "\n".join(map(" ".join, recs))
    if data.draw(st.booleans(), label="padded"):
        text = "# a mesh\n\n" + "\n".join(f"{ln}  # note" for ln in text.splitlines())
    expected = reference_load(text)
    try:
        mesh, rate = load_mesh(text)
    except MeshError as exc:
        assert str(exc) == expected
        return
    assert not isinstance(expected, str), expected
    for name in ("nodes", "triangles", "node_markers"):
        np.testing.assert_array_equal(getattr(mesh, name), getattr(expected[0], name))
    np.testing.assert_array_equal(rate, np.array(expected[1], dtype=np.float64))


# two rows of cells, so that each SYMMETRY side has a SYMMETRY node
# next to its outer corner
def _straight_patch(width: float, height: float):
    inner = np.array([[0.0, 0.0], [width, 0.0]])
    return gen_coons(inner, inner + [0.0, height], 2, 1)


def _square_chain(x1: float):
    # unit squares on x in [0, 1] and [1, x1] sharing the column x = 1;
    # at x1 = 0 the second folds back over the first and turns clockwise
    tris = _grid_triangles(1, 2)
    grids = [np.stack(np.meshgrid([a, b], [0.0, 0.5, 1.0]), axis=-1) for a, b in ((0.0, 1.0), (1.0, x1))]
    return _grid_mesh([(grid, tris) for grid in grids])


_SYM_RECT = gen_rect(4, 3, 1.0, 1.0, markers={"bottom": Marker.SYMMETRY})
_LONE_SYM = np.where(np.arange(20) == 6, Marker.SYMMETRY, _SYM_RECT.node_markers)  # node 6 is interior

# each way to make a mesh: build(bad) and the MeshError that bad input raises
BUILDS = {
    "Mesh": (
        lambda bad: Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 2, 1] if bad else [0, 1, 2]], [1, 0, 0]),
        "non-positive triangle area (clockwise or degenerate): triangles [0]",
    ),
    "replace": (
        lambda bad: replace(_SYM_RECT, node_markers=_LONE_SYM if bad else _SYM_RECT.node_markers),
        "SYMMETRY node 6 has no SYMMETRY boundary neighbour",
    ),
    "load_mesh": (
        lambda bad: load_mesh(edited({4: "1 0 2 3"} if bad else {}, False))[0],
        "SYMMETRY node 1 has no SYMMETRY boundary neighbour",
    ),
    "gen_rect": (
        lambda bad: gen_rect(2, 2, 1e200 if bad else 1.0, 1e200 if bad else 1.0),
        "triangle area overflows float64: triangles [0, 1, 2, 3, 4, 5, 6, 7]",
    ),
    "gen_coons": (
        lambda bad: _straight_patch(1e154, 1e300) if bad else _straight_patch(1.0, 1.0),
        "triangle area overflows float64: triangles [0, 1, 2, 3]",
    ),
    "chain": (
        lambda bad: _square_chain(0.0 if bad else 2.0),
        "non-positive triangle area (clockwise or degenerate): triangles [4, 5, 6, 7]",
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_every_mesh_is_checked_when_built_and_read_only(name):
    build, message = BUILDS[name]
    mesh = build(False)
    for array in (mesh.nodes, mesh.triangles, mesh.node_markers, mesh.areas, mesh.mirror):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    for name in ("nodes", "areas"):
        with pytest.raises(FrozenInstanceError):
            setattr(mesh, name, getattr(mesh, name).copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError) as exc:
            build(True)
    assert str(exc.value) == message


_TRI = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
_TOP = [[0.0, 1.0], [1.0, 1.0]]

# each input check not reached above: the call and its MeshError message
MESH_ERRORS = {
    "node columns": (lambda: Mesh([[0.0, 0.0, 0.0]] * 3, [[0, 1, 2]], [1, 0, 0]), "nodes must be an (n, 2) array"),
    "triangle columns": (lambda: Mesh(_TRI, [[0, 1]], [1, 0, 0]), "triangles must be an (n, 3) array"),
    "no triangles": (lambda: Mesh(_TRI, np.zeros((0, 3)), [1, 0, 0]), "mesh has no triangles"),
    "unused node": (
        lambda: Mesh(_TRI + [[1.0, 1.0]], [[0, 1, 2]], [1, 0, 0, 0]),
        "nodes not referenced by any triangle: [3]",
    ),
    "lone SYMMETRY node": (lambda: Mesh(_TRI, [[0, 1, 2]], [1, 3, 0]), "SYMMETRY node 1 has no SYMMETRY boundary neighbour"),
    # ids and markers must be real numbers that int64 holds exactly, not
    # be truncated, overflow or be parsed from strings
    "fractional node id": (
        lambda: Mesh(_TRI, [[0, 1, 2.7]], [1, 0, 0]),
        "triangle 0 has node id 2.7, not a 64-bit integer",
    ),
    "nan node id": (
        lambda: Mesh(_TRI + [[1.0, 1.0]], [[0, 1, 2], [1, 3, np.nan]], [1, 0, 0, 0]),
        "triangle 1 has node id nan, not a 64-bit integer",
    ),
    "oversized node id": (
        lambda: Mesh(_TRI, [[0, 1, 1e19]], [1, 0, 0]),
        "triangle 0 has node id 1e+19, not a 64-bit integer",
    ),
    "fractional marker": (
        lambda: Mesh(_TRI, [[0, 1, 2]], [1, 0, 2.9]),
        "node 2 has marker 2.9, not a 64-bit integer",
    ),
    "nan marker": (lambda: Mesh(_TRI, [[0, 1, 2]], [1, np.nan, 0]), "node 1 has marker nan, not a 64-bit integer"),
    "huge node id": (
        lambda: Mesh(_TRI, [[0, 1, 2**70]], [1, 0, 0]),
        "triangle 0 has node id 1180591620717411303424, not a 64-bit integer",
    ),
    "huge marker": (
        lambda: Mesh(_TRI, [[0, 1, 2]], [1, 0, 2**70]),
        "node 2 has marker 1180591620717411303424, not a 64-bit integer",
    ),
    "string node id": (lambda: Mesh(_TRI, [[0, 1, "2"]], [1, 0, 0]), "triangle 0 has node id '2', not a 64-bit integer"),
    "string marker": (lambda: Mesh(_TRI, [[0, 1, 2]], [1, 0, "0"]), "node 2 has marker '0', not a 64-bit integer"),
    "one-point polyline": (lambda: gen_coons([[0.0, 0.0]], _TOP, 1, 1), "boundary polyline needs at least 2 points"),
    "zero-length polyline": (
        lambda: gen_coons([[0.5, 0.0], [0.5, 0.0]], _TOP, 1, 1),
        "degenerate boundary polyline (zero length)",
    ),
    "coons counts": (
        lambda: gen_coons([[0.0, 0.0], [1.0, 0.0]], _TOP, 1, 0),
        "gen_coons needs integer n_transverse, n_longitudinal >= 1",
    ),
    # a count that is not an integer is named, not left to numpy's TypeError
    "coons float count": (
        lambda: gen_coons([[0.0, 0.0], [1.0, 0.0]], _TOP, 2.5, 3),
        "gen_coons needs integer n_transverse, n_longitudinal >= 1",
    ),
    "rect float count": (lambda: gen_rect(2.5, 3, 1.0, 1.0), "gen_rect needs integer nx, ny >= 1"),
    # a side's marker must be a Marker value, not one cast to it
    "rect marker 9": (lambda: gen_rect(2, 3, 1.0, 1.0, markers={"left": 9}), "side 'left' has marker 9, not a Marker value"),
    "rect marker 1.5": (
        lambda: gen_rect(2, 3, 1.0, 1.0, markers={"left": 1.5}),
        "side 'left' has marker 1.5, not a Marker value",
    ),
    "rect marker '1'": (
        lambda: gen_rect(2, 3, 1.0, 1.0, markers={"left": "1"}),
        "side 'left' has marker '1', not a Marker value",
    ),
    "coons marker 9": (
        lambda: gen_coons([[0.0, 0.0], [1.0, 0.0]], _TOP, 2, 1, markers={"outer": 9}),
        "boundary 'outer' has marker 9, not a Marker value",
    ),
    "coons marker 1.5": (
        lambda: gen_coons([[0.0, 0.0], [1.0, 0.0]], _TOP, 2, 1, markers={"outer": 1.5}),
        "boundary 'outer' has marker 1.5, not a Marker value",
    ),
    "coons marker '1'": (
        lambda: gen_coons([[0.0, 0.0], [1.0, 0.0]], _TOP, 2, 1, markers={"outer": "1"}),
        "boundary 'outer' has marker '1', not a Marker value",
    ),
    # named by the argument check, before linspace would warn
    "rect infinite width": (lambda: gen_rect(2, 3, np.inf, 1.0), "gen_rect needs positive, finite width and height"),
    "rect nan height": (lambda: gen_rect(2, 3, 1.0, np.nan), "gen_rect needs positive, finite width and height"),
}


@pytest.mark.parametrize("name", sorted(MESH_ERRORS))
def test_mesh_input_errors(name):
    build, message = MESH_ERRORS[name]
    with pytest.raises(MeshError) as exc:
        build()
    assert str(exc.value) == message


def test_mesh_takes_integral_floats_as_ids():
    mesh = Mesh(_TRI, [[0.0, 1.0, 2.0]], [1.0, 0.0, 0.0])
    assert mesh.triangles.dtype == mesh.node_markers.dtype == np.int64
    assert mesh.triangles.tolist() == [[0, 1, 2]] and mesh.node_markers.tolist() == [1, 0, 0]


def test_mesh_keeps_its_own_copy_of_the_arrays():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(nodes, [[0, 1, 2]], [1, 0, 0])
    nodes[1, 0] = -1.0  # would make the triangle clockwise
    assert mesh.nodes[1, 0] == 1.0
    # areas and mirror are derived, not given, and replace derives them anew
    assert mesh.areas.tolist() == [0.5] and not mesh.mirror.any()
    with pytest.raises(ValueError, match="init=False"):
        replace(mesh, areas=np.ones(1))
    wider = replace(mesh, nodes=[[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]], node_markers=[1, 3, 3])
    assert wider.areas.tolist() == [1.0] and mesh.areas.tolist() == [0.5]
    np.testing.assert_allclose(wider.mirror, [[0.0, 0.0]] + [[-2.0 / 5**0.5, 1.0 / 5**0.5]] * 2, rtol=1e-15)


def test_mesh_names_array_length_mismatches():
    tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(MeshError, match="^node_markers length does not match nodes$"):
        Mesh(tri, [[0, 1, 2]], [1, 0])


@pytest.mark.parametrize("reverse", [False, True], ids=["ccw", "cw"])
def test_gen_coons_names_non_finite_input_without_a_warning(reverse):
    straight = np.array([[0.0, 0.0], [1e154, 0.0]])
    inputs = [
        # segment lengths of 1e200-radius arcs overflow
        (arc(1e200, 0.0, 0.5 * np.pi, 40), arc(2e200, 0.0, 0.5 * np.pi, 40), "boundary polyline length overflows"),
        # finite lengths, but every cell area overflows
        (straight, straight + [0.0, 1e300], r"triangle area overflows float64: triangles \[0, 1\]"),
        (arc(1.0, 0.0, 0.5 * np.pi, 40), np.array([[2.0, 0.0], [np.inf, 2.0]]), "points must be finite"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for inner, outer, message in inputs:
            if reverse:
                inner, outer = inner[::-1], outer[::-1]
            with pytest.raises(MeshError, match=message):
                gen_coons(inner, outer, 1, 1)


def test_validate_rejects_inverted_triangle():
    mesh = gen_rect(2, 2, 1.0, 1.0)
    tris = mesh.triangles.copy()
    tris[0] = tris[0][::-1]
    with pytest.raises(MeshError, match="non-positive"):
        replace(mesh, triangles=tris)


def test_validate_rejects_overflowing_triangle_areas():
    rect = gen_rect(2, 2, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError, match=r"area overflows float64: triangles \[0, 1, 2, 3, 4, 5, 6, 7\]"):
            replace(rect, nodes=rect.nodes * 1e200)  # every cross product overflows to inf
        with pytest.raises(MeshError, match=r"area overflows float64: triangles \[0\]"):
            Mesh([[0.0, 0.0], [1e200, 1e200], [1e200, 2e200]], [[0, 1, 2]], [0, 0, 0])  # inf - inf


def test_validate_rejects_nonmanifold_edge():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [1.5, 1.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(MeshError, match="edge on more than two triangles"):
        Mesh(nodes, tris, np.zeros(5, dtype=np.int64))
    doubled = np.array([[0, 1, 2], [0, 1, 2]])
    with pytest.raises(MeshError, match="edge on more than two triangles"):
        Mesh(nodes[:3], doubled, np.zeros(3, dtype=np.int64))


# ------------------------------------------------------------ patch chains


def _rect_patch(x0: float, x1: float, nu: int, nv: int):
    xs, ys = np.linspace(x0, x1, nu + 1), np.linspace(0.0, 1.0, nv + 1)
    return np.stack(np.meshgrid(xs, ys), axis=-1), _grid_triangles(nu, nv)


def test_grid_chain_shares_seam_column():
    left = _rect_patch(0.0, 1.0, 4, 3)
    grid, tris = _rect_patch(1.0, 2.0, 4, 3)
    grid[:, 0, 0] += 1e-12  # the earlier patch's coordinates are kept
    mesh = _grid_mesh([left, (grid, tris)])
    assert mesh.n_nodes == 2 * 5 * 4 - 4
    assert mesh.n_triangles == 2 * 24
    assert total_area(mesh) == pytest.approx(2.0, rel=1e-12)
    # row-major patch by patch: 5 nodes per row, then 4 without the seam
    np.testing.assert_array_equal(mesh.nodes[:20], left[0].reshape(-1, 2))
    np.testing.assert_array_equal(mesh.nodes[20:], grid[:, 1:].reshape(-1, 2))
    assert mesh.triangles[24].tolist() == [4, 20, 24]


def test_open_chain_keeps_side0_then_side1_symmetry_line():
    patches = [_rect_patch(0.0, 1.0, 3, 2), _rect_patch(1.0, 3.0, 2, 2)]
    mesh = _grid_mesh(patches)
    # rows of 4 then 2 nodes: the inner row is IGNITION, the outer FREE
    # but for its SYMMETRY corners, and the seam column x = 1 (ids 3, 7
    # and 11) is INTERIOR between its row ends
    assert mesh.node_markers.tolist() == [1, 1, 1, 1, 3, 0, 0, 0, 3, 2, 2, 2, 1, 1, 0, 3, 2, 3]
    # the counter-clockwise boundary runs down side0 (x = 0) and up side1
    want = np.zeros((18, 2))
    want[[4, 8]], want[[15, 17]] = (0.0, -1.0), (0.0, 1.0)
    np.testing.assert_array_equal(mesh.mirror, want)


def test_closed_ring_of_four_patches_has_no_boundary_edge_on_a_seam(boundary_nodes):
    quarter = _loft(arc(1.0, 0.0, 0.5 * np.pi, 40), arc(2.0, 0.0, 0.5 * np.pi, 40), 3, 6)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    ring = [(quarter[0] @ np.linalg.matrix_power(rot, k).T, quarter[1]) for k in range(4)]
    mesh = _grid_mesh(ring, closed=True)
    assert mesh.n_nodes == 4 * 4 * 6
    assert not np.any(mesh.node_markers == Marker.SYMMETRY)
    on = boundary_nodes(mesh)
    assert len(on) == 2 * 4 * 6  # the inner and outer circles only
    np.testing.assert_array_equal(on, np.flatnonzero(mesh.node_markers != Marker.INTERIOR))
    # left open, the last column is 4 nodes of its own, and both it and
    # patch 0's first column, 2 more nodes between the row ends, bound it
    opened = _grid_mesh(ring)
    assert opened.n_nodes == mesh.n_nodes + 4
    assert len(boundary_nodes(opened)) == len(on) + 4 + 2


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


def test_geom_cache_min_height_is_the_least_over_the_node_fan():
    mesh = gen_coons(arc(1.0, 0.0, 1.2, 40), arc(2.0, 0.0, 1.2, 40), 7, 11)
    p = mesh.nodes[mesh.triangles]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    longest = np.sqrt(((p[:, [1, 2, 0]] - p) ** 2).sum(axis=2)).max(axis=1)
    tri_h = (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]) / longest
    want = np.full(mesh.n_nodes, np.inf)
    np.minimum.at(want, mesh.triangles.ravel(), np.repeat(tri_h, 3))
    np.testing.assert_array_equal(geom_cache(mesh).node_min_height, want)


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


def test_mesh_names_symmetry_node_without_a_symmetry_neighbour():
    mesh = gen_rect(4, 3, 1.0, 1.0, markers={"bottom": Marker.SYMMETRY})
    markers = mesh.node_markers.copy()
    markers[[0, 1, 3, 4]] = Marker.FREE  # all but node 2 of the bottom
    with pytest.raises(MeshError, match="^SYMMETRY node 2 has no SYMMETRY boundary neighbour$"):
        replace(mesh, node_markers=markers)
    # an edge inside the mesh does not count, even between SYMMETRY nodes
    loft = gen_coons(arc(1.0, 0.0, 1.2, 30), arc(2.0, 0.0, 1.2, 30), 4, 6)
    inside = np.where(loft.node_markers == Marker.INTERIOR, Marker.SYMMETRY, loft.node_markers)
    with pytest.raises(MeshError, match="^SYMMETRY node 8 has no SYMMETRY boundary neighbour$"):
        replace(loft, node_markers=inside)
    # with the side intact, the bottom nodes' mean gradient keeps only
    # its component along the side: their y rows are zero
    cache = geom_cache(mesh)
    sym = np.flatnonzero(mesh.node_markers == Marker.SYMMETRY)
    assert len(sym) == 5
    np.testing.assert_array_equal(cache.mean_grad.toarray()[mesh.n_nodes + sym], 0.0)


def test_load_mesh_line_numbers_count_comments_and_blank_lines():
    mesh = gen_rect(3, 2, 1.0, 1.0, markers={"bottom": Marker.SYMMETRY})
    lines = save_mesh(mesh, np.ones(mesh.n_nodes)).splitlines()
    doc = ["# a mesh", lines[0], "", *lines[1:4], "   # note", *lines[4:]]
    assert save_mesh(*load_mesh("\n".join(doc))) == "\n".join(lines) + "\n"
    doc[-1] = "0 1 x"
    with pytest.raises(MeshError, match=f"line {len(doc)}: bad node id"):
        load_mesh("\n".join(doc))
    doc[5] = doc[5].split()[0] + " 0.0 3 1 0"
    with pytest.raises(MeshError, match="line 6: node record needs 'x y marker rate'"):
        load_mesh("\n".join(doc))


def test_mesh_and_geom_cache_compare_and_hash_by_identity():
    # array fields make a field-wise == ambiguous and hash impossible
    mesh = gen_rect(2, 2, 1.0, 1.0)
    copy = replace(mesh)
    assert mesh == mesh and mesh != copy
    assert len({mesh, copy, mesh}) == 2
    cache = geom_cache(mesh)
    cache_copy = replace(cache)
    assert cache == cache and cache != cache_copy
    assert len({cache, cache_copy, cache}) == 2
