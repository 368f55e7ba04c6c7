"""Triangular meshes for 2D burnback runs.

Containers, generators, text I/O, validation, and the precomputed
sparse operators and node heights consumed by the front solver.

Text format, line oriented, '#' starts a comment:

    ntri nnode nsym        record counts, non-negative integers
    px py dx dy            one line per symmetry line (point, unit direction)
    x y marker [symline]   one line per node; symline only for marker 3
    i0 i1 i2               one line per triangle, 0-based node ids, CCW

Floats are written with 17 significant digits so save/load round-trips
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import chain
from operator import itemgetter

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

__all__ = [
    "Marker",
    "SymmetryLine",
    "Mesh",
    "MeshError",
    "GeomCache",
    "validate_mesh",
    "load_mesh",
    "save_mesh",
    "gen_rect",
    "gen_coons",
    "merge_meshes",
    "geom_cache",
]


class MeshError(ValueError):
    """Malformed mesh document or violated mesh invariant."""


class Marker(IntEnum):
    INTERIOR = 0
    IGNITION = 1  # burning surface, arrival time pinned to zero
    FREE = 2      # outflow boundary (casing side)
    SYMMETRY = 3  # mirror line, gradient projected onto the line


# Where two sides meet at a corner the stronger condition wins:
# IGNITION > SYMMETRY > FREE > INTERIOR.
_MARKER_RANK = np.array([0, 3, 1, 2])  # indexed by marker value


@dataclass(frozen=True)
class SymmetryLine:
    """Mirror line given by a point and a unit direction."""

    point: tuple[float, float]
    direction: tuple[float, float]

    def __post_init__(self):
        p = (float(self.point[0]), float(self.point[1]))
        d = (float(self.direction[0]), float(self.direction[1]))
        if not all(map(math.isfinite, p)):
            raise MeshError("symmetry line point must be finite")
        if not all(map(math.isfinite, d)):
            raise MeshError("symmetry line direction must be finite")
        if d == (0.0, 0.0):
            raise MeshError("symmetry line needs a nonzero direction")
        n = math.sqrt(d[0] * d[0] + d[1] * d[1])
        if not 0.0 < n < math.inf:  # the squares under- or overflowed
            n = math.hypot(*d)
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "direction", (d[0] / n, d[1] / n))


@dataclass
class Mesh:
    """Triangulated cross-section with per-node boundary markers.

    nodes          (nn, 2) float64 coordinates
    triangles      (nt, 3) int64 node ids, counter-clockwise
    node_markers   (nn,) int64 values from Marker
    symmetry_lines list of SymmetryLine
    node_symline   (nn,) int64 index into symmetry_lines, -1 where unused
    """

    nodes: np.ndarray
    triangles: np.ndarray
    node_markers: np.ndarray
    symmetry_lines: list = field(default_factory=list)
    node_symline: np.ndarray | None = None

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=np.float64))
        self.triangles = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        self.node_markers = np.asarray(self.node_markers, dtype=np.int64)
        if self.node_symline is None:
            self.node_symline = np.full(len(self.nodes), -1, dtype=np.int64)
        else:
            self.node_symline = np.asarray(self.node_symline, dtype=np.int64)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def _signed_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p0 = nodes[triangles[:, 0]]
    e1 = nodes[triangles[:, 1]] - p0
    e2 = nodes[triangles[:, 2]] - p0
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _bbox_diag(nodes: np.ndarray) -> float:
    if len(nodes) == 0:
        return 0.0
    span = nodes.max(axis=0) - nodes.min(axis=0)
    return math.hypot(*span)  # squaring the span overflows past ~1.3e154


def _directed_edges(triangles: np.ndarray) -> np.ndarray:
    """All 3*nt directed edges (corner k to corner k+1)."""
    return np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]], axis=0
    )


def validate_mesh(mesh: Mesh) -> None:
    """Check every mesh invariant; raise MeshError naming the offender."""
    nodes, tris = mesh.nodes, mesh.triangles
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise MeshError("nodes must be an (n, 2) array")
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise MeshError("triangles must be an (n, 3) array")
    finite = np.isfinite(nodes).all(axis=1)
    if not finite.all():
        raise MeshError(f"non-finite coordinate at node {int(np.argmax(~finite))}")
    nn = len(nodes)
    if tris.size and (tris.min() < 0 or tris.max() >= nn):
        bad = int(np.argmax((tris < 0) | (tris >= nn)).item() // 3)
        raise MeshError(f"triangle {bad} references a node outside 0..{nn - 1}")
    if len(tris) == 0:
        raise MeshError("mesh has no triangles")

    # edges longer than ~1e154 overflow the cross product to inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        areas = _signed_areas(nodes, tris)
    if not np.isfinite(areas).all():
        bad = np.flatnonzero(~np.isfinite(areas))
        raise MeshError(f"triangle area overflows float64: triangles {bad[:10].tolist()}")
    if np.any(areas <= 0.0):
        bad = np.flatnonzero(areas <= 0.0)
        raise MeshError(
            "non-positive triangle area (clockwise or degenerate): "
            f"triangles {bad[:10].tolist()}"
        )

    used = np.zeros(nn, dtype=bool)
    used[tris.ravel()] = True
    if not used.all():
        raise MeshError(f"nodes not referenced by any triangle: {np.flatnonzero(~used)[:10].tolist()}")

    mk = mesh.node_markers
    if mk.shape != (nn,):
        raise MeshError("node_markers length does not match nodes")
    if np.any((mk < 0) | (mk > 3)):
        raise MeshError(f"invalid marker value at node {int(np.argmax((mk < 0) | (mk > 3)))}")

    sl = mesh.node_symline
    nsym = len(mesh.symmetry_lines)
    is_sym = mk == Marker.SYMMETRY
    if np.any(is_sym & ((sl < 0) | (sl >= nsym))):
        bad = int(np.argmax(is_sym & ((sl < 0) | (sl >= nsym))))
        raise MeshError(f"SYMMETRY node {bad} has no valid symmetry line reference")
    if np.any(~is_sym & (sl != -1)):
        bad = int(np.argmax(~is_sym & (sl != -1)))
        raise MeshError(f"node {bad} carries a symmetry line reference but is not SYMMETRY")

    # Symmetry nodes must sit on their line to within 1e-9 of the mesh size.
    tol = 1e-9 * max(_bbox_diag(nodes), 1e-300)
    for k, line in enumerate(mesh.symmetry_lines):
        pick = is_sym & (sl == k)
        if not pick.any():
            continue
        p = np.asarray(line.point)
        d = np.asarray(line.direction)
        r = nodes[pick] - p
        off = np.abs(r[:, 0] * d[1] - r[:, 1] * d[0])
        if off.max() > tol:
            bad = int(np.flatnonzero(pick)[int(np.argmax(off))])
            raise MeshError(f"SYMMETRY node {bad} lies off symmetry line {k} by {off.max():.3e}")

    # Orientation-consistent and edge-manifold: every directed edge at most
    # once.  Three triangles on one edge must repeat one of its two
    # directions, so this also rejects non-manifold edges.
    de = _directed_edges(tris)
    keys = np.sort(de[:, 0].astype(np.int64) * nn + de[:, 1])
    if np.any(keys[1:] == keys[:-1]):
        raise MeshError(
            "duplicated directed edge (inconsistent orientation, doubled triangle "
            "or edge on more than two triangles)"
        )


# ---------------------------------------------------------------------------
# text I/O


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def save_mesh(mesh: Mesh) -> str:
    """Serialize to the canonical text format at full precision."""
    out = [f"{mesh.n_triangles} {mesh.n_nodes} {len(mesh.symmetry_lines)}"]
    for line in mesh.symmetry_lines:
        out.append(
            f"{_fmt(line.point[0])} {_fmt(line.point[1])} "
            f"{_fmt(line.direction[0])} {_fmt(line.direction[1])}"
        )
    for i in range(mesh.n_nodes):
        x, y = mesh.nodes[i]
        m = int(mesh.node_markers[i])
        rec = f"{_fmt(x)} {_fmt(y)} {m}"
        if m == Marker.SYMMETRY:
            rec += f" {int(mesh.node_symline[i])}"
        out.append(rec)
    for t in mesh.triangles:
        out.append(f"{t[0]} {t[1]} {t[2]}")
    return "\n".join(out) + "\n"


def _first(bad: np.ndarray) -> int:
    """Index of the first True in bad; len(bad) when there is none."""
    return int(np.argmax(bad)) if bad.any() else len(bad)


def _numbers(tokens: tuple | list, conv, dtype) -> np.ndarray:
    """tokens converted by conv into dtype, cut short at the first token
    that conv rejects or dtype cannot hold."""
    try:
        return np.fromiter(map(conv, tokens), dtype, len(tokens))
    except (ValueError, OverflowError):
        good = []
        for tok in tokens:
            try:
                good.append(dtype(conv(tok)))
            except (ValueError, OverflowError):
                break
        return np.array(good, dtype)


def _raise_first(line_no, *faults: tuple[int, str]) -> None:
    """Raise the (record index, message) fault of the earliest record, the
    first listed on a tie; an index of len(line_no) means no fault."""
    at, msg = min(faults, key=itemgetter(0))
    if at < len(line_no):
        raise MeshError(f"line {line_no[at]}: {msg}")


def _node_block(recs: list, line_no) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates, markers and symline indices of the node records."""
    width = np.fromiter(map(len, recs), np.int64, len(recs))
    end = _first((width != 3) & (width != 4))
    # each column is read up to the first bad token of the ones before it
    cols = list(zip(*recs[:end])) or [()] * 3
    x = _numbers(cols[0], float, np.float64)
    y = _numbers(cols[1][: len(x)], float, np.float64)
    markers = _numbers(cols[2][: len(y)], int, np.int64)
    m = len(markers)
    four, sym = width[:m] == 4, markers == Marker.SYMMETRY
    given = np.flatnonzero(four)
    index = _numbers([recs[i][3] for i in given.tolist()], int, np.int64)
    _raise_first(
        line_no,
        (end, "node record needs 'x y marker [symline]'"),
        (m, "bad number in node record"),
        (_first(four & ~sym), "symline given for a non-SYMMETRY node"),
        (_first(sym & ~four), "SYMMETRY node missing its symline index"),
        (given[len(index)] if len(index) < len(given) else m, "bad symline index"),
    )
    symline = np.full(m, -1, dtype=np.int64)
    symline[given] = index
    return np.column_stack([x, y]), markers, symline


def _triangle_block(recs: list, line_no) -> np.ndarray:
    """(n, 3) node ids of the triangle records."""
    end = _first(np.fromiter(map(len, recs), np.int64, len(recs)) != 3)
    ids = _numbers(list(chain.from_iterable(recs[:end])), int, np.int64)
    _raise_first(
        line_no,
        (end, "triangle record needs 'i0 i1 i2'"),
        (len(ids) // 3, "bad node id in triangle record"),
    )
    return ids.reshape(-1, 3)


def load_mesh(text: str) -> Mesh:
    """Parse and validate a mesh document; errors carry line numbers."""
    rows = text.splitlines()
    if "#" in text:
        rows = [raw.split("#", 1)[0] for raw in rows]
    recs = list(map(str.split, rows))
    line_no = range(1, len(recs) + 1)
    if not all(recs):
        line_no = [ln for ln, rec in zip(line_no, recs) if rec]
        recs = [rec for rec in recs if rec]
    if not recs:
        raise MeshError("empty mesh document")

    if len(recs[0]) != 3:
        raise MeshError(f"line {line_no[0]}: header must be 'ntri nnode nsym'")
    try:
        ntri, nnode, nsym = map(int, recs[0])
    except ValueError:
        raise MeshError(f"line {line_no[0]}: header must hold three integers") from None
    if min(ntri, nnode, nsym) < 0:
        raise MeshError(f"line {line_no[0]}: header counts must be non-negative")

    lines = []
    for ln, rec in zip(line_no[1 : 1 + nsym], recs[1 : 1 + nsym]):
        if len(rec) != 4:
            raise MeshError(f"line {ln}: symmetry line needs 'px py dx dy'")
        try:
            px, py, dx, dy = map(float, rec)
        except ValueError:
            raise MeshError(f"line {ln}: bad number in symmetry line") from None
        try:
            lines.append(SymmetryLine((px, py), (dx, dy)))
        except MeshError as exc:
            raise MeshError(f"line {ln}: {exc}") from None

    # a block that runs past the last record is reported after its records
    a, b, c = 1 + nsym, 1 + nsym + nnode, 1 + nsym + nnode + ntri
    nodes, markers, symline = _node_block(recs[a:b], line_no[a:b])
    tris = _triangle_block(recs[b:c], line_no[b:c])
    if c > len(recs):
        raise MeshError("unexpected end of mesh document")
    if c < len(recs):
        raise MeshError(f"line {line_no[c]}: trailing records beyond declared counts")

    mesh = Mesh(nodes, tris, markers, lines, symline)
    validate_mesh(mesh)
    return mesh


# ---------------------------------------------------------------------------
# generators


def _grid_triangles(nx: int, ny: int) -> np.ndarray:
    """Split each cell of an (nx x ny) grid along the same diagonal."""
    iu, iv = np.meshgrid(np.arange(nx), np.arange(ny))
    n00 = (iv * (nx + 1) + iu).ravel()
    n10 = n00 + 1
    n01 = n00 + (nx + 1)
    n11 = n01 + 1
    tri_a = np.stack([n00, n10, n11], axis=1)
    tri_b = np.stack([n00, n11, n01], axis=1)
    return np.concatenate([tri_a[:, None, :], tri_b[:, None, :]], axis=1).reshape(-1, 3)


def _side_rule(defaults: dict, markers, kind: str) -> dict:
    """defaults updated by markers, each of whose keys must name a side."""
    for key in markers or ():
        if key not in defaults:
            raise MeshError(f"unknown {kind} name {key!r}")
    return {**defaults, **(markers or {})}


def _grid_mesh(nodes, tris, nu: int, nv: int, sides, rule) -> Mesh:
    """Validated mesh of an (nu x nv) cell grid whose node (iu, iv) is
    nodes[iv * (nu + 1) + iu].

    sides lists (name, axis, last) in paint and bind order: the nodes
    with iu (axis 0) or iv (axis 1) at 0, or at nu or nv when last.
    rule maps each name to a Marker.  Markers are painted with corner
    priority; each SYMMETRY side then gets the line through its two end
    nodes and binds its SYMMETRY nodes not yet bound, so a corner goes
    to the first SYMMETRY side listed.
    """
    index = (np.tile(np.arange(nu + 1), nv + 1), np.repeat(np.arange(nv + 1), nu + 1))
    masks = [index[axis] == ((nu, nv)[axis] if last else 0) for _, axis, last in sides]
    markers = np.zeros(len(nodes), dtype=np.int64)
    for (name, _, _), mask in zip(sides, masks):
        m = int(rule[name])
        markers[mask & (_MARKER_RANK[m] > _MARKER_RANK[markers])] = m
    lines = []
    symline = np.full(len(nodes), -1, dtype=np.int64)
    for (name, _, _), mask in zip(sides, masks):
        if int(rule[name]) != Marker.SYMMETRY:
            continue
        a, b = nodes[np.flatnonzero(mask)[[0, -1]]]
        symline[mask & (markers == Marker.SYMMETRY) & (symline == -1)] = len(lines)
        lines.append(SymmetryLine(tuple(a), tuple(b - a)))
    mesh = Mesh(nodes, tris, markers, lines, symline)
    validate_mesh(mesh)
    return mesh


def gen_rect(nx: int, ny: int, width: float, height: float, markers=None) -> Mesh:
    """Structured rectangle mesh, each cell split into two triangles.

    markers maps side names left/right/bottom/top to Marker values;
    unnamed sides default to FREE.
    """
    if nx < 1 or ny < 1:
        raise MeshError("gen_rect needs nx, ny >= 1")
    if width <= 0 or height <= 0:
        raise MeshError("gen_rect needs positive width and height")
    defaults = {"left": Marker.FREE, "right": Marker.FREE, "bottom": Marker.FREE, "top": Marker.FREE}
    rule = _side_rule(defaults, markers, "side")

    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    sides = [("left", 0, False), ("right", 0, True), ("bottom", 1, False), ("top", 1, True)]
    return _grid_mesh(nodes, _grid_triangles(nx, ny), nx, ny, sides, rule)


def _resample_polyline(poly: np.ndarray, n: int) -> np.ndarray:
    """n+1 points spaced uniformly in arc length along an open polyline."""
    poly = np.asarray(poly, dtype=np.float64)
    if poly.ndim != 2 or poly.shape[1] != 2 or len(poly) < 2:
        raise MeshError("boundary polyline needs at least 2 points")
    seg = np.diff(poly, axis=0)
    slen = np.sqrt(seg[:, 0] ** 2 + seg[:, 1] ** 2)
    cum = np.concatenate([[0.0], np.cumsum(slen)])
    if cum[-1] <= 0.0:
        raise MeshError("degenerate boundary polyline (zero length)")
    t = np.linspace(0.0, cum[-1], n + 1)
    return np.column_stack([np.interp(t, cum, poly[:, 0]), np.interp(t, cum, poly[:, 1])])


def gen_coons(inner, outer, n_transverse: int, n_longitudinal: int, markers=None) -> Mesh:
    """Transfinite patch between two open polylines.

    The two side boundaries are the straight chords joining matching
    polyline endpoints, so the interpolant reduces to a ruled surface
    between the arc-length-resampled inner and outer curves.  markers maps
    inner/outer/side0/side1 to Marker values (defaults: inner IGNITION,
    outer FREE, sides SYMMETRY).  side0 joins inner[0] to outer[0].
    """
    if n_transverse < 1 or n_longitudinal < 1:
        raise MeshError("gen_coons needs n_transverse, n_longitudinal >= 1")
    defaults = {
        "inner": Marker.IGNITION,
        "outer": Marker.FREE,
        "side0": Marker.SYMMETRY,
        "side1": Marker.SYMMETRY,
    }
    rule = _side_rule(defaults, markers, "boundary")
    if int(rule["inner"]) == Marker.SYMMETRY or int(rule["outer"]) == Marker.SYMMETRY:
        raise MeshError("SYMMETRY is only supported on the straight side chords")

    nu, nv = n_longitudinal, n_transverse
    ci = _resample_polyline(inner, nu)
    co = _resample_polyline(outer, nu)
    v = np.linspace(0.0, 1.0, nv + 1)
    nodes = (1.0 - v)[:, None, None] * ci[None, :, :] + v[:, None, None] * co[None, :, :]
    nodes = nodes.reshape(-1, 2)
    tris = _grid_triangles(nu, nv)

    areas = _signed_areas(nodes, tris)
    if np.all(areas < 0.0):
        tris = tris[:, [0, 2, 1]]  # inner/outer orientation flips the loft
        areas = -areas
    if np.any(areas <= 0.0):
        cells = np.unique(np.flatnonzero(areas <= 0.0) // 2)
        where = [(int(c % nu), int(c // nu)) for c in cells[:10]]
        raise MeshError(f"degenerate Coons patch: non-positive cells (iu, iv) {where}")

    # rows v = 0 and v = 1 are exactly ci and co, so side0 runs from
    # inner[0] to outer[0] and side1 from inner[-1] to outer[-1]
    sides = [("inner", 1, False), ("outer", 1, True), ("side0", 0, False), ("side1", 0, True)]
    return _grid_mesh(nodes, tris, nu, nv, sides, rule)


# ---------------------------------------------------------------------------
# welding


def _canonical_line(line: SymmetryLine):
    d = np.asarray(line.direction)
    if d[0] < 0 or (d[0] == 0 and d[1] < 0):
        d = -d
    p = np.asarray(line.point)
    anchor = p - (p @ d) * d  # foot of the origin on the line
    return anchor, d


def _close_pairs(nodes: np.ndarray, tol: float) -> np.ndarray:
    """Node id pairs (k, 2) within Euclidean distance tol of each other.

    Nodes are binned into square cells of side 2 tol, so a close pair
    sits in one cell or in two neighbouring ones even after rounding.
    Cells are keyed column by column with one empty cell between
    columns.  In key order each node is checked against the later nodes
    of its own cell and the next cell up, then against the three cells
    of the next column, so every pair is found once.  The keys fit in
    int64 while the node spread is below ~1e9 tol.
    """
    cell = ((nodes - nodes.min(axis=0)) / (2.0 * tol)).astype(np.int64)  # >= 0, so floored
    width = cell[:, 1].max() + 2
    key = cell[:, 0] * width + cell[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    pos = np.arange(len(key))
    lo = np.concatenate([pos + 1, np.searchsorted(key, key + width - 1)])
    hi = np.concatenate([np.searchsorted(key, key + 2), np.searchsorted(key, key + width + 2)])
    count = hi - lo
    # positions a < b in key order of each candidate pair
    a = np.repeat(np.tile(pos, 2), count)
    b = np.arange(len(a)) + np.repeat(lo - np.cumsum(count) + count, count)
    i, j = order[a], order[b]
    d = nodes[j] - nodes[i]
    near = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2) <= tol
    return np.column_stack([i[near], j[near]])


def merge_meshes(meshes) -> Mesh:
    """Weld coincident nodes of several meshes into one mesh.

    Coincident means within 1e-9 of the joint bounding box diagonal.
    Markers of welded nodes combine with the usual corner priority;
    identical symmetry lines are deduplicated.
    """
    meshes = list(meshes)
    if not meshes:
        raise MeshError("merge_meshes needs at least one mesh")

    nodes = np.concatenate([m.nodes for m in meshes], axis=0)
    node_off = np.cumsum([0] + [m.n_nodes for m in meshes])
    line_off = np.cumsum([0] + [len(m.symmetry_lines) for m in meshes])
    tris = np.concatenate(
        [m.triangles + node_off[i] for i, m in enumerate(meshes)], axis=0
    )
    markers = np.concatenate([m.node_markers for m in meshes])
    symline = np.concatenate(
        [np.where(m.node_symline >= 0, m.node_symline + line_off[i], -1) for i, m in enumerate(meshes)]
    )
    all_lines = [ln for m in meshes for ln in m.symmetry_lines]

    tol = 1e-9 * max(_bbox_diag(nodes), 1e-300)

    # Close pairs join components; components are labelled in order of
    # their lowest node id, which is also the node each one keeps.
    nn = len(nodes)
    pairs = _close_pairs(nodes, tol)
    close = csr_array((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(nn, nn))
    _, new_id = connected_components(close, directed=False)
    _, uniq = np.unique(new_id, return_index=True)

    new_nodes = nodes[uniq]
    new_tris = new_id[tris]

    rank = _MARKER_RANK[markers]
    best_rank = np.zeros(len(uniq), dtype=np.int64)
    np.maximum.at(best_rank, new_id, rank)
    rank_to_marker = np.empty(4, dtype=np.int64)
    rank_to_marker[_MARKER_RANK] = np.arange(4)
    new_markers = rank_to_marker[best_rank]

    # Deduplicate symmetry lines that describe the same geometric line.
    canon = [_canonical_line(ln) for ln in all_lines]
    line_map = np.full(len(all_lines), -1, dtype=np.int64)
    kept: list[SymmetryLine] = []
    kept_canon = []
    for i, (anchor, d) in enumerate(canon):
        hit = -1
        for j, (a2, d2) in enumerate(kept_canon):
            if abs(d[0] * d2[1] - d[1] * d2[0]) < 1e-12 and np.hypot(*(anchor - a2)) <= max(tol, 1e-12):
                hit = j
                break
        if hit < 0:
            kept.append(all_lines[i])
            kept_canon.append((anchor, d))
            hit = len(kept) - 1
        line_map[i] = hit

    new_symline = np.full(len(uniq), -1, dtype=np.int64)
    is_sym_src = (markers == Marker.SYMMETRY) & (symline >= 0)
    for src in np.flatnonzero(is_sym_src):
        g = new_id[src]
        if new_markers[g] == Marker.SYMMETRY and new_symline[g] == -1:
            new_symline[g] = line_map[symline[src]]

    merged = Mesh(new_nodes, new_tris, new_markers, kept, new_symline)
    validate_mesh(merged)
    return merged


# ---------------------------------------------------------------------------
# cached geometry


@dataclass
class GeomCache:
    """Per-mesh operators and node data reused on every solver iteration.

    grad            (2 nt, nn) CSR: row t holds the x gradients of the
                    three linear hat functions of triangle t, row nt + t
                    their y gradients, so grad @ s holds the x and then
                    the y component of every triangle gradient
    fan             (k_max, nn) int: column i lists the triangles at node
                    i, padded with the id nt up to the largest node
                    degree k_max
    mean_grad       (2 nn, nn) CSR: rows i and nn + i give the x and the
                    y component of node i's mean gradient, the incident
                    triangle gradients weighted by corner angle over the
                    node's angle sum; the two rows of a SYMMETRY node are
                    projected onto its mirror line
    edge_diss       (nn, nn) CSR: the dissipation D.  Off the diagonal,
                    the tan(angle/2) / len fan weights of every edge at
                    its row node, summed over the flanking triangles, with
                    their negated row sum on the diagonal; from each row
                    the fan's response to the linear field of the node's
                    mean gradient is then subtracted, so D s vanishes
                    wherever s is locally linear, one-sided boundary fans
                    included (at SYMMETRY nodes: linear along the mirror
                    line).  Rows of SYMMETRY and FREE nodes are doubled,
                    restoring full-fan weight to their half fans
    node_min_height (nn,) smallest height of the triangles at each node,
                    the length scale of its pseudo-time step

    Index arrays are int32.  Both halves of mean_grad and edge_diss
    share one sparsity pattern, the one-ring of each node plus the
    diagonal, with sorted columns, so the solver fills its Jacobian into
    that pattern from their data arrays.
    """

    grad: csr_array
    fan: np.ndarray
    mean_grad: csr_array
    edge_diss: csr_array
    node_min_height: np.ndarray


def _corner_angles(p: np.ndarray) -> np.ndarray:
    """Interior angles (nt, 3) from the two edges leaving each corner."""
    e_next = p[:, [1, 2, 0], :] - p
    e_prev = p[:, [2, 0, 1], :] - p
    cross = e_next[:, :, 0] * e_prev[:, :, 1] - e_next[:, :, 1] * e_prev[:, :, 0]
    dot = np.einsum("tkc,tkc->tk", e_next, e_prev)
    return np.arctan2(np.abs(cross), dot)


def _opposite_edges(p: np.ndarray) -> np.ndarray:
    """Edge vectors (nt, 3, 2) opposite each corner."""
    return p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]


def _gradient_operator(mesh: Mesh) -> csr_array:
    """The grad operator of GeomCache."""
    nodes, tris = mesh.nodes, mesh.triangles
    nt = mesh.n_triangles
    # grad of the hat function at corner k: perpendicular of the opposite
    # edge over twice the area (valid for CCW triangles).
    opp = _opposite_edges(nodes[tris])
    two_area = 2.0 * _signed_areas(nodes, tris)[:, None]
    hat = np.concatenate([-opp[:, :, 1] / two_area, opp[:, :, 0] / two_area])  # x rows, y rows
    indices = np.tile(tris.ravel(), 2).astype(np.int32)
    indptr = np.arange(0, 6 * nt + 1, 3, dtype=np.int32)
    return csr_array((hat.ravel(), indices, indptr), shape=(2 * nt, mesh.n_nodes))


def _fan_operators(mesh: Mesh, grad: csr_array, corner_angle, edge_len3, mirror):
    """The mean_grad and edge_diss operators of GeomCache.

    Corner pair (a, b) of triangle t couples node tris[t, a] to node
    tris[t, b]; the pairs of all triangles, a == b included, make the
    shared pattern.  Corner a weighs its edge to corner b by
    tan(angle_a/2) over the edge's length (the edge opposite the third
    corner 3 - a - b).  mirror holds the unit mirror direction of each
    SYMMETRY node and zeros elsewhere.
    """
    tris, mk = mesh.triangles, mesh.node_markers
    nn, nt = mesh.n_nodes, mesh.n_triangles
    pair_keys = np.repeat(tris, 3, axis=1).ravel() * nn + np.tile(tris, 3).ravel()
    # np.unique(pair_keys, return_inverse=True), at half its cost here
    order = np.argsort(pair_keys)
    first = np.concatenate([[True], np.diff(pair_keys[order]) != 0])
    inv = np.empty(len(order), dtype=np.intp)
    inv[order] = np.cumsum(first) - 1
    keys = pair_keys[order][first]
    row, indices = keys // nn, (keys % nn).astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=nn))]).astype(np.int32)

    def assemble(w):  # (nt, 3, 3) weights of the corner pairs
        return np.bincount(inv, weights=w.ravel(), minlength=len(keys))

    angle_sum = np.bincount(tris.ravel(), weights=corner_angle.ravel(), minlength=nn)
    weight = (corner_angle / angle_sum[tris])[:, :, None]
    hat = grad.data.reshape(2, nt, 1, 3)
    ax, ay = assemble(weight * hat[0]), assemble(weight * hat[1])
    j = np.flatnonzero(mk[row] == Marker.SYMMETRY)
    tx, ty = mirror[row[j], 0], mirror[row[j], 1]
    along = ax[j] * tx + ay[j] * ty
    ax[j], ay[j] = along * tx, along * ty

    # a SYMMETRY or FREE node sees half its fan
    k = np.arange(3)
    half_fan = (mk == Marker.SYMMETRY) | (mk == Marker.FREE)
    fan_w = np.tan(0.5 * corner_angle) * np.where(half_fan, 2.0, 1.0)[tris]
    w = fan_w[:, :, None] / edge_len3[:, (3 - k[:, None] - k) % 3] * (k[:, None] != k)
    e = assemble(w)
    e[row == indices] = -np.bincount(row, weights=e, minlength=nn)
    bias = csr_array((e, indices, indptr), shape=(nn, nn)) @ mesh.nodes
    d = e - bias[row, 0] * ax - bias[row, 1] * ay

    nnz = len(keys)
    mean_grad = csr_array(
        (np.concatenate([ax, ay]), np.tile(indices, 2), np.concatenate([indptr, indptr[1:] + nnz])),
        shape=(2 * nn, nn),
    )
    return mean_grad, csr_array((d, indices, indptr), shape=(nn, nn))


def geom_cache(mesh: Mesh) -> GeomCache:
    nodes, tris = mesh.nodes, mesh.triangles
    nn, nt = mesh.n_nodes, mesh.n_triangles
    flat = tris.ravel()

    grad = _gradient_operator(mesh)
    p = nodes[tris]  # (nt, 3, 2)
    corner_angle = _corner_angles(p)
    opp = _opposite_edges(p)
    edge_len3 = np.sqrt(opp[:, :, 0] ** 2 + opp[:, :, 1] ** 2)
    tri_min_h = 2.0 * _signed_areas(nodes, tris) / edge_len3.max(axis=1)
    node_min_height = np.full(nn, np.inf)
    np.minimum.at(node_min_height, flat, np.repeat(tri_min_h, 3))

    order = np.argsort(flat, kind="stable")
    owner = flat[order]
    degree = np.bincount(flat, minlength=nn)
    node_ptr = np.concatenate([[0], np.cumsum(degree)])
    fan = np.full((degree.max(), nn), nt, dtype=np.int32)
    fan[np.arange(3 * nt) - node_ptr[owner], owner] = order // 3

    mk = mesh.node_markers
    sym_nodes = np.flatnonzero(mk == Marker.SYMMETRY)
    symline = mesh.node_symline[sym_nodes]
    bad = (symline < 0) | (symline >= len(mesh.symmetry_lines))
    if bad.any():
        raise MeshError(
            f"SYMMETRY node {int(sym_nodes[np.argmax(bad)])} has no valid symmetry line reference"
        )
    mirror = np.zeros((nn, 2))
    mirror[sym_nodes] = np.array([line.direction for line in mesh.symmetry_lines]).reshape(-1, 2)[symline]
    mean_grad, edge_diss = _fan_operators(mesh, grad, corner_angle, edge_len3, mirror)

    return GeomCache(
        grad=grad,
        fan=fan,
        mean_grad=mean_grad,
        edge_diss=edge_diss,
        node_min_height=node_min_height,
    )
