"""Triangular meshes for 2D burnback runs.

Containers, generators, text I/O, and the precomputed sparse operators
and node heights consumed by the front solver.  A Mesh checks every
mesh invariant when it is built and holds read-only arrays, so each
mesh is valid however it was made: parsed, generated, derived with
dataclasses.replace, or built by hand.  The generators build chains of
structured patches in which neighbouring patches share their seam
column by construction, so no mesh is welded after the fact.

Text format, line oriented, '#' starts a comment:

    ntri nnode       record counts, non-negative integers
    x y marker rate  one line per node, rate its recession rate
    i0 i1 i2         one line per triangle, 0-based node ids, CCW

A SYMMETRY node's mirror line is not stored: it comes from the node's
boundary edges to SYMMETRY neighbours (see Mesh).

Floats are written with 17 significant digits so save/load round-trips
exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import chain

import numpy as np
from scipy.sparse import csr_array

__all__ = [
    "Marker",
    "Mesh",
    "MeshError",
    "GeomCache",
    "load_mesh",
    "save_mesh",
    "gen_rect",
    "gen_coons",
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


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangulated cross-section with per-node boundary markers.

    nodes          (nn, 2) float64 coordinates
    triangles      (nt, 3) int64 node ids, counter-clockwise
    node_markers   (nn,) int64 values from Marker
    areas          (nt,) positive triangle areas
    mirror         (nn, 2) unit mirror direction of each SYMMETRY node,
                   zero elsewhere

    A SYMMETRY node mirrors the field across the line of its boundary
    edges to SYMMETRY neighbours.  Each such edge is directed along the
    boundary, with the mesh on its left, and the node's mirror direction
    is the normalised sum of its edges: the direction of a straight
    side, and at a corner of two mirror sides the chord between the
    node's two SYMMETRY neighbours.  No collinearity is checked: a node
    on a curved side mirrors along its local chord.  Every SYMMETRY node
    needs such an edge.

    The first three arrays are read-only copies of the arguments; ids
    and markers given as anything but integers are taken only when each
    element is a real number that int64 holds exactly.  Construction
    checks every mesh invariant and raises MeshError naming the
    offending node or triangle; areas and mirror are the read-only
    results of those checks, not arguments.  Derive a changed mesh with
    dataclasses.replace, which checks it again and recomputes both.
    Meshes compare and hash by identity.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    node_markers: np.ndarray
    areas: np.ndarray = field(init=False, repr=False)
    mirror: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, dtype, what in (
            ("nodes", np.float64, None),
            ("triangles", np.int64, "triangle {} has node id"),
            ("node_markers", np.int64, "node {} has marker"),
        ):
            value = getattr(self, name)
            if what and np.asarray(value).dtype.kind not in "bi":
                # check each element as given: a cast would truncate a
                # fraction, wrap NaN or a huge int, or parse a string
                raw = np.atleast_1d(np.array(value, dtype=object))
                bad = next((i for i, v in enumerate(raw.flat) if not _is_int64(v)), None)
                if bad is not None:
                    at = np.unravel_index(bad, raw.shape)
                    raise MeshError(f"{what.format(at[0])} {raw[at]!r}, not a 64-bit integer")
            array = np.array(value, dtype=dtype, order="C")
            array.flags.writeable = False
            object.__setattr__(self, name, array)

        nodes, tris = self.nodes, self.triangles
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

        mk = self.node_markers
        if mk.shape != (nn,):
            raise MeshError("node_markers length does not match nodes")
        if np.any((mk < 0) | (mk > 3)):
            raise MeshError(f"invalid marker value at node {int(np.argmax((mk < 0) | (mk > 3)))}")

        # Orientation-consistent and edge-manifold: every directed edge at
        # most once.  Three triangles on one edge must repeat one of its two
        # directions, so this also rejects non-manifold edges.
        edges = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys = np.sort(edges[:, 0] * nn + edges[:, 1])
        if np.any(keys[1:] == keys[:-1]):
            raise MeshError(
                "duplicated directed edge (inconsistent orientation, doubled triangle "
                "or edge on more than two triangles)"
            )
        mirror = _mirror_directions(nodes, mk, keys)
        lone = (mk == Marker.SYMMETRY) & ~mirror.any(axis=1)
        if lone.any():
            raise MeshError(f"SYMMETRY node {int(np.argmax(lone))} has no SYMMETRY boundary neighbour")

        for name, array in (("areas", areas), ("mirror", mirror)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

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


def _is_int64(value) -> bool:
    """value is a real number that int64 holds exactly."""
    return isinstance(value, numbers.Real) and -(2**63) <= value < 2**63 and value == int(value)


def _mirror_directions(nodes: np.ndarray, markers: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """(nn, 2) unit mirror direction of each SYMMETRY node (see Mesh),
    zero elsewhere and at a SYMMETRY node with no SYMMETRY boundary
    neighbour.

    keys are the sorted keys a * nn + b of the mesh's directed edges
    a -> b.  A directed edge a -> b lies on the boundary when b -> a is
    absent, and then runs with the mesh on its left, so the edges of one
    straight side all point the same way.
    """
    nn = len(nodes)
    a, b = np.divmod(keys, nn)
    sym = markers == Marker.SYMMETRY
    pick = sym[a] & sym[b]
    a, b = a[pick], b[pick]
    back = b * nn + a
    pick = keys[np.minimum(np.searchsorted(keys, back), len(keys) - 1)] != back
    a, b = a[pick], b[pick]
    edge = np.tile(nodes[b] - nodes[a], (2, 1))
    ends = np.concatenate([a, b])
    total = np.column_stack([np.bincount(ends, weights=edge[:, k], minlength=nn) for k in (0, 1)])
    norm = np.hypot(total[:, 0], total[:, 1])[:, None]
    return np.divide(total, norm, out=np.zeros((nn, 2)), where=norm > 0.0)


def _per_node(mesh: Mesh, values, name: str) -> np.ndarray:
    """values as a float64 array, checked to hold one finite value per mesh node."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim > 1:
        raise ValueError(f"{name} has shape {values.shape}, not ({mesh.n_nodes},): one value per mesh node")
    if values.shape != (mesh.n_nodes,):
        raise ValueError(f"{name} has {values.size} values for {mesh.n_nodes} mesh nodes")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} is not finite at node {int(np.argmin(np.isfinite(values)))}")
    return values


# ---------------------------------------------------------------------------
# text I/O


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def save_mesh(mesh: Mesh, rate) -> str:
    """Serialize a mesh and its node rates, one finite value per node, to
    the canonical text format at full precision."""
    rate = _per_node(mesh, rate, "rate")
    out = [f"{mesh.n_triangles} {mesh.n_nodes}"]
    for (x, y), m, r in zip(mesh.nodes, mesh.node_markers, rate):
        out.append(f"{_fmt(x)} {_fmt(y)} {m} {_fmt(r)}")
    for t in mesh.triangles:
        out.append(f"{t[0]} {t[1]} {t[2]}")
    return "\n".join(out) + "\n"


def _numbers(tokens: list, conv) -> np.ndarray:
    """tokens converted by conv (float or int) into float64 or int64, cut
    short at the first token that conv rejects or the dtype cannot hold."""
    dtype = np.dtype(conv).type
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


def _records(recs: list, line_no, convs, need: str, bad: str) -> list[np.ndarray]:
    """The columns of a block of records of len(convs) tokens, column k
    read by convs[k]; raises MeshError naming the line of the earliest
    faulty record, with need for a record of the wrong width and bad for
    a token that does not read."""
    width = len(convs)
    end = next((n for n, rec in enumerate(recs) if len(rec) != width), len(recs))
    flat = list(chain.from_iterable(recs[:end]))
    cols, n = [], end
    for k, conv in enumerate(convs):
        # each column is read up to the first bad token of the ones before it
        cols.append(_numbers(flat[k : width * n : width], conv))
        n = len(cols[-1])
    if n < len(recs):
        raise MeshError(f"line {line_no[n]}: {bad if n < end else need}")
    return cols


def load_mesh(text: str) -> tuple[Mesh, np.ndarray]:
    """Parse and validate a mesh document into the mesh and its node
    rates; errors carry line numbers.  The rates are read, not checked:
    a Case or solve checks them, naming the node."""
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

    if len(recs[0]) != 2:
        raise MeshError(f"line {line_no[0]}: header must be 'ntri nnode'")
    try:
        ntri, nnode = map(int, recs[0])
    except ValueError:
        raise MeshError(f"line {line_no[0]}: header must hold two integers") from None
    if min(ntri, nnode) < 0:
        raise MeshError(f"line {line_no[0]}: header counts must be non-negative")

    # a block that runs past the last record is reported after its records
    b, c = 1 + nnode, 1 + nnode + ntri
    x, y, markers, rate = _records(
        recs[1:b],
        line_no[1:b],
        (float, float, int, float),
        "node record needs 'x y marker rate'",
        "bad number in node record",
    )
    ids = _records(
        recs[b:c], line_no[b:c], (int,) * 3, "triangle record needs 'i0 i1 i2'", "bad node id in triangle record"
    )
    if c > len(recs):
        raise MeshError("unexpected end of mesh document")
    if c < len(recs):
        raise MeshError(f"line {line_no[c]}: trailing records beyond declared counts")

    return Mesh(np.column_stack([x, y]), np.column_stack(ids), markers), rate


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
    """defaults updated by markers, in defaults' key order: each key of
    markers must name a side and each value must be a Marker value."""
    rule = dict(defaults)
    for key, value in (markers or {}).items():
        if key not in defaults:
            raise MeshError(f"unknown {kind} name {key!r}")
        try:
            rule[key] = Marker(value)
        except ValueError:
            raise MeshError(f"{kind} {key!r} has marker {value!r}, not a Marker value") from None
    return rule


# the sides of a lofted chain in _grid_mesh's order, and their default
# markers: rows iv = 0 and nv are the inner and outer curves
_COONS_RULE = {
    "inner": Marker.IGNITION,
    "outer": Marker.FREE,
    "side0": Marker.SYMMETRY,
    "side1": Marker.SYMMETRY,
}


def _grid_mesh(patches, rule=_COONS_RULE, closed=False) -> Mesh:
    """Validated mesh of a chain of structured patches.

    Each patch is (grid, tris): grid holds the coordinates of node
    (iv, iu) at grid[iv, iu], with the same nv + 1 rows in every patch,
    and tris its triangles by local id iv * (nu + 1) + iu.  Patch k > 0
    shares patch k - 1's last node column as its own first and keeps
    the earlier coordinates; a closed chain also shares its last column
    with patch 0's first.  Node ids run patch by patch in row-major
    order, with the shared columns left out.

    rule's values are the Markers of the chain's sides, in its key
    order: row iv = 0, row nv, patch 0's first column and the last
    patch's last column.  A closed chain has no end columns and paints
    only the two rows.  Markers are painted with corner priority, so
    the seam columns stay INTERIOR but for their row ends.
    """
    ids, parts, n = [], [], 0
    for k, (grid, _) in enumerate(patches):
        fresh = slice(int(k > 0), grid.shape[1] - (closed and k == len(patches) - 1))
        part = grid[:, fresh]
        idx = np.empty(grid.shape[:2], dtype=np.int64)
        idx[:, fresh] = np.arange(n, n + part.size // 2).reshape(part.shape[:2])
        if k:
            idx[:, 0] = ids[-1][:, -1]
        ids.append(idx)
        parts.append(part.reshape(-1, 2))
        n += len(parts[-1])
    if closed:
        ids[-1][:, -1] = ids[0][:, 0]
    rows = [np.concatenate([idx[iv] for idx in ids]) for iv in (0, -1)]
    sides = rows if closed else rows + [ids[0][:, 0], ids[-1][:, -1]]
    nodes = np.concatenate(parts)
    tris = np.concatenate([idx.ravel()[tri] for idx, (_, tri) in zip(ids, patches)])

    markers = np.zeros(n, dtype=np.int64)
    for on, m in zip(sides, rule.values()):
        markers[on[_MARKER_RANK[m] > _MARKER_RANK[markers[on]]]] = m
    return Mesh(nodes, tris, markers)


def gen_rect(nx: int, ny: int, width: float, height: float, markers=None) -> Mesh:
    """Structured rectangle mesh, each cell split into two triangles.

    markers maps side names bottom/top/left/right to Marker values;
    unnamed sides default to FREE.
    """
    if not all(isinstance(n, numbers.Integral) and n >= 1 for n in (nx, ny)):
        raise MeshError("gen_rect needs integer nx, ny >= 1")
    if not (width > 0 and height > 0 and math.isfinite(width) and math.isfinite(height)):
        raise MeshError("gen_rect needs positive, finite width and height")
    defaults = {"bottom": Marker.FREE, "top": Marker.FREE, "left": Marker.FREE, "right": Marker.FREE}
    rule = _side_rule(defaults, markers, "side")

    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    grid = np.stack(np.meshgrid(xs, ys), axis=-1)
    return _grid_mesh([(grid, _grid_triangles(nx, ny))], rule)


def _resample_polyline(poly: np.ndarray, n: int) -> np.ndarray:
    """n+1 points spaced uniformly in arc length along an open polyline."""
    poly = np.asarray(poly, dtype=np.float64)
    if poly.ndim != 2 or poly.shape[1] != 2 or len(poly) < 2:
        raise MeshError("boundary polyline needs at least 2 points")
    if not np.isfinite(poly).all():
        raise MeshError("boundary polyline points must be finite")
    with np.errstate(over="ignore"):  # an overflowed length is named below
        seg = np.diff(poly, axis=0)
        slen = np.sqrt(seg[:, 0] ** 2 + seg[:, 1] ** 2)
        cum = np.concatenate([[0.0], np.cumsum(slen)])
    if not math.isfinite(cum[-1]):
        raise MeshError("boundary polyline length overflows float64")
    if cum[-1] <= 0.0:
        raise MeshError("degenerate boundary polyline (zero length)")
    t = np.linspace(0.0, cum[-1], n + 1)
    return np.column_stack([np.interp(t, cum, poly[:, 0]), np.interp(t, cum, poly[:, 1])])


def _loft(inner, outer, nv: int, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """(grid, tris) patch of _grid_mesh ruled between two open polylines.

    Row iv = 0 is inner and row nv is outer, each resampled to nu cells
    by arc length; the triangles are turned counter-clockwise.
    """
    ci = _resample_polyline(inner, nu)
    co = _resample_polyline(outer, nu)
    v = np.linspace(0.0, 1.0, nv + 1)
    grid = (1.0 - v)[:, None, None] * ci[None, :, :] + v[:, None, None] * co[None, :, :]
    tris = _grid_triangles(nu, nv)

    with np.errstate(over="ignore", invalid="ignore"):
        areas = _signed_areas(grid.reshape(-1, 2), tris)
    if np.isfinite(areas).all():  # else Mesh names the overflowed triangles
        if np.all(areas < 0.0):
            tris = tris[:, [0, 2, 1]]  # inner/outer orientation flips the loft
            areas = -areas
        if np.any(areas <= 0.0):
            cells = np.unique(np.flatnonzero(areas <= 0.0) // 2)
            where = [(int(c % nu), int(c // nu)) for c in cells[:10]]
            raise MeshError(f"degenerate Coons patch: non-positive cells (iu, iv) {where}")
    return grid, tris


def gen_coons(inner, outer, n_transverse: int, n_longitudinal: int, markers=None) -> Mesh:
    """Transfinite patch between two open polylines.

    The two side boundaries are the straight chords joining matching
    polyline endpoints, so the interpolant reduces to a ruled surface
    between the arc-length-resampled inner and outer curves: a one-patch
    chain of _grid_mesh.  markers maps inner/outer/side0/side1 to Marker
    values (defaults: inner IGNITION, outer FREE, sides SYMMETRY).
    side0 joins inner[0] to outer[0].  A SYMMETRY side next to an
    IGNITION inner curve needs n_transverse >= 2: with one cell, the
    side's outer corner has no SYMMETRY neighbour, and Mesh rejects it.
    """
    if not all(isinstance(n, numbers.Integral) and n >= 1 for n in (n_transverse, n_longitudinal)):
        raise MeshError("gen_coons needs integer n_transverse, n_longitudinal >= 1")
    rule = _side_rule(_COONS_RULE, markers, "boundary")
    if Marker.SYMMETRY in (rule["inner"], rule["outer"]):
        raise MeshError("SYMMETRY is only supported on the straight side chords")
    return _grid_mesh([_loft(inner, outer, n_transverse, n_longitudinal)], rule)


# ---------------------------------------------------------------------------
# cached geometry


@dataclass(eq=False)
class GeomCache:
    """Per-mesh operators and node data reused on every solver iteration.

    grad            (2 nt, nn) CSR: row t holds the x gradients of the
                    three linear hat functions of triangle t, row nt + t
                    their y gradients, each row's three entries in the
                    order of mesh.triangles[t], so grad @ s holds the x
                    and then the y component of every triangle gradient
    fan             (k_max, nn) int: column i lists the triangles at node
                    i, padded with the id nt up to the largest node
                    degree k_max
    mean_grad       (2 nn, nn) CSR: rows i and nn + i give the x and the
                    y component of node i's mean gradient, the incident
                    triangle gradients weighted by corner angle over the
                    node's angle sum; the two rows of a SYMMETRY node are
                    projected onto its mirror direction (see Mesh)
    edge_diss       (nn, nn) CSR: the dissipation D.  Off the diagonal, the
                    tan(angle/2) / len fan weights of every edge at its row
                    node, summed over the flanking triangles, with their negated
                    row sum on the diagonal; each row less its fan's response to
                    the linear field of the node's mean gradient, so D s vanishes
                    wherever s is locally linear, on one-sided boundary fans too
                    (at SYMMETRY nodes: linear along the mirror line).  A row is
                    weighed up to a full turn by its angle sum a, not its marker:
                    by 1 for a > sqrt(2) pi = 254.6 deg (a 270 deg reflex corner
                    weighs as an interior node), 2 for a > pi/sqrt(2) (a smooth
                    side) and 4 for a > pi/(2 sqrt(2)) (a right-angle corner)
    node_min_height (nn,) smallest height of the triangles at each node,
                    the length scale of its pseudo-time step

    Index arrays are int32.  Both halves of mean_grad and edge_diss
    share one sparsity pattern, the one-ring of each node plus the
    diagonal, with sorted columns, so the solver fills its Jacobian into
    that pattern from their data arrays.  The triangle areas and mirror
    directions come from the Mesh, which keeps them from its checks.
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


def _fan_operators(mesh: Mesh, grad: csr_array, corner_angle, edge_len3):
    """The mean_grad and edge_diss operators of GeomCache.

    Corner pair (a, b) of triangle t couples node tris[t, a] to node
    tris[t, b]; the pairs of all triangles, a == b included, make the
    shared pattern.  Corner a weighs its edge to corner b by
    tan(angle_a/2) over the edge's length (the edge opposite the third
    corner 3 - a - b).
    """
    tris, mk, mirror = mesh.triangles, mesh.node_markers, mesh.mirror
    nn, nt = mesh.n_nodes, mesh.n_triangles
    pair_keys = np.repeat(tris, 3, axis=1).ravel() * nn + np.tile(tris, 3).ravel()
    keys, inv = np.unique(pair_keys, return_inverse=True)
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

    # a fan of angle sum a is weighed up to a full turn by 2^round(log2(2 pi / a))
    k = np.arange(3)
    fan_w = np.tan(0.5 * corner_angle) * np.exp2(np.round(np.log2(2.0 * np.pi / angle_sum)))[tris]
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

    p = nodes[tris]  # (nt, 3, 2)
    corner_angle = _corner_angles(p)
    opp = _opposite_edges(p)
    edge_len3 = np.sqrt(opp[:, :, 0] ** 2 + opp[:, :, 1] ** 2)
    tri_min_h = 2.0 * mesh.areas / edge_len3.max(axis=1)
    # grad of the hat function at corner k: perpendicular of the opposite
    # edge over twice the area (valid for CCW triangles)
    two_area = 2.0 * mesh.areas[:, None]
    hat = np.concatenate([-opp[:, :, 1] / two_area, opp[:, :, 0] / two_area])  # x rows, y rows
    indptr = np.arange(0, 6 * nt + 1, 3, dtype=np.int32)
    grad = csr_array((hat.ravel(), np.tile(flat, 2).astype(np.int32), indptr), shape=(2 * nt, nn))

    order = np.argsort(flat, kind="stable")
    owner = flat[order]
    degree = np.bincount(flat, minlength=nn)
    node_ptr = np.concatenate([[0], np.cumsum(degree)])
    fan = np.full((degree.max(), nn), nt, dtype=np.int32)
    fan[np.arange(3 * nt) - node_ptr[owner], owner] = order // 3
    node_min_height = np.append(tri_min_h, np.inf)[fan].min(axis=0)

    mean_grad, edge_diss = _fan_operators(mesh, grad, corner_angle, edge_len3)

    return GeomCache(
        grad=grad,
        fan=fan,
        mean_grad=mean_grad,
        edge_diss=edge_diss,
        node_min_height=node_min_height,
    )
