"""Engineering outputs from an arrival-time field.

Isochrones are extracted by marching triangles on the linear
interpolant, port areas by exact clipping of each triangle against the
level line, and perimeters as plain segment-length sums, so that
dA_p/dtau and the perimeter agree to the same interpolant and the
burn curves need no smoothing.  CSV and SVG emitters keep fixed headers
and structure for downstream tooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .contour import Contour, Line
from .eikonal import ArrivalField
from .mesh import Mesh, _per_node
from .star import InterfacePolyline

__all__ = [
    "BurnCurves",
    "ErrorField",
    "burn_curves",
    "error_field",
    "emit_csv",
    "emit_svg",
]

# the two sides (01, 12, 20 order) that meet at lone vertex 0, 1 or 2
_LONE_SIDES = np.array([[0, 2], [0, 1], [1, 2]])


@dataclass(frozen=True)
class BurnCurves:
    """Burn history on a pseudotime grid.

    A_eq is the rate-weighted equivalent perimeter P_1 + f*P_2 (equal
    to P_b for a monopropellant); A_b = P_b * grain_length when a
    grain length is supplied.  Every column that is set holds one value
    per tau; tau and the set columns may be given as any array-likes
    and are kept as read-only float64 copies.
    """

    tau: np.ndarray
    P_b: np.ndarray
    A_p: np.ndarray
    A_eq: np.ndarray
    A_b: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "tau", _tau_grid(self.tau))
        for name in ("tau", "P_b", "A_p", "A_eq", "A_b"):
            column = getattr(self, name)
            if column is None:
                continue
            if np.shape(column) != self.tau.shape:
                raise ValueError(f"{name} has shape {np.shape(column)}, not {self.tau.shape}: one value per tau")
            column = np.array(column, dtype=np.float64)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if np.any(self.P_b < 0.0):
            raise ValueError("negative perimeter")
        scale = float(np.abs(self.A_p).max()) if len(self.A_p) else 0.0
        if np.any(np.diff(self.A_p) < -1e-12 * max(scale, 1.0)):
            raise ValueError("port area must be non-decreasing")


@dataclass(frozen=True)
class ErrorField:
    """Per-node error normalized by the maximum oracle depth."""

    values: np.ndarray
    max_abs: float
    mean_abs: float


def _tau_grid(tau) -> np.ndarray:
    """tau as a float64 array, checked to be 1-D, finite and strictly increasing."""
    tau = np.asarray(tau, dtype=np.float64)
    if tau.ndim != 1:
        raise ValueError(f"tau grid must be one-dimensional, not {tau.ndim}-D")
    if not np.all(np.isfinite(tau)):
        raise ValueError(f"tau grid value {tau[np.argmax(~np.isfinite(tau))]} is not finite")
    down = np.flatnonzero(np.diff(tau) <= 0.0)
    if len(down):
        k = int(down[0]) + 1
        raise ValueError(f"tau grid must be strictly increasing: tau[{k}] = {tau[k]} follows {tau[k - 1]}")
    return tau


def _unique_edges(tri: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undirected edges as sorted node-id pairs, and the (nt, 3) edge ids
    of each triangle's sides 01, 12 and 20."""
    pairs = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1)
    edges, einv = np.unique(pairs, axis=0, return_inverse=True)
    return edges, einv.reshape(3, len(tri)).T


def _cut(mesh: Mesh, v: np.ndarray, table):
    """Cut the triangles crossed by the level line {v = 0} of v = s - tau.

    Each node is tested once: it is burned when v < 0, so a node exactly
    at tau counts as unburned and the line passes through it exactly.  A
    crossed triangle has one or two burned corners and is cut at its
    lone vertex, the corner alone on its side, across the two sides that
    meet there.  table is the edge table of _unique_edges.  Returns:

    - nburned, the burned corner count of every triangle;
    - hosts, the crossed triangles, and lone, the corner index 0..2 of
      each one's lone vertex;
    - points, the (nseg, 2, 2) end points of each host's segment, each
      the crossing of one cut edge computed from its lower node id, so
      that segments in adjacent triangles share endpoints bitwise;
    - seg_edges, the (nseg, 2) edge ids those ends lie on.
    """
    edges, tri_edge = table
    burned = v < 0.0
    corner_burned = burned[mesh.triangles]
    nburned = corner_burned.sum(axis=1)
    hosts = np.flatnonzero((nburned == 1) | (nburned == 2))
    lone = np.argmax(corner_burned[hosts] == (nburned[hosts] == 1)[:, None], axis=1)
    seg_edges = tri_edge[hosts[:, None], _LONE_SIDES[lone]]

    a, b = edges[seg_edges, 0], edges[seg_edges, 1]
    t = v[a] / (v[a] - v[b])
    pa = mesh.nodes[a]
    points = pa + t[..., None] * (mesh.nodes[b] - pa)
    return nburned, hosts, lone, points, seg_edges


def _isocontour(mesh: Mesh, s: np.ndarray, tau: float, table) -> list[np.ndarray]:
    """Chained isochrone polylines at level tau (possibly empty).

    End j of segment k is end 2k + j; mate[end] is the other end on the
    same cut edge, or -1 on the boundary.  A chain leaves a segment by
    end ^ 1 and goes on at mate[end ^ 1]: open chains from unpaired ends
    in segment order, then closed loops from each segment's first end.
    A segment cut off at an unburned lone vertex exactly at tau has both
    ends there and adds no point, so a tied node is drawn once.
    """
    _, hosts, lone, points, seg_edges = _cut(mesh, s - tau, table)
    ends = seg_edges.ravel()
    order = np.argsort(ends, kind="stable")
    pair = np.flatnonzero(ends[order[1:]] == ends[order[:-1]])
    mate = np.full(len(ends), -1)
    mate[order[pair]], mate[order[pair + 1]] = order[pair + 1], order[pair]
    starts = np.concatenate([np.flatnonzero(mate < 0), 2 * np.arange(len(hosts))])
    tied = (s[mesh.triangles[hosts, lone]] == tau).tolist()
    mate, used, flat = mate.tolist(), [False] * len(hosts), points.reshape(-1, 2)

    polylines = []
    for start in starts.tolist():
        if used[start >> 1]:
            continue
        chain, end = [start], start
        while end >= 0 and not used[end >> 1]:
            used[end >> 1] = True
            if not tied[end >> 1]:
                chain.append(end ^ 1)
            end = mate[end ^ 1]
        polylines.append(flat[chain])
    return polylines


def burn_curves(
    mesh: Mesh,
    s: np.ndarray,
    rate_labels,
    f: float,
    tau_grid,
    grain_length: float | None = None,
) -> BurnCurves:
    """Measure P_b, A_p and the equivalent area over a pseudotime grid.

    rate_labels assigns each node to propellant 1 or 2 (all ones for a
    monopropellant); a triangle belongs to the propellant owning the
    majority of its nodes, and each isochrone segment reports to its
    host triangle's propellant.  A_eq = P_1 + f * P_2, with f finite
    and >= 1.  A_p is the exact area of {s < tau} under linear
    interpolation.  tau_grid must be 1-D, finite and strictly
    increasing, and grain_length positive and finite; every input is
    checked before the first level is cut.
    """
    s = _per_node(mesh, s, "field")
    tau_grid = _tau_grid(tau_grid)
    if grain_length is not None and not (math.isfinite(grain_length) and grain_length > 0.0):
        raise ValueError(f"grain_length = {grain_length} must be positive and finite")
    labels = _per_node(mesh, rate_labels, "rate_labels")
    if not np.all((labels == 1) | (labels == 2)):
        raise ValueError("rate_labels must be 1 or 2")
    if not (math.isfinite(f) and f >= 1.0):
        raise ValueError(f"rate ratio f = {f} must be finite and >= 1")
    tri_label = np.where((labels[mesh.triangles] == 1).sum(axis=1) >= 2, 1, 2)

    P_b = np.empty(len(tau_grid))
    A_p = np.empty(len(tau_grid))
    A_eq = np.empty(len(tau_grid))
    for k, tau in enumerate(tau_grid):
        v = s - tau
        nburned, hosts, lone, points, _ = _cut(mesh, v, _unique_edges(mesh.triangles))
        d = points[:, 0] - points[:, 1]
        seg_len = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2)
        own1 = tri_label[hosts] == 1
        P1 = float(seg_len[own1].sum())
        P2 = float(seg_len[~own1].sum())
        P_b[k] = P1 + P2
        A_eq[k] = P1 + f * P2

        # the lone vertex's corner of the host is cut off along the chord
        vt = v[mesh.triangles[hosts]]
        rows = np.arange(len(hosts))
        va, vb, vc = vt[rows, lone], vt[rows, (lone + 1) % 3], vt[rows, (lone + 2) % 3]
        frac = (va / (va - vb)) * (va / (va - vc))
        burned_area = np.where(nburned == 3, mesh.areas, 0.0)
        burned_area[hosts] = mesh.areas[hosts] * np.where(nburned[hosts] == 1, frac, 1.0 - frac)
        A_p[k] = float(burned_area.sum())

    A_b = P_b * grain_length if grain_length is not None else None
    return BurnCurves(tau=tau_grid, P_b=P_b, A_p=A_p, A_eq=A_eq, A_b=A_b)


def error_field(mesh: Mesh, s: np.ndarray, exact: np.ndarray) -> ErrorField:
    """Node error against the exact per-node values, normalized by the
    peak exact depth."""
    s, exact = _per_node(mesh, s, "field"), _per_node(mesh, exact, "oracle")
    depth = float(np.abs(exact).max())
    if depth == 0.0:
        raise ValueError("oracle field is identically zero")
    e = (s - exact) / depth
    finite = np.isfinite(e)
    if not finite.all():
        raise ValueError(f"non-finite error value at node {int(np.argmin(finite))}")
    return ErrorField(values=e, max_abs=float(np.abs(e).max()), mean_abs=float(np.abs(e).mean()))


# ---------------------------------------------------------------------------
# emitters


def _g(x: float) -> str:
    return f"{x:.12g}"


def emit_csv(obj, mesh: Mesh | None = None, err: np.ndarray | None = None) -> str:
    """Fixed-header CSV text for the four artifact kinds.

    BurnCurves -> `tau,P_b,A_p,A_eq[,A_b]` and an InterfacePolyline ->
    `y,r1,theta1,r2,theta2`, one column per array field that is set; an
    ArrivalField -> residual history `step,dt,max_residual`; a per-node
    array together with mesh -> `node,x,y,s[,err]`.
    """
    if isinstance(obj, (BurnCurves, InterfacePolyline)):
        cols = {f.name: getattr(obj, f.name) for f in fields(obj)}
    elif isinstance(obj, ArrivalField):
        steps = np.arange(1, len(obj.dt_history) + 1)
        cols = {"step": steps, "dt": obj.dt_history, "max_residual": obj.residual_history}
    elif mesh is None:
        raise ValueError("field CSV needs a mesh")
    else:
        s = _per_node(mesh, obj, "field")
        err = None if err is None else _per_node(mesh, err, "err")
        x, y = mesh.nodes.T
        cols = {"node": np.arange(mesh.n_nodes), "x": x, "y": y, "s": s, "err": err}
    cols = {k: np.asarray(v).tolist() for k, v in cols.items() if v is not None}
    rows = [",".join(cols)] + [",".join(map(_g, vals)) for vals in zip(*cols.values())]
    return "\n".join(rows) + "\n"


def _svg_path_of_contour(contour: Contour) -> str:
    cmds = []
    for k, piece in enumerate(contour.pieces):
        x0, y0 = piece.start()
        if k == 0:
            cmds.append(f"M {_g(x0)} {_g(-y0)}")
        if isinstance(piece, Line):
            cmds.append(f"L {_g(piece.p1[0])} {_g(-piece.p1[1])}")
        else:
            # split so no single SVG arc spans more than a half turn
            span = piece.span()
            nsub = max(1, math.ceil(span / math.pi - 1e-12))
            sweep_flag = 0 if piece.sweep > 0 else 1
            for j in range(1, nsub + 1):
                ang = piece.a0 + piece.sweep * span * j / nsub
                x = piece.center[0] + piece.radius * math.cos(ang)
                y = piece.center[1] + piece.radius * math.sin(ang)
                r = _g(piece.radius)
                cmds.append(f"A {r} {r} 0 0 {sweep_flag} {_g(x)} {_g(-y)}")
    if contour.closed:
        cmds.append("Z")
    return " ".join(cmds)


def emit_svg(
    mesh: Mesh,
    s: np.ndarray | None = None,
    levels=(),
    contour: Contour | None = None,
    show_mesh: bool = True,
) -> str:
    """SVG document with one group of isochrone polylines per level.

    Coordinates are model units inside a declared viewBox; the y axis
    is flipped so the drawing matches the math orientation and the
    viewBox frames the mesh.  The mesh edges go underneath as a single
    path when requested; a contour, if given, is stroked on top.
    """
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    pad = 0.03 * float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-30))
    vb = (lo[0] - pad, -(hi[1] + pad), hi[0] - lo[0] + 2 * pad, hi[1] - lo[1] + 2 * pad)
    stroke = 0.15 * pad

    levels = [float(tau) for tau in levels]
    if levels and s is None:
        raise ValueError("isochrone levels need a field")
    s = None if s is None else _per_node(mesh, s, "field")
    bad = [tau for tau in levels if not math.isfinite(tau)]
    if bad:
        raise ValueError(f"isochrone level {bad[0]} is not finite")
    # one edge table for the underlay and every level
    table = _unique_edges(mesh.triangles) if show_mesh or levels else None

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_g(vb[0])} {_g(vb[1])} {_g(vb[2])} {_g(vb[3])}">\n',
    ]
    if show_mesh:
        xs = [_g(x) for x in mesh.nodes[:, 0].tolist()]
        ys = [_g(-y) for y in mesh.nodes[:, 1].tolist()]
        path = " ".join([f"M {xs[a]} {ys[a]} L {xs[b]} {ys[b]}" for a, b in table[0].tolist()])
        # the path is the bulk of the document: joined in place, not copied
        out += ['<path d="', path, f'" fill="none" stroke="#cccccc" stroke-width="{_g(0.5 * stroke)}"/>\n']
    for tau in levels:
        out.append(f'<g class="isochrone" data-tau="{_g(tau)}">\n')
        for poly in _isocontour(mesh, s, tau, table):
            pts = " ".join([f"{_g(x)},{_g(-y)}" for x, y in poly.tolist()])
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="{_g(stroke)}"/>\n'
            )
        out.append("</g>\n")
    if contour is not None:
        out.append(
            f'<path d="{_svg_path_of_contour(contour)}" fill="none" stroke="#d62728" stroke-width="{_g(stroke)}"/>\n'
        )
    out.append("</svg>\n")
    return "".join(out)
