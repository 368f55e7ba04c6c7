"""Arrival-time solver.

Finds the steady state of s_t = H + D on a triangular mesh, where
H = 1 - rate * |grad s| and D is an edge-based dissipation term, so the
converged s satisfies |grad s| = 1/rate: the front arrival time for a
surface receding at the given rate.  The discrete steady state is the
root of the residual at every node that is not held,

    Hcal_i(s) = 1 - rate_i * |Gbar_i| + eps_i * (D s)_i

with Gbar_i = ((A_x s)_i, (A_y s)_i) the angle-weighted mean of the
incident triangle gradients and D the edge dissipation, both operators
of GeomCache.  D weighs the edges at node i by their tan(angle/2) fan
weights and subtracts the fan's response to the linear field of Gbar_i,
so it vanishes wherever s is locally linear, one-sided boundary fans
included; what remains is a curvature penalty whose steady-state bias
scales with its coefficient

    eps_i = dissipation_scale * rate_i^2 * max(L_i, floor) / pi

where L_i is the largest incident triangle gradient and floor =
1/max(rate).  The rate^2 factor makes the residual commute exactly with
rate scaling: s maps to s/k when rate maps to k*rate.

solve finds the root by pseudo-transient continuation (Kelley & Keyes,
SIAM J. Numer. Anal. 35, 1998): backward-Euler steps in local
pseudo-time on the nodes not held,

    (diag(1 / (c dt_i)) - J) delta = Hcal,   s += delta,

    dt_i = 0.5 * dissipation_scale * h_i / (rate_i^2 * max(L_i, floor)),

with h_i the smallest height of the triangles at node i, so dt_i is the
node's own explicit stability limit, and J = dHcal/ds:

    J = -diag(rate Gbar / |Gbar|) A + diag(eps) D
        + diag(dissipation_scale * rate^2 * (D s) / pi) dL/ds.

Row i of dL/ds is the unit gradient of the triangle that attains L_i
applied to that triangle's hat gradients; it is zero where L_i sits at
the floor.  The CFL number c starts at its ceiling 1e10, so the first
step is all but a Newton step, damped by a backtracking line search
(Kelley, Solving Nonlinear Equations with Newton's Method, SIAM 2003,
ch. 1.6): a trial whose max |Hcal| r is non-finite or more than doubles
is retried along the same delta at 1/2, 1/4, 1/8 and 1/16 of its
length.  Only when all five trials fail is the step rejected and c
divided by 4, which falls back on pseudo-transient continuation.  After
an accepted step c becomes min(2 c max(r_prev / r, 1), 1e10) by
switched evolution/relaxation (Mulder & van Leer, JCP 59, 1985), and
the last iterations converge quadratically.  Once r is below
_TOL = 1e-6, up to two chord steps with the last factor polish the
field, each kept only if it lowers r.  The iteration starts from graph
distances: Dijkstra over the mesh edges weighted
len * 2 / (rate_a + rate_b), from the held nodes at zero.
solve stops once max |Hcal| over the nodes not held falls below
_TOL, or after _MAX_STEPS = 1 000 iterations, rejected ones
included.  Hcal is dimensionless, so one tolerance fits every grain.

A and D share one sparsity pattern, each node's one-ring plus the
diagonal, and so does J.  Each iteration fills J's values into that
pattern, slices out the rows and columns of the nodes not held, and
factors the matrix with SuperLU; the old factor is freed before the
next one is made.  The arithmetic is the same on every run, so arrival
fields stay bitwise deterministic, and doubling the rate doubles J and
1/dt_i exactly while leaving Hcal unchanged, so s halves bitwise.

Boundary handling: geom_cache weighs each row of D up to a full turn by
its fan's angle sum and projects the mean gradient rows of each SYMMETRY
node onto the direction mesh.mirror of its mirror line, the line of the
node's boundary edges to SYMMETRY neighbours (see mesh.Mesh).  solve
holds exactly the IGNITION nodes, at s = 0, by leaving them out of the
system.  FREE is never read, so FREE and INTERIOR nodes solve alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array, csr_array
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import splu

from .mesh import GeomCache, Marker, Mesh, _per_node, geom_cache

__all__ = [
    "SolverConfig",
    "ArrivalField",
    "SolverError",
    "as_rate_field",
    "solve",
]


# CFL number of the first pseudo-time step, which is also its ceiling
_CFL_MAX = 1e10
# times a step along one Newton direction is halved before it is rejected
_HALVINGS = 4
# chord steps with the last factor once the residual is below tolerance
_CHORD_STEPS = 2
# max |Hcal| over the nodes not held below which a field is converged
_TOL = 1e-6
# iterations, rejected ones included, after which solve gives up
_MAX_STEPS = 1_000


class SolverError(RuntimeError):
    """Solver blow-up or unusable input."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters; the CLI sets dissipation_scale by --dissipation-scale.

    dissipation_scale sets eps_i and with it the discrete fixed point:
    smaller values smear curved fronts less; kept a power of two so the
    scaling stays exact in floating point.
    """

    dissipation_scale: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.dissipation_scale <= 1.0:
            raise ValueError(f"dissipation_scale = {self.dissipation_scale} must be in (0, 1]")


@dataclass
class ArrivalField:
    s: np.ndarray
    residual_history: np.ndarray  # max |Hcal| after each iteration
    dt_history: np.ndarray    # min(c * dt_i) of each iteration
    converged: bool
    n_steps: int              # iterations, rejected ones included


def as_rate_field(mesh: Mesh, rate) -> np.ndarray:
    """Per-node recession rate from a number or one value per node.
    A wrong length or non-finite value raises ValueError, a value that
    is not positive SolverError naming its node."""
    if np.ndim(rate) == 0:
        rate = np.full(mesh.n_nodes, rate, dtype=np.float64)
    values = _per_node(mesh, rate, "rate")
    if np.any(values <= 0.0):
        raise SolverError(f"rate must be positive and finite (node {int(np.argmax(values <= 0.0))})")
    return values


@dataclass
class _State:
    """Hcal at one field, with the pieces that J is made of."""

    s: np.ndarray
    hcal: np.ndarray
    max_residual: float       # max |Hcal| over the nodes not held
    g: np.ndarray             # x then y triangle gradients
    tri: np.ndarray           # the triangle that attains L_i
    L: np.ndarray             # largest incident gradient, not floored
    mean: np.ndarray          # x then y components of Gbar
    mean_norm: np.ndarray     # |Gbar|
    acc: np.ndarray           # D s
    rate_scale: np.ndarray    # rate^2 * max(L, floor)


class _System:
    """Hcal, J and the pseudo-time matrix of one solve.

    The per-node constants and the index arrays into the shared pattern
    are laid out once: the row of every pattern entry and its row-major
    key.
    """

    def __init__(self, mesh: Mesh, cache: GeomCache, rate: np.ndarray, scale: float):
        held = mesh.node_markers == Marker.IGNITION
        if not held.any():
            raise SolverError("mesh has no IGNITION node")
        self.mesh, self.cache, self.rate, self.scale = mesh, cache, rate, scale
        self.rate2 = rate * rate
        self.floor = 1.0 / rate.max()
        self.dt_scale = 0.5 * scale * cache.node_min_height
        self.held = np.flatnonzero(held)
        self.free = np.flatnonzero(~held)

        nn = mesh.n_nodes
        pattern = cache.edge_diss
        self.row = np.repeat(np.arange(nn), np.diff(pattern.indptr))
        self.keys = self.row * nn + pattern.indices

    def warm_start(self) -> np.ndarray:
        """Shortest-path arrival over the mesh edges from the held nodes.

        The pattern's zero-length diagonal adds only loops.
        """
        nodes, rate, pattern = self.mesh.nodes, self.rate, self.cache.edge_diss
        d = nodes[pattern.indices] - nodes[self.row]
        w = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2) * 2.0 / (rate[self.row] + rate[pattern.indices])
        graph = csr_array((w, pattern.indices, pattern.indptr), shape=pattern.shape)
        s = dijkstra(graph, indices=self.held, min_only=True)
        if not np.all(np.isfinite(s)):
            bad = int(np.argmax(~np.isfinite(s)))
            raise SolverError(f"node {bad} is not connected to any IGNITION node")
        return s

    def evaluate(self, s: np.ndarray) -> _State:
        cache = self.cache
        nn, nt = self.mesh.n_nodes, self.mesh.n_triangles
        g = cache.grad @ s
        # L_i over the fan table, whose padding id nt reads a 0.0 slot;
        # sqrt(x*x + y*y) rather than hypot: rounding then commutes with
        # the power-of-two scalings the homogeneity properties rely on
        norm2 = np.empty(nt + 1)
        norm2[nt] = 0.0
        np.add(g[:nt] ** 2, g[nt:] ** 2, out=norm2[:nt])
        tri = cache.fan[norm2[cache.fan].argmax(axis=0), np.arange(nn)]
        L = np.sqrt(norm2[tri])
        rate_scale = self.rate2 * np.maximum(L, self.floor)
        mean = cache.mean_grad @ s
        mean_norm = np.sqrt(mean[:nn] ** 2 + mean[nn:] ** 2)
        acc = cache.edge_diss @ s
        hcal = 1.0 - self.rate * mean_norm + self.scale * rate_scale / np.pi * acc
        r = float(np.abs(hcal[self.free]).max(initial=0.0))
        return _State(s, hcal, r, g, tri, L, mean, mean_norm, acc, rate_scale)

    def jacobian(self, st: _State) -> np.ndarray:
        """dHcal/ds as the data array of the shared pattern."""
        cache, row = self.cache, self.row
        nn, nt = self.mesh.n_nodes, self.mesh.n_triangles
        nnz = len(row)
        unit = np.divide(self.rate, st.mean_norm, out=np.zeros(nn), where=st.mean_norm > 0.0)
        eps = self.scale * st.rate_scale / np.pi
        A = cache.mean_grad.data
        J = eps[row] * cache.edge_diss.data - (unit * st.mean[:nn])[row] * A[:nnz]
        J -= (unit * st.mean[nn:])[row] * A[nnz:]
        # dL_i/ds: the unit gradient of the triangle attaining L_i times
        # its hat gradients, whose columns are that triangle's corners
        i = np.flatnonzero(st.L > self.floor)
        t = st.tri[i]
        w = self.scale * self.rate2[i] * st.acc[i] / np.pi / st.L[i]
        hat = cache.grad.data.reshape(2, nt, 3)
        dL = (w * st.g[t])[:, None] * hat[0, t] + (w * st.g[nt + t])[:, None] * hat[1, t]
        J[np.searchsorted(self.keys, i[:, None] * nn + self.mesh.triangles[t])] += dL
        return J

    def matrix(self, st: _State, c: float) -> tuple[csc_array, float]:
        """diag(1/(c dt_i)) - J on the nodes not held, and min(c dt_i)."""
        free, pattern = self.free, self.cache.edge_diss
        c_dt = c * (self.dt_scale[free] / st.rate_scale[free])
        m = csr_array((-self.jacobian(st), pattern.indices, pattern.indptr), shape=pattern.shape)
        m = m[free][:, free].tocsc()
        m.setdiag(m.diagonal() + 1.0 / c_dt)
        return m, float(c_dt.min())


def solve(
    mesh: Mesh,
    rate,
    config: SolverConfig = SolverConfig(),
    cache: GeomCache | None = None,
) -> ArrivalField:
    """Pseudo-transient continuation to the steady state, from graph distances.

    The IGNITION nodes are held at s = 0 and no other node is held.
    Converged means max |Hcal| < _TOL over the nodes not held.  If
    _MAX_STEPS iterations are spent first, the partial field is returned
    with converged=False.  An iteration is one factorization and the
    trials along its direction, at most five; a rejected one counts.
    """
    if cache is None:
        cache = geom_cache(mesh)
    rate = as_rate_field(mesh, rate)

    system = _System(mesh, cache, rate, config.dissipation_scale)
    free = system.free
    state = system.evaluate(system.warm_start())
    c = _CFL_MAX
    lu = None
    residuals, dts = [], []
    while state.max_residual >= _TOL and len(residuals) < _MAX_STEPS:
        matrix, dt = system.matrix(state, c)
        lu = None  # never hold two factors at once
        lu = splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))
        delta = lu.solve(state.hcal[free])
        r_prev = state.max_residual
        for k in range(_HALVINGS + 1):
            s = state.s.copy()
            s[free] += delta * 0.5**k
            trial = system.evaluate(s)
            r = trial.max_residual
            if r <= 2.0 * r_prev:  # false for a non-finite r as well
                c = min(c * 2.0 * max(r_prev / r, 1.0), _CFL_MAX) if r > 0.0 else _CFL_MAX
                state = trial
                break
        else:
            c /= 4.0
        residuals.append(state.max_residual)
        dts.append(dt)

    if lu is not None and state.max_residual < _TOL:
        # polish with the last factor, within its evaluation budget; the
        # history ends on the field returned
        for _ in range(min(_CHORD_STEPS, _HALVINGS - k)):
            s = state.s.copy()
            s[free] += lu.solve(state.hcal[free])
            trial = system.evaluate(s)
            if not trial.max_residual < state.max_residual:
                break
            state = trial
        residuals[-1] = state.max_residual

    return ArrivalField(
        s=state.s,
        residual_history=np.asarray(residuals),
        dt_history=np.asarray(dts),
        converged=state.max_residual < _TOL,
        n_steps=len(residuals),
    )
