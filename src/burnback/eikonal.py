"""Arrival-time solver.

Relaxes s_t = H + D to steady state on a triangular mesh, where
H = 1 - rate * |grad s| and D is an edge-based dissipation term, so the
converged s satisfies |grad s| = 1/rate: the front arrival time for a
surface receding at the given rate.  Node update per explicit step:

    s_i += dt_i * ( 1 - rate_i * |Gbar_i| + eps_i * sum_e beta_e (s_j - s_i)/len_e )

with Gbar_i the angle-weighted mean of the incident triangle gradients
and beta_e the tan(angle/2) fan weights of the edge at node i.  The
dissipation sum is taken against the fan's linear-field response
(Gbar_i dotted with the cached fan bias), so it vanishes wherever s is
locally linear, including one-sided boundary fans; what remains is a
curvature penalty whose steady-state bias scales with its coefficient

    eps_i = dissipation_scale * rate_i^2 * max(L_i, floor) / pi

where L_i is the largest incident gradient magnitude.  dissipation_scale
shrinks eps and dt together: the parasitic growth of the centred
advection term goes as dt^2 per step while the dissipation damps it in
proportion to eps * dt, so scaling both keeps the stability margin
amplitude-independent while the smearing of curved fronts drops
linearly.  The rate^2 factor makes the update commute exactly with rate
scaling (s maps to s/k when rate maps to k*rate), which also keeps the
time step CFL-correct for rates above 1.

Each node marches at its own CFL limit (local pseudo-time stepping)

    dt_i = 0.5 * CFL_SAFETY * dissipation_scale * h_i / (rate_i^2 * max(L_i, floor))

with h_i the smallest height of the triangles at i and CFL_SAFETY = 0.9.
The steady state H + D = 0 does not depend on dt, so only the path to
it changes: nodes far from the one that would bound a global step stop
waiting for it.  Power-of-two rate scaling still commutes exactly
(dt_i scales by 1/k with s), and the update is the same arithmetic on
every run, so arrival fields stay bitwise deterministic.  solve stops
after QUIET_STEPS consecutive steps whose triangle gradients change by
less than convergence_tol / min(rate).  The returned ArrivalField holds
s and the step histories; triangle_gradients derives gradients from s.

Per step the work is four sparse products with the operators of
GeomCache (the stacked x-then-y triangle gradients, the angle-weighted
node mean of each gradient component, and the edge dissipation), a
column max over the padded fan table for L_i, and elementwise
arithmetic on contiguous x and y components.  solve lays out the
per-node constants (rate^2, the dt numerator, the held node ids) once
and hands them to every step.

Boundary handling: SYMMETRY and FREE nodes see half a fan, so
geom_cache doubles their edge_diss rows (and with them node_beta_bias)
once per mesh.  step projects the mean gradient of each SYMMETRY node
onto its mirror line (GeomCache.sym_nodes, sym_dir) before the bias
subtraction.  solve holds IGNITION nodes at s = 0, and pinned nodes
at their values, by leaving them out of the update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import GeomCache, Mesh, geom_cache

__all__ = [
    "CFL_SAFETY",
    "QUIET_STEPS",
    "SolverConfig",
    "StepResult",
    "ArrivalField",
    "SolverError",
    "as_rate_field",
    "triangle_gradients",
    "step",
    "solve",
]


# safety factor on each node's CFL step, and the number of consecutive
# steps under the gradient-change tolerance that count as converged
CFL_SAFETY = 0.9
QUIET_STEPS = 10


class SolverError(RuntimeError):
    """Solver blow-up or unusable input."""


@dataclass
class SolverConfig:
    """Marching parameters; each field is a CLI flag of the same name.

    L_i is the max gradient over the triangles incident to node i,
    floored at 1/max(rate), the converged gradient scale, so the very
    first step (all gradients zero) has a finite time step; it sets
    both eps_i and the node's own step
    dt_i = 0.5 * CFL_SAFETY * dissipation_scale * h_i / (rate_i^2 * L_i).
    dissipation_scale trades accuracy on curved fronts against step
    count (both eps and dt carry the factor); kept a power of two so
    the scaling stays exact in floating point.  solve stops once the
    triangle gradients change by less than convergence_tol / min(rate)
    for QUIET_STEPS consecutive steps, or after max_steps.
    """

    convergence_tol: float = 1e-6
    max_steps: int = 1_000_000
    dissipation_scale: float = 0.25

    def __post_init__(self):
        if not (np.isfinite(self.convergence_tol) and self.convergence_tol > 0.0):
            raise ValueError("convergence_tol must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not 0.0 < self.dissipation_scale <= 1.0:
            raise ValueError("dissipation_scale must be in (0, 1]")


@dataclass
class StepResult:
    s: np.ndarray
    grad: np.ndarray          # x then y triangle gradients of the state acted on
    dt: float                 # smallest per-node step
    max_residual: float       # max |H + D| over nodes not held


@dataclass
class ArrivalField:
    s: np.ndarray
    residual_history: np.ndarray
    dt_history: np.ndarray    # smallest per-node step of each step
    converged: bool
    n_steps: int


def as_rate_field(mesh: Mesh, rate) -> np.ndarray:
    """Per-node recession rate from a scalar, array, or callable(x, y)."""
    if callable(rate):
        values = np.asarray(rate(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=np.float64)
    else:
        values = np.asarray(rate, dtype=np.float64)
        if values.ndim == 0:
            values = np.full(mesh.n_nodes, float(values))
    if values.shape != (mesh.n_nodes,):
        raise SolverError("rate field shape does not match the node count")
    if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
        bad = int(np.argmax(~(np.isfinite(values) & (values > 0.0))))
        raise SolverError(f"rate must be positive and finite (node {bad})")
    return values


def triangle_gradients(mesh: Mesh, s: np.ndarray, cache: GeomCache | None = None) -> np.ndarray:
    """Exact gradient of the linear interpolant on every triangle."""
    if cache is None:
        cache = geom_cache(mesh)
    g = cache.grad @ np.asarray(s, dtype=np.float64)
    return g.reshape(2, -1).T.copy()


@dataclass(frozen=True)
class _Marching:
    """The per-node constants of step, laid out once per solve."""

    rate2: np.ndarray         # rate * rate
    floor: float              # lower bound of L_i, 1/max(rate)
    dt_scale: np.ndarray      # 0.5 * CFL_SAFETY * dissipation_scale * h_i
    held: np.ndarray          # ids of the nodes that keep their value


def _marching(cache: GeomCache, rate: np.ndarray, config: SolverConfig, held) -> _Marching:
    return _Marching(
        rate2=rate * rate,
        floor=1.0 / rate.max(),
        dt_scale=0.5 * CFL_SAFETY * config.dissipation_scale * cache.node_min_height,
        held=np.flatnonzero(cache.is_ignition if held is None else held),
    )


def step(
    mesh: Mesh,
    cache: GeomCache,
    rate: np.ndarray,
    s: np.ndarray,
    config: SolverConfig,
    held: np.ndarray | None = None,
    *,
    marching: _Marching | None = None,
) -> StepResult:
    """One explicit update of the relaxation; pure, returns a new field.

    Each node marches with its own step dt_i; StepResult.dt is min(dt_i).
    Nodes where the boolean mask held is set keep their value in s
    (default: the IGNITION nodes).  The SYMMETRY mirror projection is
    applied here; the doubled SYMMETRY and FREE dissipation is already
    in cache.edge_diss.  solve passes marching, the constants that
    _marching derives from cache, rate, config and held, so that they
    are built once per solve rather than once per step.
    """
    m = marching if marching is not None else _marching(cache, rate, config, held)
    nt = mesh.n_triangles

    g = cache.grad @ s
    ux, uy = g[:nt], g[nt:]

    # L_i: the largest gradient over the triangles incident to node i,
    # a column max over the fan table of the squared norms, whose padding
    # id nt reads a 0.0 slot.  sqrt is correctly rounded and so monotone:
    # the root of the max is the max of the roots, bit for bit.
    # sqrt(x*x + y*y) rather than hypot: rounding then commutes with the
    # power-of-two scalings the homogeneity properties rely on.
    norm2 = np.empty(nt + 1)
    norm2[nt] = 0.0
    np.add(ux**2, uy**2, out=norm2[:nt])
    L = norm2[cache.fan[0]]
    for row in cache.fan[1:]:
        np.maximum(L, norm2[row], out=L)
    rate_scale = m.rate2 * np.maximum(np.sqrt(L), m.floor)
    eps = config.dissipation_scale * rate_scale / np.pi

    # project each SYMMETRY mean onto its mirror line, the exact mean of
    # the fan joined with its reflection.  It must feed every later use
    # of the mean: with the raw half-fan mean the bias subtraction below
    # leaves a cross term wherever mirror fronts collide on the line, and
    # the ridge nodes relax to the along-line solution instead.
    gx = cache.node_mean @ ux
    gy = cache.node_mean @ uy
    sym = cache.sym_nodes
    tx, ty = cache.sym_dir
    along = gx[sym] * tx + gy[sym] * ty
    gx[sym] = along * tx
    gy[sym] = along * ty

    # subtract the fan's response to a linear field so the dissipation
    # vanishes on locally linear s even where the stencil is one-sided
    # (boundary fans); the mean must already carry the mirror projection
    bx, by = cache.node_beta_bias
    acc = cache.edge_diss @ s - (gx * bx + gy * by)

    Hcal = 1.0 - rate * np.sqrt(gx**2 + gy**2) + eps * acc

    # Half of h_i/(rate_i^2 L_i): the advection bound alone admits ~0.7 h,
    # but the edge dissipation needs the extra margin (measured: the update
    # limit-cycles near 0.9 h and converges cleanly at or below 0.5 h).
    # dt carries dissipation_scale with eps; dropping eps alone destabilizes.
    dt = m.dt_scale / rate_scale

    s_new = s + dt * Hcal
    s_new[m.held] = s[m.held]

    if not np.all(np.isfinite(s_new)):
        bad = int(np.argmax(~np.isfinite(s_new)))
        raise SolverError(f"non-finite update at node {bad} (unstable marching)")

    # held nodes drop out of the residual; the nodes left are finite here
    Hcal[m.held] = 0.0
    return StepResult(s=s_new, grad=g, dt=float(dt.min()), max_residual=float(np.abs(Hcal).max()))


def solve(
    mesh: Mesh,
    rate,
    config: SolverConfig | None = None,
    cache: GeomCache | None = None,
    pinned: tuple[np.ndarray, np.ndarray] | None = None,
) -> ArrivalField:
    """March to steady state from s = 0.

    Convergence requires the max triangle-gradient change per step to
    stay below convergence_tol / min(rate) for QUIET_STEPS consecutive
    steps.  If max_steps is exhausted the partial field is returned with
    converged=False.  pinned=(indices, values) holds extra Dirichlet
    nodes fixed, e.g. immersed ignition contours with negative depth;
    each index must be a distinct node id.
    """
    config = config or SolverConfig()
    if cache is None:
        cache = geom_cache(mesh)
    rate = as_rate_field(mesh, rate)

    s = np.zeros(mesh.n_nodes)
    held = cache.is_ignition
    if pinned is not None:
        idx = np.asarray(pinned[0], dtype=np.int64)
        vals = np.asarray(pinned[1], dtype=np.float64)
        if idx.shape != vals.shape:
            raise SolverError("pinned indices and values differ in length")
        outside = idx[(idx < 0) | (idx >= mesh.n_nodes)]
        if outside.size:
            raise SolverError(f"pinned id {int(outside[0])} is not a node id in 0..{mesh.n_nodes - 1}")
        ids, counts = np.unique(idx, return_counts=True)
        if np.any(counts > 1):
            raise SolverError(f"pinned id {int(ids[np.argmax(counts > 1)])} is given more than once")
        held = held.copy()
        held[idx] = True
        s[idx] = vals
    if not held.any():
        raise SolverError("mesh has no IGNITION node and nothing is pinned")

    marching = _marching(cache, rate, config, held)
    nt = mesh.n_triangles
    grad_tol = config.convergence_tol / rate.min()
    prev_grad = None
    quiet = 0
    residuals = []
    dts = []
    converged = False
    n_steps = 0

    for n_steps in range(1, config.max_steps + 1):
        res = step(mesh, cache, rate, s, config, held, marching=marching)
        s = res.s
        residuals.append(res.max_residual)
        dts.append(res.dt)
        if prev_grad is not None:
            d = res.grad - prev_grad
            # the root of the max is the max of the roots (sqrt is monotone)
            change = float(np.sqrt((d[:nt] ** 2 + d[nt:] ** 2).max()))
            quiet = quiet + 1 if change < grad_tol else 0
            if quiet >= QUIET_STEPS:
                converged = True
                break
        prev_grad = res.grad

    return ArrivalField(
        s=s,
        residual_history=np.asarray(residuals),
        dt_history=np.asarray(dts),
        converged=converged,
        n_steps=n_steps,
    )
