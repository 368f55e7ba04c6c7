"""Benchmark grain configurations with exact arrival-time oracles.

The registry holds fixed configurations: every dimension and mesh
count is a constant of its builder, so a case name names one mesh.
Each builder returns a Case bundling a mesh, node recession rates and
the port outline that bounds the mesh.  Under a uniform rate the exact
arrival field that measures solver error is the port's distance over
the rate, so the Case derives it; only the bipropellant star passes its
own, a two-region composite whose slow region burns as circles about
the chamber center, and the scheme smoke cases have no oracle.
"""

from dataclasses import dataclass

import numpy as np

from .contour import Arc, Contour, Line, make_circle, make_star
from .eikonal import SolverConfig, as_rate_field
from .mesh import Marker, Mesh, _grid_mesh, _loft, _per_node, gen_coons, gen_rect
from .star import BiStarDesign, bistar_interface, neutral_tip_angle

__all__ = ["Case", "CASE_BUILDERS", "build_case"]


@dataclass(frozen=True, eq=False)
class Case:
    """A meshed grain plus everything a benchmark run needs.

    rate is the positive recession rate, given in either form solve
    takes (one value, or one per node) and stored as as_rate_field's
    per-node array.  It holds at most two propellants: propellant 1
    burns at the slowest rate and propellant 2 at the other.  labels
    and rate_ratio, the split that burn_curves weighs the equivalent
    area by, derive from it.  port, when given, is the port outline that
    bounds the mesh.  exact, the arrival field errors are measured
    against, defaults to the port's distance over a uniform rate and is
    None without a closed form (scheme smoke cases); depth, its maximum,
    normalizes relative errors.  config holds the solver settings, the
    defaults in every case; nothing sets another.  rate and exact hold
    one finite value per mesh node and are kept as read-only float64
    copies.  Cases compare and hash by identity.
    """

    name: str
    mesh: Mesh
    rate: float | np.ndarray
    port: Contour | None = None
    exact: np.ndarray | None = None
    config: SolverConfig = SolverConfig()

    def __post_init__(self):
        rate = np.array(as_rate_field(self.mesh, self.rate))
        rate.flags.writeable = False
        object.__setattr__(self, "rate", rate)
        exact = self.exact
        if exact is None and self.port is not None and self.rate_ratio == 1.0:
            exact = self.port.distance(self.mesh.nodes) / rate
        if exact is not None:
            exact = np.array(_per_node(self.mesh, exact, f"case {self.name} exact"))
            exact.flags.writeable = False
            object.__setattr__(self, "exact", exact)
        if len(np.unique(rate)) > 2:
            raise ValueError(f"case {self.name} has more than two propellant rates")

    @property
    def depth(self) -> float | None:
        """Largest exact arrival time, or None without an oracle."""
        return None if self.exact is None else float(self.exact.max())

    @property
    def labels(self) -> np.ndarray:
        """Propellant of each node: 1 where the rate is the slowest, 2 elsewhere."""
        return np.where(self.rate == self.rate.min(), 1, 2)

    @property
    def rate_ratio(self) -> float:
        """Fastest over slowest rate: A_eq = P_1 + rate_ratio * P_2."""
        return float(self.rate.max() / self.rate.min())


def rect_case() -> Case:
    """Planar front: ignition on the left edge, outflow on the right."""
    sides = {"left": Marker.IGNITION, "bottom": Marker.SYMMETRY, "top": Marker.SYMMETRY}
    mesh = gen_rect(60, 30, 2.0, 1.0, markers=sides)
    return Case("rect", mesh, 1.0, port=Contour((Line((0.0, 1.0), (0.0, 0.0)),)))


def annulus_case() -> Case:
    """Radial front on a quarter annulus bounded by two symmetry rays."""
    r_inner, r_outer = 1.0, 2.0
    inner = Arc((0.0, 0.0), r_inner, 0.0, 0.5 * np.pi, 1).points(512)
    outer = Arc((0.0, 0.0), r_outer, 0.0, 0.5 * np.pi, 1).points(512)
    mesh = gen_coons(inner, outer, 56, 84)
    port = Contour((Arc((0.0, 0.0), r_inner, 0.5 * np.pi, 0.0, -1),))
    return Case("annulus", mesh, 1.0, port=port)


def circle_case() -> Case:
    """Full annulus, a closed chain of four rotated quarter patches.

    The seams are interior, so the grain has no symmetry boundary at
    all; perimeter and port-area growth laws can be checked against the
    whole circumference.
    """
    r_inner, r_outer = 1.0, 2.0
    inner = Arc((0.0, 0.0), r_inner, 0.0, 0.5 * np.pi, 1).points(512)
    outer = Arc((0.0, 0.0), r_outer, 0.0, 0.5 * np.pi, 1).points(512)
    quarter = _loft(inner, outer, 28, 42)
    # Exact 90-degree rotations keep seam coordinates bitwise mirrored.
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    parts = [quarter]
    for _ in range(3):
        grid, tris = parts[-1]
        parts.append((grid @ rot.T, tris))
    mesh = _grid_mesh(parts, closed=True)
    return Case("circle", mesh, 1.0, port=make_circle(r_inner))


# Slot block per level: transverse count, then longitudinal counts of the
# cap patch and the wall patch.  Sized to land near 2.5e3 and 1e4 nodes.
_SLOT_GRIDS = {"coarse": (28, 19, 66), "fine": (57, 39, 134)}


def slot_case(level: str) -> Case:
    """Half of a rounded axial slot in a rectangular propellant block.

    The slot of half-width RF runs up the x = 0 mirror plane to height L
    and ends in a cap of the same radius; the block extends to W by H.
    Two patches meet on the chord from the cap tangent point (RF, L) to
    the top right corner so the cap-to-wall junction is a mesh vertex.
    """
    try:
        nv, n_cap, n_wall = _SLOT_GRIDS[level]
    except KeyError:
        raise ValueError(f"slot level must be one of {sorted(_SLOT_GRIDS)}") from None
    rf, length, w, h = 0.25, 2.0, 1.25, 3.25
    port = Contour(
        (Arc((0.0, length), rf, 0.5 * np.pi, 0.0, -1), Line((rf, length), (rf, 0.0)))
    )
    cap, wall = port.pieces
    top, right = np.array([[0.0, h], [w, h]]), np.array([[w, h], [w, 0.0]])
    mesh = _grid_mesh(
        [_loft(cap.points(256), top, nv, n_cap), _loft(wall.points(1), right, nv, n_wall)]
    )
    return Case(f"slot-{level}", mesh, 1.0, port=port)


def star_case() -> Case:
    """Neutral star half-sector meshed flank-to-casing and valley-to-casing.

    The tip semi-angle comes from the neutrality condition, so measured
    perimeter should stay flat until the front reaches the casing.  The
    patches meet on a chord from the flank-valley junction to the middle
    of the casing span: the junction stays a mesh vertex, and the seam
    leaves the flank steeply enough that neither loft runs parallel to
    its inner curve, which would squeeze cell heights and the time step.
    """
    n, eps, casing_radius = 5, 0.6, 1.0
    theta = 2.0 * neutral_tip_angle(n)
    port = make_star(n, theta, eps, 0.5)
    flank, valley_arc = port.pieces
    alpha, beta = np.pi / n, (1.0 - eps) * (np.pi / n)
    seam = 0.5 * (alpha + beta)
    casing_a = Arc((0.0, 0.0), casing_radius, alpha, seam, -1).points(512)
    casing_b = Arc((0.0, 0.0), casing_radius, seam, 0.0, -1).points(512)
    mesh = _grid_mesh(
        [_loft(flank.points(512), casing_a, 80, 70), _loft(valley_arc.points(512), casing_b, 80, 50)]
    )
    return Case("star", mesh, 1.0, port=port)


def bistar_case() -> Case:
    """Sliverless two-propellant slotted star, one half-sector.

    The port is a straight slot of half-width fillet_radius reaching
    depth slot_depth, capped by a fillet about its tip center.  A fast
    propellant fills the lens between the slot surface and the designed
    interface; the slow propellant outside the lens burns as circles
    about the chamber center, so the whole casing is reached at the web
    omega and no sliver remains.  Exact arrival: distance to the slot
    over f inside the lens, radial distance to the slot tip circle
    outside it.  Two patches meet on the chord from the wall-fillet
    junction to the casing at two thirds of the sector angle, keeping
    the junction a mesh vertex and both lofts steep against their inner
    curves.
    """
    n, casing_radius, fillet_radius, slot_depth = 4, 1.0, 0.1, 0.5
    design = BiStarDesign(n, casing_radius, fillet_radius, slot_depth)
    alpha = np.pi / n
    seam = 2.0 * alpha / 3.0
    tip = np.array([slot_depth, 0.0])
    wall0 = np.array([fillet_radius / np.tan(alpha), fillet_radius])
    wall1 = np.array([slot_depth, fillet_radius])
    wall = np.linspace(wall0, wall1, 513)
    fillet = Arc(tuple(tip), fillet_radius, 0.5 * np.pi, 0.0, -1)
    casing_w = Arc((0.0, 0.0), casing_radius, alpha, seam, -1).points(512)
    casing_c = Arc((0.0, 0.0), casing_radius, seam, 0.0, -1).points(512)
    mesh = _grid_mesh([_loft(wall, casing_w, 56, 44), _loft(fillet.points(256), casing_c, 56, 28)])
    port = Contour((Line(tuple(wall0), tuple(wall1)), fillet))
    # The interface radius at each polar angle decides the propellant.
    face = bistar_interface(design, 4096)
    r = np.sqrt(mesh.nodes[:, 0] ** 2 + mesh.nodes[:, 1] ** 2)
    gamma = np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0])
    fast = r < np.interp(gamma, face.theta1, face.r1)
    rate = np.where(fast, design.f, 1.0)
    exact = np.where(
        fast, port.distance(mesh.nodes) / design.f, r - (fillet_radius + slot_depth)
    )
    return Case("bistar", mesh, rate, port=port, exact=exact)


def scheme_case(feature: str, tilt_deg: float) -> Case:
    """Rate-jump interface through a front feature, for smoke runs.

    The ignition boundary of a 2 x 1 block kinks at its midpoint: a
    corner dips away from the propellant, a cusp juts into it.  The
    material interface is a line through the kink tilted tilt_deg from
    vertical, rate 1 on its left and 3 on its right.  No exact
    field; these runs only need to converge and draw sane isochrones.
    """
    if feature not in ("corner", "cusp"):
        raise ValueError("feature must be 'corner' or 'cusp'")
    kink = np.array([1.0, 0.15 if feature == "cusp" else -0.15])
    inner = np.array([[0.0, 0.0], kink, [2.0, 0.0]])
    outer = np.array([[0.0, 1.0], [2.0, 1.0]])
    mesh = gen_coons(
        inner, outer, 24, 48, markers={"side0": Marker.FREE, "side1": Marker.FREE}
    )
    tilt = np.radians(tilt_deg)
    u = np.array([np.sin(tilt), np.cos(tilt)])
    rel = mesh.nodes - kink
    left = u[0] * rel[:, 1] - u[1] * rel[:, 0] > 0.0
    rate = np.where(left, 1.0, 3.0)
    name = f"scheme-{feature}{'+' if tilt_deg >= 0 else ''}{tilt_deg:g}"
    return Case(name, mesh, rate)


CASE_BUILDERS = {
    "rect": rect_case,
    "annulus": annulus_case,
    "circle": circle_case,
    "slot-coarse": lambda: slot_case("coarse"),
    "slot-fine": lambda: slot_case("fine"),
    "star": star_case,
    "bistar": bistar_case,
    "scheme-corner+5": lambda: scheme_case("corner", 5.0),
    "scheme-corner-15": lambda: scheme_case("corner", -15.0),
    "scheme-cusp-15": lambda: scheme_case("cusp", -15.0),
}


def build_case(name: str) -> Case:
    """Look up a canonical case by registry name."""
    try:
        builder = CASE_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown case {name!r}; choose from {', '.join(sorted(CASE_BUILDERS))}"
        ) from None
    return builder()
