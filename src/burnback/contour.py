"""Initial combustion contours and the exact burnback oracle.

At uniform unit recession rate every surface point travels along a
straight line, so the arrival time at a query point equals the minimum
Euclidean distance to the initial contour.  Taking the minimum over
pieces trims caustics and inserts rarefaction arcs implicitly, which is
why the oracle here is a distance field and not an offset-curve
constructor; offset contours for display are level sets of this field.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContourError",
    "Line",
    "Arc",
    "Contour",
    "make_circle",
    "make_star",
]

# endpoint continuity and closure tolerance, absolute in model units
_TOL = 1e-9
_TWO_PI = 2.0 * math.pi


class ContourError(ValueError):
    """Malformed contour or infeasible construction parameters."""


def _as_points(p) -> np.ndarray:
    pts = np.asarray(p, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ContourError("query points must be (n, 2)")
    return pts


@dataclass(frozen=True)
class Line:
    """Directed segment; material side is the left of p0 -> p1."""

    p0: tuple[float, float]
    p1: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "p0", (float(self.p0[0]), float(self.p0[1])))
        object.__setattr__(self, "p1", (float(self.p1[0]), float(self.p1[1])))
        if not all(map(math.isfinite, (*self.p0, *self.p1))):
            raise ContourError("non-finite line endpoint")
        if self.length() == 0.0:
            raise ContourError("zero-length line piece")

    def start(self) -> np.ndarray:
        return np.array(self.p0)

    def end(self) -> np.ndarray:
        return np.array(self.p1)

    def length(self) -> float:
        return math.hypot(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1])

    def points(self, n: int) -> np.ndarray:
        t = np.linspace(0.0, 1.0, n + 1)[:, None]
        return (1.0 - t) * self.start() + t * self.end()

    def distance(self, points) -> np.ndarray:
        pts = _as_points(points)
        a, b = self.start(), self.end()
        ab = b - a
        t = np.clip(((pts - a) @ ab) / (ab @ ab), 0.0, 1.0)
        d = pts - (a + t[:, None] * ab)
        return np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2)


@dataclass(frozen=True)
class Arc:
    """Circular arc from angle a0 to a1, traversed in sweep direction.

    sweep is +1 (counter-clockwise) or -1 (clockwise); the swept extent
    is ((a1 - a0) * sweep) mod 2*pi, with 0 meaning a full circle.
    """

    center: tuple[float, float]
    radius: float
    a0: float
    a1: float
    sweep: int

    def __post_init__(self):
        if self.sweep not in (-1, 1):
            raise ContourError("arc sweep must be +1 or -1")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "a1", float(self.a1))
        object.__setattr__(self, "sweep", int(self.sweep))
        if not self.radius > 0.0:
            raise ContourError("arc radius must be positive")
        if not all(map(math.isfinite, (*self.center, self.radius, self.a0, self.a1))):
            raise ContourError("non-finite arc parameter")

    def span(self) -> float:
        s = (self.sweep * (self.a1 - self.a0)) % _TWO_PI
        return _TWO_PI if s == 0.0 else s

    def _point(self, angle: float) -> np.ndarray:
        return np.array(
            [
                self.center[0] + self.radius * math.cos(angle),
                self.center[1] + self.radius * math.sin(angle),
            ]
        )

    def start(self) -> np.ndarray:
        return self._point(self.a0)

    def end(self) -> np.ndarray:
        return self._point(self.a1)

    def points(self, n: int) -> np.ndarray:
        ang = self.a0 + self.sweep * np.linspace(0.0, self.span(), n + 1)
        return np.column_stack(
            [
                self.center[0] + self.radius * np.cos(ang),
                self.center[1] + self.radius * np.sin(ang),
            ]
        )

    def distance(self, points) -> np.ndarray:
        pts = _as_points(points)
        d = pts - np.asarray(self.center)
        rho = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2)
        phi = np.arctan2(d[:, 1], d[:, 0])
        rel = (self.sweep * (phi - self.a0)) % _TWO_PI
        radial = np.abs(rho - self.radius)
        ends = np.minimum(
            np.hypot(pts[:, 0] - self.start()[0], pts[:, 1] - self.start()[1]),
            np.hypot(pts[:, 0] - self.end()[0], pts[:, 1] - self.end()[1]),
        )
        return np.where(rel <= self.span(), radial, ends)


@dataclass(frozen=True)
class Contour:
    """Piecewise line/arc curve; material lies left of the traversal.

    Consecutive pieces must share endpoints and a closed contour must
    end where it begins, both within 1e-9 in model units.
    """

    pieces: tuple
    closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if not self.pieces:
            raise ContourError("contour needs at least one piece")
        for k, piece in enumerate(self.pieces):
            if not isinstance(piece, (Line, Arc)):
                raise ContourError(f"piece {k} is not a Line or Arc")
        for k in range(1, len(self.pieces)):
            gap = np.linalg.norm(self.pieces[k].start() - self.pieces[k - 1].end())
            if gap > _TOL:
                raise ContourError(f"pieces {k - 1} and {k} do not share an endpoint (gap {gap:.3g})")
        if self.closed:
            gap = np.linalg.norm(self.pieces[-1].end() - self.pieces[0].start())
            if gap > _TOL:
                raise ContourError(f"closed contour does not close (gap {gap:.3g})")

    def distance(self, points):
        pts = _as_points(points)
        return np.min([piece.distance(pts) for piece in self.pieces], axis=0)


# ---------------------------------------------------------------------------
# canonical port shapes


def make_circle(radius: float) -> Contour:
    """Closed circular port of the given radius, material outside."""
    if not radius > 0.0:
        raise ContourError("circle radius must be positive")
    # clockwise traversal keeps the material (left side) outside
    return Contour((Arc((0.0, 0.0), radius, 0.0, -_TWO_PI, -1),), closed=True)


def make_star(n: int, tip_angle: float, eps: float, valley_depth: float) -> Contour:
    """Half-sector outline of an n-point star port.

    The sector spans the tip ray (angle pi/n) to the valley ray (angle
    0).  The valley arc has radius valley_depth around the origin over
    a fraction (1 - eps) of the half-sector; the straight flank leaves
    its end at angle tip_angle/2 to the tip ray and stops at the sharp
    propellant apex on that ray.  Traversal runs apex -> valley so the
    propellant stays on the left.  The outline is the port of the
    meshed half-sector, and its distance is exact there: by reflection
    across the two rays, no point of the sector is nearer to another
    tip's or valley's copy of the outline.
    """
    if not isinstance(n, numbers.Integral) or n < 3:
        raise ContourError(f"star needs integer n >= 3, not n = {n!r}")
    if not 0.0 < tip_angle < math.pi:
        raise ContourError("tip_angle must be in (0, pi)")
    if not 0.0 < eps <= 1.0:
        raise ContourError("eps must be in (0, 1]")
    if not valley_depth > 0.0:
        raise ContourError("valley_depth must be positive")
    alpha = math.pi / n
    half = 0.5 * tip_angle
    if half <= eps * alpha:
        raise ContourError(
            "tip crosses the symmetry ray: need tip_angle/2 > eps*pi/n "
            f"(got {half:.6g} <= {eps * alpha:.6g})"
        )
    beta = (1.0 - eps) * alpha
    apex_r = valley_depth * math.sin(half - eps * alpha) / math.sin(half)
    apex = (apex_r * math.cos(alpha), apex_r * math.sin(alpha))
    valley = (valley_depth * math.cos(beta), valley_depth * math.sin(beta))
    flank = Line(apex, valley)
    if eps == 1.0:
        return Contour((flank,))
    return Contour((flank, Arc((0.0, 0.0), valley_depth, beta, 0.0, -1)))
