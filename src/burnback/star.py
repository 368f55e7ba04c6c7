"""Closed-form grain design: neutral stars and sliverless bipropellant stars.

A star tip angle can be chosen so the perimeter lost at the tip cusps
exactly cancels the growth of the regular arcs and valley corners; the
residual of that balance and its root, bisected down to adjacent
floats, live here.  The bipropellant variant splits the sector into a
slow propellant around the casing and a fast one in the valley slot; a
BiStarDesign derives its web and the rate ratio f that brings both
fronts to the casing at the same instant, leaving no sliver.  The
propellant-propellant interface then follows from intersecting the two
cylindrical fronts at equal pseudotime.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BiStarDesign",
    "InterfacePolyline",
    "neutral_residual",
    "neutral_tip_angle",
    "bistar_interface",
]


@dataclass(frozen=True)
class BiStarDesign:
    """Sliverless two-propellant star: web omega and rate ratio f.

    The slow front starts at radius r_f + d around the chamber center
    and the fast one at radius r_f around the slot center, offset by d;
    both reach the casing corner together when omega = r_c - r_f - d and
    f = (sqrt(r_c^2 - 2 r_c d cos(pi/n) + d^2) - r_f) / omega.  They are
    derived from the checked inputs, also by dataclasses.replace.
    """

    n: int
    r_c: float
    r_f: float
    d: float
    omega: float = field(init=False)
    f: float = field(init=False)

    def __post_init__(self):
        n, r_c, r_f, d = self.n, self.r_c, self.r_f, self.d
        if not isinstance(n, numbers.Integral) or n < 3:
            raise ValueError(f"need integer n >= 3, not n = {n!r}")
        for name, value in (("r_c", r_c), ("r_f", r_f), ("d", d)):
            if not math.isfinite(value):
                raise ValueError(f"{name} = {value} is not finite")
        if not (r_f > 0.0 and d > 0.0):
            raise ValueError("need positive r_f and d")
        omega = r_c - r_f - d
        if omega <= 0.0:
            raise ValueError("no web: need r_f + d < r_c")
        # f >= 1 always: f < 1 would need cos(pi/n) > 1, so no guard here
        f = (math.sqrt(r_c**2 - 2.0 * r_c * d * math.cos(math.pi / n) + d**2) - r_f) / omega
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "f", f)


@dataclass(frozen=True)
class InterfacePolyline:
    """Sliverless interface sampled by slow-propellant burn depth y."""

    y: np.ndarray
    r1: np.ndarray
    theta1: np.ndarray
    r2: np.ndarray
    theta2: np.ndarray


def neutral_residual(n: int, theta: float) -> float:
    """Perimeter-slope residual of an n-tip star with tip angle theta.

    Sums the normal rotation collected along one half-sector of the
    front: the sector turn pi/n, the complement of the tip semi-angle,
    and the cusp loss cot(theta/2).  The full perimeter slope is
    2*n times this value, so a zero residual is a neutral star.
    """
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"need integer n >= 1, not n = {n!r}")
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must be in (0, pi)")
    half = 0.5 * theta
    return math.pi / n + (math.pi - theta) / 2.0 - 1.0 / math.tan(half)


def neutral_tip_angle(n: int) -> float:
    """Tip semi-angle theta/2 making an n-tip star neutral.

    The residual rises with theta, so the root is unique: theta is the
    first float in [1e-6, pi - 1e-12], found by bisection, at which the
    residual is not negative.  Stars with fewer than 4 tips are rejected,
    as their formal root lies where the construction self-intersects,
    and so is n above ~5e16, whose root lies within rounding of pi.
    """
    if not isinstance(n, numbers.Integral) or n < 4:
        raise ValueError(f"neutral star needs integer n >= 4, not n = {n!r}")
    lo, hi = 1e-6, math.pi - 1e-12
    if not neutral_residual(n, lo) < 0.0 <= neutral_residual(n, hi):
        raise ValueError(f"no neutral tip angle for n = {n} in double precision")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if neutral_residual(n, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * hi


def bistar_interface(design: BiStarDesign, n_samples: int) -> InterfacePolyline:
    """Propellant-propellant interface traced by burn depth y in [0, omega].

    Both fronts are cylinders at equal pseudotime, radius r1 = r_f+d+y
    about the chamber center and r2 = r_f + f*y about the slot center;
    their intersection gives theta1 by the cosine law and theta2 by
    closing the polar triangle.
    """
    if not isinstance(n_samples, numbers.Integral) or n_samples < 2:
        raise ValueError(f"need integer n_samples >= 2, not n_samples = {n_samples!r}")
    y = np.linspace(0.0, design.omega, n_samples)
    r1 = design.r_f + design.d + y
    r2 = design.r_f + design.f * y
    cos_t1 = (r1**2 + design.d**2 - r2**2) / (2.0 * r1 * design.d)
    if np.any(np.abs(cos_t1) > 1.0 + 1e-12):
        bad = float(y[np.argmax(np.abs(cos_t1))])
        raise ValueError(f"fronts do not intersect at y = {bad:.6g}")
    theta1 = np.arccos(np.clip(cos_t1, -1.0, 1.0))
    theta2 = np.arctan2(r1 * np.sin(theta1), r1 * np.cos(theta1) - design.d)
    return InterfacePolyline(y=y, r1=r1, theta1=theta1, r2=r2, theta2=theta2)
