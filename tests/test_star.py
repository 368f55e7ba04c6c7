"""Star and bipropellant star design formulas."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from burnback.star import (
    BiStarDesign,
    bistar_interface,
    neutral_residual,
    neutral_tip_angle,
)

# published half-angle table, degrees, for 4..8 star points
NEUTRAL_TABLE = {4: 28.21, 5: 31.12, 6: 33.53, 7: 35.55, 8: 37.30}


def test_neutral_tip_angles_match_published_table():
    for n, expected in NEUTRAL_TABLE.items():
        got = math.degrees(neutral_tip_angle(n))
        assert got == pytest.approx(expected, abs=0.02), f"n = {n}"


def test_neutral_tip_angle_is_a_residual_root():
    for n in range(4, 12):
        half = neutral_tip_angle(n)
        assert abs(neutral_residual(n, 2.0 * half)) < 1e-12
        # residual is monotone around the root
        assert neutral_residual(n, 2.0 * half - 0.01) * neutral_residual(n, 2.0 * half + 0.01) < 0.0


def test_neutral_tip_angle_grows_with_n():
    angles = [neutral_tip_angle(n) for n in range(4, 16)]
    assert np.all(np.diff(angles) > 0.0)


def test_neutral_tip_angle_matches_brentq():
    # the bisection lands where scipy's brentq root, polished by three
    # Newton steps, does, to within the rounding of the residual
    brentq = pytest.importorskip("scipy.optimize").brentq
    for n in range(4, 40):
        theta = brentq(lambda t: neutral_residual(n, t), 1e-6, math.pi - 1e-12, xtol=1e-14)
        for _ in range(3):
            theta -= neutral_residual(n, theta) / (0.5 / math.tan(0.5 * theta) ** 2)
        assert abs(2.0 * neutral_tip_angle(n) - theta) <= 2.0 * math.ulp(theta), f"n = {n}"


def test_neutral_tip_angle_is_the_first_float_with_a_non_negative_residual():
    for n in range(4, 40):
        theta = 2.0 * neutral_tip_angle(n)
        assert neutral_residual(n, theta) >= 0.0 > neutral_residual(n, math.nextafter(theta, 0.0)), f"n = {n}"


def test_neutral_tip_angle_rejects_small_n():
    with pytest.raises(ValueError):
        neutral_tip_angle(3)


def test_neutral_residual_validates_theta():
    with pytest.raises(ValueError):
        neutral_residual(5, 0.0)
    with pytest.raises(ValueError):
        neutral_residual(5, math.pi)


# ----------------------------------------------------------------- bipropellant


def test_bistar_design_reference_ratio():
    design = BiStarDesign(4, 1.0, 0.1, 0.5)
    assert design.f == pytest.approx(1.592, abs=1e-3)
    assert design.omega == pytest.approx(0.4)


def test_bistar_design_closed_form():
    for n, r_c, r_f, d in [(4, 1.0, 0.1, 0.5), (6, 2.0, 0.3, 0.8), (3, 1.0, 0.05, 0.6)]:
        design = BiStarDesign(n, r_c, r_f, d)
        omega = r_c - r_f - d
        expected = (math.sqrt(r_c**2 - 2.0 * r_c * d * math.cos(math.pi / n) + d**2) - r_f) / omega
        assert design.f == pytest.approx(expected, rel=1e-12)
        assert design.f >= 1.0


def test_bistar_design_rejects_missing_web():
    with pytest.raises(ValueError, match="web"):
        BiStarDesign(4, 1.0, 0.4, 0.6)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["r_c", "r_f", "d"])
def test_bistar_design_rejects_nonfinite_input(name, bad):
    args = dict(r_c=1.0, r_f=0.1, d=0.5)
    args[name] = bad
    with pytest.raises(ValueError, match=f"^{name} = {bad} is not finite"):
        BiStarDesign(4, **args)


def test_a_design_derives_its_web_and_rate_ratio():
    # two designs of the same inputs hold the same bits in all six
    # fields; omega and f are results, not arguments
    design = BiStarDesign(4, 1.0, 0.1, 0.5)
    assert design == BiStarDesign(4, 1.0, 0.1, 0.5)
    assert design.f.hex() == "0x1.978f6c0f8ec37p+0"
    assert design.omega == 1.0 - 0.1 - 0.5
    for derived in ("omega", "f"):
        with pytest.raises(TypeError):
            BiStarDesign(4, 1.0, 0.1, 0.5, **{derived: 0.4})


def test_replacing_an_input_derives_the_design_again():
    design = replace(BiStarDesign(4, 1.0, 0.1, 0.5), d=0.4)
    assert design.omega == 0.5
    assert design.f == BiStarDesign(4, 1.0, 0.1, 0.4).f != BiStarDesign(4, 1.0, 0.1, 0.5).f
    with pytest.raises(ValueError, match=r"^no web: need r_f \+ d < r_c$"):
        replace(design, d=0.9)


def test_bistar_interface_endpoints():
    design = BiStarDesign(4, 1.0, 0.1, 0.5)
    face = bistar_interface(design, 512)
    # both fronts start on the fillet-tip circle at the slot axis and
    # end together at the casing corner of the sector
    assert face.y[0] == pytest.approx(0.0)
    assert face.y[-1] == pytest.approx(design.omega)
    assert face.r1[0] == pytest.approx(design.r_f + design.d)
    assert face.r1[-1] == pytest.approx(design.r_c)
    assert face.theta1[0] == pytest.approx(0.0, abs=1e-12)
    assert face.theta1[-1] == pytest.approx(math.pi / design.n, rel=1e-9)
    assert face.r2[0] == pytest.approx(design.r_f)
    assert face.r2[-1] == pytest.approx(design.r_f + design.f * design.omega)


def test_bistar_interface_equal_arrival_against_distance_oracle():
    # every interface point is reached at the same pseudotime by the
    # slow front (distance from the casing, rate 1) and the fast front
    # (distance from the slot outline, rate f)
    from burnback.contour import Arc as CArc
    from burnback.contour import Contour, Line

    design = BiStarDesign(4, 1.0, 0.1, 0.5)
    face = bistar_interface(design, 257)
    alpha = math.pi / design.n
    wall0 = (design.r_f / math.tan(alpha), design.r_f)
    wall1 = (design.d, design.r_f)
    port = Contour(
        (
            Line(wall0, wall1),
            CArc((design.d, 0.0), design.r_f, 0.5 * math.pi, 0.0, -1),
        )
    )
    pts = np.column_stack(
        [face.r1 * np.cos(face.theta1), face.r1 * np.sin(face.theta1)]
    )
    slow_time = design.r_c - face.r1  # remaining distance to casing at rate 1
    fast_time = port.distance(pts) / design.f
    np.testing.assert_allclose(slow_time + face.y, design.omega, atol=1e-12)
    np.testing.assert_allclose(fast_time, face.y, atol=1e-9)


def test_bistar_interface_needs_two_samples():
    design = BiStarDesign(4, 1.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        bistar_interface(design, 1)


def test_neutral_tip_angle_bits_are_pinned():
    # the bisection ends on adjacent floats; these are its results
    bits = {
        4: "0x1.f848ba2edbcf7p-2",
        5: "0x1.162c76babf58dp-1",
        6: "0x1.2b9c900b8c9e8p-1",
        7: "0x1.3dbd1ee83ff68p-1",
        8: "0x1.4d601d92081bep-1",
    }
    assert {n: neutral_tip_angle(n).hex() for n in bits} == bits


# each input check of a bipropellant design: the arguments of
# BiStarDesign and the ValueError message
DESIGN_ERRORS = {
    "design n": ((2, 1.0, 0.1, 0.5), "need integer n >= 3, not n = 2"),
    "design n 4.5": ((4.5, 1.0, 0.1, 0.5), "need integer n >= 3, not n = 4.5"),
    "design r_c": ((4, math.inf, 0.1, 0.5), "r_c = inf is not finite"),
    "design r_f": ((4, 1.0, 0.0, 0.5), "need positive r_f and d"),
    "design d": ((4, 1.0, 0.1, -0.5), "need positive r_f and d"),
    "design web": ((4, 1.0, 0.4, 0.6), "no web: need r_f + d < r_c"),
}

# each input check of the design formulas but BiStarDesign's own: the
# call and its ValueError message
STAR_ERRORS = {
    "residual n": (lambda: neutral_residual(0, 1.0), "need integer n >= 1, not n = 0"),
    "residual n 2.5": (lambda: neutral_residual(2.5, 1.0), "need integer n >= 1, not n = 2.5"),
    "neutral n 5.5": (lambda: neutral_tip_angle(5.5), "neutral star needs integer n >= 4, not n = 5.5"),
    # the root lies within rounding of pi, past the bracket
    "neutral n 1e17": (
        lambda: neutral_tip_angle(10**17),
        "no neutral tip angle for n = 100000000000000000 in double precision",
    ),
    "neutral n 1e20": (
        lambda: neutral_tip_angle(10**20),
        "no neutral tip angle for n = 100000000000000000000 in double precision",
    ),
    "interface samples 1": (
        lambda: bistar_interface(BiStarDesign(4, 1.0, 0.1, 0.5), 1),
        "need integer n_samples >= 2, not n_samples = 1",
    ),
    "interface samples 2.5": (
        lambda: bistar_interface(BiStarDesign(4, 1.0, 0.1, 0.5), 2.5),
        "need integer n_samples >= 2, not n_samples = 2.5",
    ),
    "interface": (
        # a design this thin loses the cosine law's digits to rounding
        lambda: bistar_interface(BiStarDesign(4, 2.0, 1.0, 1e-7), 5),
        "fronts do not intersect at y = 0",
    ),
}


@pytest.mark.parametrize("name", sorted(STAR_ERRORS))
def test_star_input_errors(name):
    build, message = STAR_ERRORS[name]
    with pytest.raises(ValueError) as exc:
        build()
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


@pytest.mark.parametrize("name", sorted(DESIGN_ERRORS))
def test_a_design_built_directly_checks_its_inputs(name):
    args, message = DESIGN_ERRORS[name]
    with pytest.raises(ValueError) as exc:
        BiStarDesign(*args)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message
