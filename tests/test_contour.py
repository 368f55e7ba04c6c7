"""Exact port contours: distance oracles and canonical shapes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnback.contour import (
    Arc,
    Contour,
    ContourError,
    Line,
    make_circle,
    make_star,
)
from burnback.star import neutral_tip_angle


@pytest.fixture()
def slot():
    # walls at x = -0.5 and x = 0.5 from y = 0 to y = 2, joined by a
    # semicircular cap with its tip at (0, 2.5)
    return Contour(
        (
            Line((-0.5, 0.0), (-0.5, 2.0)),
            Arc((0.0, 2.0), 0.5, math.pi, 0.0, -1),
            Line((0.5, 2.0), (0.5, 0.0)),
        )
    )


# -------------------------------------------------------------------- pieces


def test_line_distance_hand_values():
    seg = Line((0.0, 0.0), (2.0, 0.0))
    assert seg.distance([(0.5, 3.0)]) == pytest.approx([3.0])
    assert seg.distance([(-3.0, 4.0)]) == pytest.approx([5.0])  # clamps to p0
    assert seg.distance([(3.0, 0.0)]) == pytest.approx([1.0])  # clamps to p1
    np.testing.assert_allclose(
        seg.distance(np.array([[1.0, -2.0], [2.0, 0.0]])), [2.0, 0.0]
    )


def test_line_rejects_degenerate_input():
    with pytest.raises(ContourError):
        Line((1.0, 1.0), (1.0, 1.0))
    with pytest.raises(ContourError):
        Line((0.0, np.nan), (1.0, 0.0))


def test_arc_distance_radial_inside_span_endpoint_outside():
    quarter = Arc((0.0, 0.0), 1.0, 0.0, 0.5 * math.pi, 1)
    assert quarter.span() == pytest.approx(0.5 * math.pi)
    assert quarter.distance([(2.0, 0.0)]) == pytest.approx([1.0])
    assert quarter.distance([(3.0 / math.sqrt(2),) * 2]) == pytest.approx([2.0])
    # behind the start angle the nearest point is the start endpoint
    assert quarter.distance([(0.0, -1.0)]) == pytest.approx([math.sqrt(2.0)])


def test_arc_full_circle_span():
    full = Arc((0.0, 0.0), 2.0, 0.25, 0.25, 1)
    assert full.span() == pytest.approx(2.0 * math.pi)
    pts = full.points(4096)
    assert np.hypot(*np.diff(pts, axis=0).T).sum() == pytest.approx(4.0 * math.pi, rel=1e-6)


def test_contour_requires_shared_endpoints():
    with pytest.raises(ContourError, match="share an endpoint"):
        Contour((Line((0.0, 0.0), (1.0, 0.0)), Line((1.1, 0.0), (2.0, 0.0))))


def test_closed_contour_must_close():
    with pytest.raises(ContourError, match="close"):
        Contour((Line((0.0, 0.0), (1.0, 0.0)), Line((1.0, 0.0), (1.0, 1.0))), closed=True)


def test_contour_distance_is_min_over_pieces(slot):
    assert slot.distance([(0.0, 1.0)]) == pytest.approx([0.5])
    assert slot.distance([(0.0, 3.5)]) == pytest.approx([1.0])


def test_contour_distance_matches_dense_sampling(slot):
    # independent oracle: min distance to a fine point sampling of the curve
    # no piece is longer than 2, so 2000 samples space points at most 1e-3 apart
    cloud = np.vstack([piece.points(2000) for piece in slot.pieces])
    rng = np.random.default_rng(7)
    pts = rng.uniform([-2.0, -1.0], [2.0, 4.0], size=(200, 2))
    exact = slot.distance(pts)
    sampled = np.min(
        np.hypot(pts[:, None, 0] - cloud[None, :, 0], pts[:, None, 1] - cloud[None, :, 1]),
        axis=1,
    )
    assert np.all(sampled >= exact - 1e-12)
    assert np.max(sampled - exact) < 1e-3


# ---------------------------------------------------------------- port shapes


def test_make_circle_distance_exact():
    ring = make_circle(2.0)
    assert ring.closed
    assert ring.distance([(3.0, 0.0)]) == pytest.approx([1.0])
    assert ring.distance([(0.0, 0.0)]) == pytest.approx([2.0])
    pts = np.vstack([piece.points(4096) for piece in ring.pieces])
    assert np.hypot(*np.diff(pts, axis=0).T).sum() == pytest.approx(4.0 * math.pi, rel=1e-6)


def test_make_star_half_sector_geometry():
    n, theta, eps, d = 5, math.radians(60.0), 0.6, 0.5
    half = make_star(n, theta, eps, d)
    alpha, beta = math.pi / n, (1.0 - eps) * math.pi / n
    apex_r = d * math.sin(0.5 * theta - eps * alpha) / math.sin(0.5 * theta)
    np.testing.assert_allclose(
        half.pieces[0].start(), [apex_r * math.cos(alpha), apex_r * math.sin(alpha)], atol=1e-14
    )
    np.testing.assert_allclose(
        half.pieces[0].end(), [d * math.cos(beta), d * math.sin(beta)], atol=1e-14
    )
    valley = half.pieces[1]
    assert isinstance(valley, Arc)
    assert valley.radius == pytest.approx(d)
    assert valley.span() == pytest.approx(beta)
    np.testing.assert_allclose(valley.end(), [d, 0.0], atol=1e-14)


def test_make_star_rejects_tip_crossing_symmetry_ray():
    # a neutral 5-point tip is narrower than the full sector, so eps = 1
    # (no valley arc) leaves no room for the flank
    with pytest.raises(ContourError, match="tip"):
        make_star(5, 2.0 * neutral_tip_angle(5), 1.0, 0.5)


def test_make_star_validates_ranges():
    with pytest.raises(ContourError):
        make_star(2, 1.0, 0.5, 0.5)
    with pytest.raises(ContourError):
        make_star(5, 1.0, 0.0, 0.5)
    with pytest.raises(ContourError, match="valley_depth must be positive"):
        make_star(5, 1.0, 0.5, 0.0)


def test_make_star_without_valley_arc_is_one_flank():
    # eps = 1: the flank runs from the apex on the tip ray straight to
    # the valley ray, which needs a tip wider than the sector
    n, theta, d = 5, math.radians(100.0), 0.5
    half = make_star(n, theta, 1.0, d)
    (flank,) = half.pieces
    assert isinstance(flank, Line)
    alpha = math.pi / n
    apex_r = d * math.sin(0.5 * theta - alpha) / math.sin(0.5 * theta)
    np.testing.assert_allclose(flank.start(), [apex_r * math.cos(alpha), apex_r * math.sin(alpha)], atol=1e-14)
    np.testing.assert_allclose(flank.end(), [d, 0.0], atol=1e-14)


_LINE = Line((0.0, 0.0), (1.0, 0.0))

# each input check of the contour module: the call and its ContourError message
CONTOUR_ERRORS = {
    "query columns": (lambda: _LINE.distance(np.zeros((2, 3))), "query points must be (n, 2)"),
    "query rank": (lambda: _LINE.distance(np.zeros((2, 2, 2))), "query points must be (n, 2)"),
    "single point": (lambda: _LINE.distance((0.5, 0.5)), "query points must be (n, 2)"),
    "arc radius": (lambda: Arc((0.0, 0.0), 0.0, 0.0, 1.0, 1), "arc radius must be positive"),
    "arc sweep": (lambda: Arc((0.0, 0.0), 1.0, 0.0, 1.0, 0), "arc sweep must be +1 or -1"),
    "arc sweep 1.5": (lambda: Arc((0.0, 0.0), 1.0, 0.0, 1.0, 1.5), "arc sweep must be +1 or -1"),
    "arc center": (lambda: Arc((0.0, math.nan), 1.0, 0.0, 1.0, 1), "non-finite arc parameter"),
    "arc angle": (lambda: Arc((0.0, 0.0), 1.0, 0.0, math.inf, 1), "non-finite arc parameter"),
    "arc radius inf": (lambda: Arc((0.0, 0.0), math.inf, 0.0, 1.0, 1), "non-finite arc parameter"),
    "no pieces": (lambda: Contour(()), "contour needs at least one piece"),
    "foreign piece": (lambda: Contour((_LINE, ((1.0, 0.0), (2.0, 0.0)))), "piece 1 is not a Line or Arc"),
    "circle radius": (lambda: make_circle(0.0), "circle radius must be positive"),
    # named before the closure check warns on an infinite gap
    "circle radius inf": (lambda: make_circle(math.inf), "non-finite arc parameter"),
    "star n 4.5": (lambda: make_star(4.5, 1.0, 0.5, 0.5), "star needs integer n >= 3, not n = 4.5"),
    "tip angle zero": (lambda: make_star(5, 0.0, 0.5, 0.5), "tip_angle must be in (0, pi)"),
    "tip angle pi": (lambda: make_star(5, math.pi, 0.5, 0.5), "tip_angle must be in (0, pi)"),
}


@pytest.mark.parametrize("name", sorted(CONTOUR_ERRORS))
def test_contour_input_errors(name):
    build, message = CONTOUR_ERRORS[name]
    with pytest.raises(ContourError) as exc:
        build()
    assert str(exc.value) == message


# ----------------------------------------------------------------- invariants


coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(ax=coords, ay=coords, bx=coords, by=coords, px=coords, py=coords)
def test_line_distance_bounds(ax, ay, bx, by, px, py):
    if math.hypot(bx - ax, by - ay) < 1e-6:
        return
    seg = Line((ax, ay), (bx, by))
    (d,) = seg.distance([(px, py)])
    ends = min(math.hypot(px - ax, py - ay), math.hypot(px - bx, py - by))
    assert 0.0 <= d <= ends + 1e-9
    assert seg.distance([(ax, ay)])[0] <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    radius=st.floats(min_value=0.1, max_value=10.0),
    a0=st.floats(min_value=-3.0, max_value=3.0),
    span=st.floats(min_value=0.1, max_value=5.0),
)
def test_arc_points_lie_on_arc(radius, a0, span):
    piece = Arc((1.0, -2.0), radius, a0, a0 + span, 1)
    pts = piece.points(16)
    np.testing.assert_allclose(np.hypot(pts[:, 0] - 1.0, pts[:, 1] + 2.0), radius, rtol=1e-12)
    np.testing.assert_allclose(piece.distance(pts), 0.0, atol=1e-12)
