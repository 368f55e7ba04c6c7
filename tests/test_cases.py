"""Canonical verification cases: meshes, oracles, rate fields."""

from __future__ import annotations

import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

from burnback import cases
from burnback.cases import CASE_BUILDERS, build_case
from burnback.contour import Contour, Line
from burnback.eikonal import SolverConfig, SolverError, as_rate_field
from burnback.mesh import Marker, gen_rect
from burnback.star import BiStarDesign


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_case_builds_clean(name):
    case = build_case(name)
    assert case.name == name
    replace(case.mesh)  # checks the mesh again
    if case.exact is not None:
        assert case.depth > 0.0
        assert case.exact.shape == (case.mesh.n_nodes,)
        assert np.all(np.isfinite(case.exact))
        # boundary resampling sags nodes ~1e-6 inside the exact curve
        assert case.exact.min() >= -1e-5
    rate = case.rate
    assert rate.shape == (case.mesh.n_nodes,) and np.all(rate > 0.0)
    # propellant 1 burns at the slowest rate, propellant 2 rate_ratio times faster
    slow = rate.min()
    assert case.labels.shape == (case.mesh.n_nodes,)
    np.testing.assert_array_equal(case.labels == 1, rate == slow)
    np.testing.assert_array_equal(case.labels[case.labels != 1], 2)
    np.testing.assert_array_equal(rate[case.labels == 2], slow * case.rate_ratio)
    assert case.rate_ratio == rate.max() / slow
    # every case carries its solver settings, the defaults where it needs no others
    assert isinstance(case.config, SolverConfig)
    assert case.config == SolverConfig() or name == "star"


def test_cases_are_fixed_configurations():
    # a registry name names one mesh: nothing about a case can be set
    for name, builder in CASE_BUILDERS.items():
        assert not inspect.signature(builder).parameters, name
    public = [
        fn
        for name, fn in vars(cases).items()
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == cases.__name__
    ]
    assert len(public) == 8  # seven builders and build_case
    for fn in public:
        params = inspect.signature(fn).parameters.values()
        assert all(p.default is inspect.Parameter.empty for p in params), fn.__name__


def test_build_case_rejects_unknown_name():
    with pytest.raises(ValueError, match="slot-coarse"):
        build_case("nope")


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_single_rate_oracle_is_the_port_distance_over_the_rate(name):
    case = build_case(name)
    if case.port is not None and case.rate_ratio == 1.0:
        want = case.port.distance(case.mesh.nodes) / case.rate
        np.testing.assert_array_equal(case.exact, want)
    if name.startswith("scheme-"):
        assert case.port is None and case.exact is None and case.depth is None
    else:
        assert case.depth == case.exact.max()


def test_rect_case_oracle_is_planar():
    case = build_case("rect")
    x = case.mesh.nodes[:, 0]
    np.testing.assert_allclose(case.exact, x, rtol=0.0, atol=1e-16)
    off = case.mesh.node_markers != Marker.IGNITION
    np.testing.assert_array_equal(case.exact[off], x[off])
    assert case.depth == 2.0


def test_annulus_case_oracle_is_radial():
    case = build_case("annulus")
    r = np.hypot(case.mesh.nodes[:, 0], case.mesh.nodes[:, 1])
    np.testing.assert_allclose(case.exact, np.abs(r - 1.0), rtol=0.0, atol=1e-12)
    assert case.depth == 1.0


@pytest.mark.parametrize("name", ["annulus", "bistar", "rect", "slot-coarse", "slot-fine", "star"])
def test_mirror_directions_follow_the_builders_side_chords(name):
    # Each builder's two mirror sides start at the port's two ends.  The
    # rect's run along x; every other one runs from its port end out to
    # the casing on the ray from the origin, so its chord is parallel to
    # that end point.
    case = build_case(name)
    mesh = case.mesh
    ends = np.array([case.port.pieces[0].start(), case.port.pieces[-1].end()])
    chord = np.array([[1.0, 0.0]] * 2) if name == "rect" else ends / np.hypot(*ends.T)[:, None]
    sym = np.flatnonzero(mesh.node_markers == Marker.SYMMETRY)
    rel = mesh.nodes[sym, None, :] - ends
    off = np.abs(rel[..., 0] * chord[:, 1] - rel[..., 1] * chord[:, 0])
    side = off.argmin(axis=1)
    assert off.min(axis=1).max() < 1e-15 and set(side) == {0, 1}
    d = mesh.mirror[sym]
    sine = np.abs(d[:, 0] * chord[side, 1] - d[:, 1] * chord[side, 0])
    assert sine.max() <= 1e-14


def test_circle_case_has_no_symmetry_boundary():
    case = build_case("circle")
    markers = case.mesh.node_markers
    assert np.sum(markers == Marker.SYMMETRY) == 0
    r = np.hypot(case.mesh.nodes[:, 0], case.mesh.nodes[:, 1])
    np.testing.assert_allclose(r[markers == Marker.IGNITION], 1.0, rtol=1e-5)
    np.testing.assert_allclose(r[markers == Marker.FREE], 2.0, rtol=1e-5)
    np.testing.assert_allclose(case.exact, np.abs(r - 1.0), rtol=0.0, atol=1e-12)
    assert case.depth == 1.0


def test_slot_case_oracle_hand_values():
    case = build_case("slot-coarse")
    assert case.port.distance([(1.0, 1.0)]) == pytest.approx([0.75])
    assert case.port.distance([(0.0, 3.0)]) == pytest.approx([0.75])  # above the cap
    assert case.depth == pytest.approx(np.hypot(1.25, 1.25) - 0.25)


def test_slot_levels_hit_their_node_budgets():
    coarse = build_case("slot-coarse")
    fine = build_case("slot-fine")
    assert 2000 <= coarse.mesh.n_nodes <= 3000
    assert 9000 <= fine.mesh.n_nodes <= 11000


def test_star_case_mesh_budget_and_overrides():
    case = build_case("star")
    assert case.mesh.n_nodes <= 10_000
    assert case.config.dissipation_scale == 0.125
    # the flank-valley junction must be a mesh vertex
    beta = 0.4 * np.pi / 5.0
    v = 0.5 * np.array([np.cos(beta), np.sin(beta)])
    gaps = np.hypot(case.mesh.nodes[:, 0] - v[0], case.mesh.nodes[:, 1] - v[1])
    assert gaps.min() < 1e-9


def test_bistar_case_rate_field():
    case = build_case("bistar")
    design = BiStarDesign(4, 1.0, 0.1, 0.5)
    assert case.rate_ratio == pytest.approx(design.f)
    values = set(np.unique(case.rate))
    assert values == {1.0, design.f}
    # fast nodes are labeled 2 and carry the fast oracle
    fast = case.rate == design.f
    np.testing.assert_array_equal(case.labels[fast], 2)
    np.testing.assert_array_equal(case.labels[~fast], 1)
    assert case.exact.max() <= design.omega + 1e-9


def test_bistar_oracle_continuous_at_interface():
    from burnback.star import bistar_interface

    case = build_case("bistar")
    design = BiStarDesign(4, 1.0, 0.1, 0.5)
    face = bistar_interface(design, 1025)
    pts = np.column_stack([face.r1 * np.cos(face.theta1), face.r1 * np.sin(face.theta1)])
    slow = np.hypot(pts[:, 0], pts[:, 1]) - (design.r_f + design.d)
    fast = case.port.distance(pts) / design.f
    np.testing.assert_allclose(slow, fast, atol=1e-9)


@pytest.mark.parametrize(
    "name,fast_fraction",
    [("scheme-corner+5", 3.0), ("scheme-corner-15", 3.0), ("scheme-cusp-15", 3.0)],
)
def test_scheme_cases_split_rates(name, fast_fraction):
    case = build_case(name)
    assert set(np.unique(case.rate)) == {1.0, fast_fraction}
    assert case.rate_ratio == fast_fraction
    assert case.exact is None
    left = case.labels == 1
    np.testing.assert_array_equal(case.rate[left], 1.0)


_TINY = gen_rect(2, 2, 1.0, 1.0, markers={"left": Marker.IGNITION})


def test_case_split_derives_from_the_rate():
    assert {"labels", "rate_ratio", "depth"}.isdisjoint(f.name for f in fields(cases.Case))
    uniform = cases.Case("uniform", _TINY, 2.5)
    np.testing.assert_array_equal(uniform.labels, np.ones(_TINY.n_nodes, dtype=np.int64))
    assert uniform.rate_ratio == 1.0
    rate = np.where(_TINY.nodes[:, 0] < 0.75, 4.0, 0.5)
    split = cases.Case("split", _TINY, rate)
    np.testing.assert_array_equal(split.labels, np.where(rate == 0.5, 1, 2))
    assert split.rate_ratio == 8.0


def test_case_derives_its_oracle_from_the_port():
    port = Contour((Line((0.0, 1.0), (0.0, 0.0)),))
    x = _TINY.nodes[:, 0]
    for rate in (2.5, np.full(_TINY.n_nodes, 2.5)):
        case = cases.Case("t", _TINY, rate, port=port)
        np.testing.assert_array_equal(case.exact, x / 2.5)
        assert case.depth == 0.4
    given = cases.Case("t", _TINY, 1.0, port=port, exact=2.0 * x)
    np.testing.assert_array_equal(given.exact, 2.0 * x)
    # two rates: no single-rate oracle, so no depth
    split = cases.Case("t", _TINY, np.where(x < 0.75, 1.0, 2.0), port=port)
    assert split.exact is None and split.depth is None


def test_case_keeps_read_only_float64_copies_of_its_arrays():
    case = build_case("bistar")
    for array in (case.rate, case.exact):
        assert array.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7.0
    assert case.rate_ratio == pytest.approx(1.592, abs=5e-4)
    rate = np.where(_TINY.nodes[:, 0] < 0.75, 2, 1)  # integers, copied as floats
    split = cases.Case("split", _TINY, rate, exact=rate)
    rate[0] = 7
    assert split.rate.dtype == split.exact.dtype == np.float64
    assert split.rate[0] == split.exact[0] == 2.0
    assert split.rate_ratio == 2.0


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_boundary_nodes_are_exactly_the_marked_nodes(name, boundary_nodes):
    # an edge of one triangle bounds the grain; a seam left unwelded
    # would leave such edges between INTERIOR nodes
    mesh = build_case(name).mesh
    marked = np.flatnonzero(mesh.node_markers != Marker.INTERIOR)
    np.testing.assert_array_equal(boundary_nodes(mesh), marked)


@pytest.mark.parametrize("name", sorted(n for n in CASE_BUILDERS if build_case(n).port is not None))
def test_port_piece_ends_are_mesh_nodes(name):
    # the port is the outline that bounds the mesh, so every piece ends
    # on a node; a closed port's last end is its first start, to within
    # the contour closure tolerance (circle: sin(-2 pi) is 2.4e-16)
    case = build_case(name)
    ends = [end for piece in case.port.pieces for end in (piece.start(), piece.end())]
    if case.port.closed:
        ends.pop()
    for end in ends:
        assert np.any(np.all(case.mesh.nodes == end, axis=1)), end


def test_star_oracle_is_the_distance_to_the_nearest_image_of_the_half_outline():
    # the full port is the 2n images of the half outline; by reflection
    # across the rays, no image is nearer to a node than the outline is
    case, n = build_case("star"), 5
    images = []
    for mirror in (1.0, -1.0):
        nodes = case.mesh.nodes * [1.0, mirror]
        for k in range(n):
            c, s = np.cos(2.0 * np.pi * k / n), np.sin(2.0 * np.pi * k / n)
            images.append(case.port.distance(nodes @ np.array([[c, -s], [s, c]])))
    np.testing.assert_array_equal(np.min(images, axis=0), case.exact)


# each input check of the case builders: the call, its error class and message
CASE_ERRORS = {
    "slot level": (
        lambda: cases.slot_case("medium"), ValueError, "slot level must be one of ['coarse', 'fine']"
    ),
    "scheme feature": (
        lambda: cases.scheme_case("bump", 0.0), ValueError, "feature must be 'corner' or 'cusp'"
    ),
    "three rates": (
        lambda: cases.Case("tri", _TINY, np.arange(1.0, 10.0) % 3.0 + 1.0),
        ValueError,
        "case tri has more than two propellant rates",
    ),
    # the rate goes through as_rate_field, which names the node
    "rate not positive": (
        lambda: cases.Case("t", _TINY, 0.0, port=Contour((Line((0.0, 1.0), (0.0, 0.0)),))),
        SolverError,
        "rate must be positive and finite (node 0)",
    ),
    "rate length": (
        lambda: cases.Case("t", _TINY, np.ones(3), exact=np.zeros(5)),
        ValueError,
        "rate has 3 values for 9 mesh nodes",
    ),
    "exact length": (
        lambda: cases.Case("t", _TINY, 1.0, exact=np.zeros(5)),
        ValueError,
        "case t exact has 5 values for 9 mesh nodes",
    ),
    "exact length one": (
        lambda: cases.Case("t", _TINY, np.ones(9), exact=np.zeros(1)),
        ValueError,
        "case t exact has 1 values for 9 mesh nodes",
    ),
    "exact scalar": (
        lambda: cases.Case("t", _TINY, 1.0, exact=0.5),
        ValueError,
        "case t exact has 1 values for 9 mesh nodes",
    ),
    # a non-finite oracle would leave depth nan for curves to trip on later
    "exact not finite": (
        lambda: cases.Case("t", _TINY, 1.0, exact=np.r_[np.zeros(4), np.nan, np.inf, np.zeros(3)]),
        ValueError,
        "case t exact is not finite at node 4",
    ),
}


@pytest.mark.parametrize("name", sorted(CASE_ERRORS))
def test_case_input_errors(name):
    build, error, message = CASE_ERRORS[name]
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_a_case_stores_the_per_node_rate_of_as_rate_field():
    x, y = _TINY.nodes.T
    rate = np.where(x < 0.75, 1.0, 2.0) + 0.0 * y
    for given in (2.0, rate, list(rate)):
        case = cases.Case("t", _TINY, given)
        np.testing.assert_array_equal(case.rate, as_rate_field(_TINY, given))
        assert case.rate.dtype == np.float64 and not case.rate.flags.writeable
    assert cases.Case("t", _TINY, rate).rate_ratio == 2.0


def test_a_case_with_a_non_positive_rate_names_the_node():
    rate = np.ones(_TINY.n_nodes)
    for value, error, message in (
        (0.0, SolverError, "rate must be positive and finite (node 4)"),
        (-1.0, SolverError, "rate must be positive and finite (node 4)"),
        (np.nan, ValueError, "rate is not finite at node 4"),
        (np.inf, ValueError, "rate is not finite at node 4"),
    ):
        rate[4] = value
        for given in (rate, list(rate)):
            with pytest.raises(error) as exc:
                cases.Case("t", _TINY, given)
            assert type(exc.value) is error
            assert str(exc.value) == message


def test_cases_compare_and_hash_by_identity():
    case = cases.Case("tiny", _TINY, 1.0)
    copy = replace(case)
    assert case == case and case != copy
    assert len({case, copy, case}) == 2
