"""End-to-end acceptance gates.

Each test checks one contract gate and prints a single pass/fail line
with the measured numbers; capture is suspended for that line so it
stays visible in a normal pytest run.
"""

from __future__ import annotations

import math
import time

import numpy as np

from burnback.eikonal import solve
from burnback.mesh import Marker, Mesh, geom_cache
from burnback.postproc import burn_curves, emit_svg, error_field
from burnback.star import BiStarDesign, neutral_tip_angle

NEUTRAL_TABLE = {4: 28.21, 5: 31.12, 6: 33.53, 7: 35.55, 8: 37.30}


def report(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {label}: {detail}: {'PASS' if ok else 'FAIL'}", flush=True)


def best_time(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_neutral_star_table(capsys):
    neutral_tip_angle(4)  # warm the solver path before timing
    dev = max(
        abs(math.degrees(neutral_tip_angle(n)) - ref) for n, ref in NEUTRAL_TABLE.items()
    )
    worst_ms = 1e3 * max(best_time(lambda n=n: neutral_tip_angle(n)) for n in NEUTRAL_TABLE)
    ok = dev <= 0.02 and worst_ms < 1.0
    report(capsys, ok, "1", f"neutral half-angles dev {dev:.4f} deg (gate 0.02), {worst_ms:.3f} ms")
    assert ok


def test_criterion_02_bistar_rate_ratio(capsys):
    f = BiStarDesign(4, 1.0, 0.1, 0.5).f
    ms = 1e3 * best_time(lambda: BiStarDesign(4, 1.0, 0.1, 0.5))
    ok = abs(f - 1.592) <= 1e-3 and ms < 1.0
    report(capsys, ok, "2", f"f = {f:.6f} vs 1.592 (gate 1e-3), {ms:.3f} ms")
    assert ok


def test_criterion_03_slot_grid_study(solved, capsys):
    gates = {"slot-coarse": 0.01, "slot-fine": 0.005}
    parts, ok = [], True
    for name, gate in gates.items():
        case, field, seconds = solved(name)
        err = error_field(case.mesh, field.s, case.exact).max_abs
        ok &= field.converged and err < gate and seconds < 30.0
        parts.append(
            f"{name} {case.mesh.n_nodes} nodes err {100 * err:.3f}% "
            f"(gate {100 * gate:g}%) in {seconds:.1f}s"
        )
    report(capsys, ok, "3", "; ".join(parts))
    assert ok


def test_criterion_04_canonical_field_accuracy(solved, capsys):
    gates = {"rect": 0.005, "annulus": 0.005, "star": 0.015}
    parts, ok = [], True
    for name, gate in gates.items():
        case, field, _ = solved(name)
        err = error_field(case.mesh, field.s, case.exact).max_abs
        ok &= field.converged and err < gate and case.mesh.n_nodes <= 10_000
        parts.append(f"{name} err {100 * err:.3f}% (gate {100 * gate:g}%)")
    report(capsys, ok, "4", "; ".join(parts))
    assert ok


def test_criterion_05_interior_gradient_magnitude(solved, capsys):
    parts, ok = [], True
    for name in ("rect", "annulus"):
        case, field, _ = solved(name)
        interior = case.mesh.node_markers == Marker.INTERIOR
        tri_inside = interior[case.mesh.triangles].all(axis=1)
        gx, gy = (geom_cache(case.mesh).grad @ field.s).reshape(2, -1)
        mag = np.hypot(gx[tri_inside], gy[tri_inside])
        dev = float(np.abs(mag - 1.0).max())  # unit rate: |grad s| = 1
        ok &= dev < 0.05
        parts.append(f"{name} max |1 - |grad|| {dev:.4f} (gate 0.05)")
    report(capsys, ok, "5", "; ".join(parts))
    assert ok


def test_criterion_06_homogeneity(solved, capsys):
    case, base, _ = solved("annulus")
    fast = solve(case.mesh, 2.0)
    rate_dev = float(np.abs(2.0 * fast.s - base.s).max() / base.s.max())
    big = Mesh(3.0 * case.mesh.nodes, case.mesh.triangles, case.mesh.node_markers)
    scaled = solve(big, 1.0)
    scale_dev = float(np.abs(scaled.s - 3.0 * base.s).max() / (3.0 * base.s.max()))
    ok = rate_dev < 1e-9 and scale_dev < 1e-9
    report(capsys, ok, "6", f"rate x2 dev {rate_dev:.2e}, coords x3 dev {scale_dev:.2e} (gate 1e-9)")
    assert ok


def test_criterion_07_circle_growth_laws(solved, capsys):
    case, field, _ = solved("circle")
    tau = np.linspace(0.05, 0.85, 33)  # strictly before casing contact
    curves = burn_curves(case.mesh, field.s, case.labels, case.rate_ratio, tau)
    dP = np.gradient(curves.P_b, tau)[1:-1]  # central differences only
    dA = np.gradient(curves.A_p, tau)[1:-1]
    # a regular convex front gains 2*pi of perimeter per unit burn depth
    perim_dev = float(np.abs(dP / (2.0 * np.pi) - 1.0).max())
    area_dev = float(np.abs(dA / curves.P_b[1:-1] - 1.0).max())
    ok = perim_dev < 0.02 and area_dev < 0.02
    report(
        capsys,
        ok,
        "7",
        f"dP_b/dtau dev {100 * perim_dev:.2f}% of 2pi, "
        f"dA_p/dtau vs P_b dev {100 * area_dev:.2f}% (gates 2%)",
    )
    assert ok


def test_criterion_08_bistar_sliverless_equilibrium(solved, capsys):
    case, field, _ = solved("bistar")
    design = BiStarDesign(4, 1.0, 0.1, 0.5)
    casing = case.mesh.node_markers == Marker.FREE
    arrivals = field.s[casing]
    spread = float((arrivals.max() - arrivals.min()) / design.omega)
    tau = np.linspace(0.1 * design.omega, 0.9 * design.omega, 33)
    curves = burn_curves(case.mesh, field.s, case.labels, case.rate_ratio, tau)
    mean_aeq = float(curves.A_eq.mean())
    aeq_dev = float(np.abs(curves.A_eq - mean_aeq).max() / mean_aeq)
    err = error_field(case.mesh, field.s, case.exact).max_abs
    ok = field.converged and spread < 0.03 and aeq_dev <= 0.10 and err < 0.025
    report(
        capsys,
        ok,
        "8",
        f"casing arrival spread {100 * spread:.2f}% of web (gate 3%), "
        f"A_eq within {100 * aeq_dev:.2f}% of mean (gate 10%), "
        f"field err {100 * err:.3f}% (gate 2.5%)",
    )
    assert ok


def test_criterion_09_interface_scheme_robustness(solved, tmp_path, capsys):
    parts, ok = [], True
    for name in ("scheme-corner+5", "scheme-corner-15", "scheme-cusp-15"):
        case, field, _ = solved(name)
        levels = [k * field.s.max() / 6.0 for k in range(1, 6)]
        svg = emit_svg(case.mesh, field.s, levels=levels)
        path = tmp_path / f"{name}.svg"
        path.write_text(svg)
        drawn = svg.count('<g class="isochrone"')
        ok &= field.converged and drawn == 5 and "<polyline" in svg
        parts.append(f"{name} {field.n_steps} steps, {drawn} isochrones")
    report(capsys, ok, "9", "; ".join(parts))
    assert ok
