"""Sliverless two-propellant star: design, solve, and equilibrium check.

A slotted grain cast from one propellant leaves slivers: the star
points burn out late and raggedly.  Filling the slot region with a
faster propellant whose rate ratio f is chosen so both fronts reach
the casing together removes the sliver entirely.  This demo computes
the closed-form ratio, tabulates the fast/slow interface, solves the
arrival field, and measures how simultaneous the casing arrival and
how flat the rate-weighted perimeter actually are.

Run:  python3 demos/bipropellant_star.py
"""

from pathlib import Path

import numpy as np

from burnback import (
    BiStarDesign,
    SolverError,
    bistar_interface,
    build_case,
    burn_curves,
    emit_csv,
    emit_svg,
    solve,
)
from burnback.mesh import Marker

OUT = Path(__file__).parent / "out"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    design = BiStarDesign(n=4, r_c=1.0, r_f=0.1, d=0.5)
    print(f"4-slot grain, casing 1.0, fillet 0.1, slot depth 0.5")
    print(f"web omega = {design.omega:.4f}, rate ratio f = {design.f:.4f}")

    face = bistar_interface(design, 256)
    case = build_case("bistar")
    field = solve(case.mesh, case.rate, config=case.config)
    if not field.converged:
        raise SolverError(f"case {case.name} did not converge within {field.n_steps} steps")
    face_csv = OUT / "bistar_interface.csv"
    face_csv.write_text(emit_csv(face))
    print(f"interface polyline: {face_csv.name}")

    casing = case.mesh.node_markers == Marker.FREE
    arrive = field.s[casing]
    spread = (arrive.max() - arrive.min()) / design.omega
    print(
        f"solved {case.mesh.n_nodes} nodes in {field.n_steps} steps; "
        f"casing arrival {arrive.mean():.4f} +- {0.5 * (arrive.max() - arrive.min()):.4f} "
        f"(spread {100 * spread:.2f}% of the web)"
    )

    tau = np.linspace(0.1 * design.omega, 0.9 * design.omega, 33)
    curves = burn_curves(case.mesh, field.s, case.labels, case.rate_ratio, tau)
    aeq_dev = np.abs(curves.A_eq - curves.A_eq.mean()).max() / curves.A_eq.mean()
    print(f"A_eq flat to {100 * aeq_dev:.2f}% over the middle 80% of the burn")
    (OUT / "bistar_curves.csv").write_text(emit_csv(curves))

    levels = list(np.linspace(0.1, 0.9, 9) * design.omega)
    (OUT / "bistar_isochrones.svg").write_text(
        emit_svg(case.mesh, field.s, levels=levels, contour=case.port, show_mesh=False)
    )
    print("wrote bistar_curves.csv, bistar_isochrones.svg")


if __name__ == "__main__":
    main()
