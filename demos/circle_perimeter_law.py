"""Perimeter and port-area growth of a circular port, measured vs exact.

Any convex port gains perimeter at 2*pi per unit burn depth until the
front meets the casing, and the port area integrates the perimeter.
The circular case makes both laws exact (P = 2*pi*(r0 + tau)), so the
curves measured from the solved arrival field can be differenced
against them directly.

Run:  python3 demos/circle_perimeter_law.py
"""

from pathlib import Path

import numpy as np

from burnback import SolverError, build_case, burn_curves, emit_csv, solve

OUT = Path(__file__).parent / "out"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    case = build_case("circle")
    field = solve(case.mesh, case.rate, config=case.config)
    if not field.converged:
        raise SolverError(f"case {case.name} did not converge within {field.n_steps} steps")
    print(f"circle: {case.mesh.n_nodes} nodes, {field.n_steps} steps")

    tau = np.linspace(0.05, 0.85, 33)
    curves = burn_curves(case.mesh, field.s, case.labels, case.rate_ratio, tau)
    (OUT / "circle_curves.csv").write_text(emit_csv(curves))

    # central differences away from the grid ends
    dP = np.gradient(curves.P_b, tau)[1:-1]
    dA = np.gradient(curves.A_p, tau)[1:-1]
    print("tau     P_b      dP/dtau / 2pi    dA/dtau / P_b")
    for k in range(0, len(dP), 6):
        print(
            f"{tau[1 + k]:.3f}  {curves.P_b[1 + k]:7.4f}   "
            f"{dP[k] / (2.0 * np.pi):12.5f}   {dA[k] / curves.P_b[1 + k]:12.5f}"
        )
    print(
        f"worst: perimeter slope off by "
        f"{100 * np.abs(dP / (2 * np.pi) - 1).max():.2f}%, "
        f"area slope off by {100 * np.abs(dA / curves.P_b[1:-1] - 1).max():.2f}%"
    )
    print("wrote circle_curves.csv")


if __name__ == "__main__":
    main()
