"""Grid-refinement study on the rounded-slot grain.

The slot port has an exact distance oracle (wall segment plus cap arc),
so the arrival-time error is known at every node.  Solving the same
geometry at roughly 2.5e3 and 1e4 nodes shows the error dropping with
resolution; the isochrone SVG makes the caustic above the cap visible.

Run from the repository root:  python3 demos/slot_error_study.py
Artifacts land in demos/out/.
"""

import time
from pathlib import Path

import numpy as np

from burnback import SolverError, build_case, emit_csv, emit_svg, error_field, solve

OUT = Path(__file__).parent / "out"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    print("level   nodes   steps   time     max |e|   mean |e|")
    for level in ("coarse", "fine"):
        case = build_case(f"slot-{level}")
        t0 = time.perf_counter()
        field = solve(case.mesh, case.rate, config=case.config)
        dt = time.perf_counter() - t0
        if not field.converged:
            raise SolverError(f"case {case.name} did not converge within {field.n_steps} steps")
        err = error_field(case.mesh, field.s, case.exact)
        print(
            f"{level:<7} {case.mesh.n_nodes:>6}  {field.n_steps:>6}  "
            f"{dt:6.2f}s  {100 * err.max_abs:7.4f}%  {100 * err.mean_abs:7.4f}%"
        )

        csv_path = OUT / f"slot_{level}_field.csv"
        csv_path.write_text(emit_csv(field.s, mesh=case.mesh, err=err.values))
        levels = list(np.linspace(0.1, 0.9, 9) * case.depth)
        svg_path = OUT / f"slot_{level}_isochrones.svg"
        svg_path.write_text(
            emit_svg(case.mesh, field.s, levels=levels, contour=case.port, show_mesh=False)
        )
        print(f"        wrote {csv_path.name}, {svg_path.name}")


if __name__ == "__main__":
    main()
