"""Fronts crossing a rate jump through a corner or a cusp.

Where the material interface passes through a kink in the ignition
boundary, the front carries the kink into the fast region and the
isochrones refract at the interface.  There is no closed-form field
for these configurations; the point of the demo is robustness (the
relaxation converges through the non-smooth data) and a picture of the
refraction for three tilts of the interface.

Run:  python3 demos/interface_schemes.py
"""

from pathlib import Path

import numpy as np

from burnback import build_case, emit_svg, solve

OUT = Path(__file__).parent / "out"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for name in ("scheme-corner+5", "scheme-corner-15", "scheme-cusp-15"):
        case = build_case(name)
        field = solve(case.mesh, case.rate).check(case.name)
        print(f"{name:<18} {case.mesh.n_nodes} nodes, {field.n_steps} steps, converged")

        levels = list(np.linspace(0.08, 0.92, 11) * field.s.max())
        path = OUT / f"{name.replace('+', 'p')}.svg"
        path.write_text(emit_svg(case.mesh, field.s, levels=levels, show_mesh=False))
        print(f"{'':<18} wrote {path.name}")


if __name__ == "__main__":
    main()
