"""Two-dimensional grain burnback analysis on triangular meshes.

The package follows the burn from geometry to engineering curves: build
or load a mesh of the propellant region (mesh), describe ports and
measure exact distances to them (contour), size neutral and sliverless
star designs (star), relax the arrival-time field of the moving front
(eikonal), and turn that field into isochrones, perimeter and area
curves, error reports, and CSV/SVG artifacts (postproc).  cases bundles
the benchmark geometries used by the test suite and the command line.
"""

from .contour import (
    Arc,
    Contour,
    ContourError,
    Line,
    cylinder_laws,
    make_circle,
    make_star,
)
from .eikonal import (
    ArrivalField,
    SolverConfig,
    SolverError,
    as_rate_field,
    solve,
    triangle_gradients,
)
from .mesh import (
    GeomCache,
    Marker,
    Mesh,
    MeshError,
    gen_coons,
    gen_rect,
    geom_cache,
    load_mesh,
    save_mesh,
)
from .postproc import (
    BurnCurves,
    ErrorField,
    burn_curves,
    emit_csv,
    emit_svg,
    error_field,
)
from .star import (
    BiStarDesign,
    InterfacePolyline,
    bistar_design,
    bistar_interface,
    neutral_tip_angle,
)
from .cases import CASE_BUILDERS, Case, build_case

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "ArrivalField",
    "BiStarDesign",
    "BurnCurves",
    "CASE_BUILDERS",
    "Case",
    "Contour",
    "ContourError",
    "ErrorField",
    "GeomCache",
    "InterfacePolyline",
    "Line",
    "Marker",
    "Mesh",
    "MeshError",
    "SolverConfig",
    "SolverError",
    "as_rate_field",
    "bistar_design",
    "bistar_interface",
    "build_case",
    "burn_curves",
    "cylinder_laws",
    "emit_csv",
    "emit_svg",
    "error_field",
    "gen_coons",
    "gen_rect",
    "geom_cache",
    "load_mesh",
    "make_circle",
    "make_star",
    "neutral_tip_angle",
    "save_mesh",
    "solve",
    "triangle_gradients",
]
