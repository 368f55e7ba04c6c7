"""Two-dimensional grain burnback analysis on triangular meshes.

The package follows the burn from geometry to engineering curves: build
or load a mesh of the propellant region (mesh), describe ports and
measure exact distances to them (contour), size neutral and sliverless
star designs (star), relax the arrival-time field of the moving front
(eikonal), and turn that field into isochrones, perimeter and area
curves, error reports, and CSV/SVG artifacts (postproc).  cases bundles
the benchmark geometries used by the test suite and the command line.
The package exports the public names of these six modules, each
declared once in its module's __all__.
"""

from . import cases, contour, eikonal, mesh, postproc, star
from .cases import *
from .contour import *
from .eikonal import *
from .mesh import *
from .postproc import *
from .star import *

__version__ = "0.1.0"

__all__ = [
    name for module in (cases, contour, eikonal, mesh, postproc, star) for name in module.__all__
]
