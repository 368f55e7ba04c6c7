"""Print the sha256 of every fixed-format artifact of the registry cases.

One line per artifact, `<case> <artifact> <sha256>`:

- `mesh`: the `mesh gen` text;
- `curves`: the `curves` CSV at its default 33 levels;
- `svg`, `svg-no-mesh`: the `contours` SVG at its default 8 levels,
  with the mesh underlay and without it;
- `field`: the `solve` field CSV;
- `residuals`: the residual history CSV that the same `solve` writes;
- `svg-no-field`: `emit_svg` of the mesh and port with no field.

Every artifact but the field-less SVG is written by `cli.main`, so the
digests cover the command line path.  Two checkouts that print the
same lines wrote the same bytes.  Run from the repository root, for all
cases or the ones named:

    PYTHONPATH=src python tools/artifact_digests.py [CASE ...]

A command that fails stops the run with exit code 1.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from burnback.cases import CASE_BUILDERS, build_case
from burnback.cli import main as cli_main
from burnback.postproc import emit_svg

COMMANDS = {
    "mesh": ["mesh", "gen"],
    "curves": ["curves"],
    "svg": ["contours"],
    "svg-no-mesh": ["contours", "--no-mesh"],
    "field": ["solve"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def case_digests(name: str, workdir: Path) -> list[tuple[str, str]]:
    """(artifact, sha256) pairs of one case, in the order listed above."""
    out = []
    residuals = workdir / f"{name}.residuals"
    for artifact, command in COMMANDS.items():
        path = workdir / f"{name}.{artifact}"
        if artifact == "field":
            command = [*command, "--residuals", str(residuals)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([*command, "--case", name, "--out", str(path)])
        if code != 0:
            sys.exit(f"{' '.join(command)} --case {name} exited {code}")
        out.append((artifact, _sha(path.read_bytes())))
    out.append(("residuals", _sha(residuals.read_bytes())))
    case = build_case(name)
    svg = emit_svg(case.mesh, contour=case.port)
    out.append(("svg-no-field", _sha(svg.encode("utf-8"))))
    return out


def main(argv: list[str]) -> int:
    names = argv or sorted(CASE_BUILDERS)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for artifact, digest in case_digests(name, Path(tmp)):
                print(f"{name} {artifact} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
