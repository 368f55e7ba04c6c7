"""Print the sha256 of every fixed-format artifact of the registry cases.

One line per artifact, `<case> <artifact> <sha256>`:

- `mesh`: the `mesh gen` text, one `x y marker rate` record per node;
- `curves`: the `curves` CSV at its default 33 levels;
- `svg`, `svg-no-mesh`: the `contours` SVG at its default 8 levels,
  with the mesh underlay and without it;
- `field`: the `solve` field CSV;
- `residuals`: the residual history CSV that the same `solve` writes.

A run over all cases also prints two `design <artifact> <sha256>` lines
for the README's bipropellant star (`--n 4 --rc 1 --rf 0.1 --d 0.5`):
`bistar-design`, the text that `bistar design` prints, and
`bistar-interface`, the CSV that `bistar interface` writes.

Every artifact is written by `cli.main`, so the digests cover the
command line path.  Two checkouts that print the same lines wrote the
same bytes.  Run from the repository root, for all cases or the ones
named:

    PYTHONPATH=src python tools/artifact_digests.py [CASE ...]

A command that fails stops the run with exit code 1.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from burnback.cases import CASE_BUILDERS
from burnback.cli import main as cli_main

COMMANDS = {
    "mesh": ["mesh", "gen"],
    "curves": ["curves"],
    "svg": ["contours"],
    "svg-no-mesh": ["contours", "--no-mesh"],
    "field": ["solve"],
}

DESIGN = ["--n", "4", "--rc", "1", "--rf", "0.1", "--d", "0.5"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> str:
    """What `cli.main(argv)` prints; a non-zero exit stops the run."""
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        code = cli_main(argv)
    if code != 0:
        sys.exit(f"{' '.join(argv)} exited {code}")
    return printed.getvalue()


def case_digests(name: str, workdir: Path) -> list[tuple[str, str]]:
    """(artifact, sha256) pairs of one case, in the order listed above."""
    out = []
    residuals = workdir / f"{name}.residuals"
    for artifact, command in COMMANDS.items():
        path = workdir / f"{name}.{artifact}"
        if artifact == "field":
            command = [*command, "--residuals", str(residuals)]
        _run([*command, "--case", name, "--out", str(path)])
        out.append((artifact, _sha(path.read_bytes())))
    out.append(("residuals", _sha(residuals.read_bytes())))
    return out


def design_digests(workdir: Path) -> list[tuple[str, str]]:
    """(artifact, sha256) pairs of the two bipropellant design commands."""
    printed = _run(["bistar", "design", *DESIGN])
    path = workdir / "bistar-interface.csv"
    _run(["bistar", "interface", *DESIGN, "--out", str(path)])
    return [("bistar-design", _sha(printed.encode("utf-8"))), ("bistar-interface", _sha(path.read_bytes()))]


def main(argv: list[str]) -> int:
    names = argv or sorted(CASE_BUILDERS)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for artifact, digest in case_digests(name, Path(tmp)):
                print(f"{name} {artifact} {digest}")
        if not argv:
            for artifact, digest in design_digests(Path(tmp)):
                print(f"design {artifact} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
