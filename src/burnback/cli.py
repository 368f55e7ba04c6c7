"""Command line front end for meshing, solving, and emitting artifacts.

Configuration is flags-only so every run can be reproduced by quoting
its command line; --dump-spec on any subcommand prints the resolved
options first for archival.  Each subcommand is an argparse subparser
whose handler takes the options dict; every subcommand that reads a
grain takes a registry --case or a --mesh file, which carries its node
rates.  Every solve runs at the solver's defaults (SolverConfig, with
dissipation scale 1/8), so a grain has one answer and no solver flag
exists.  Exit codes:
0 success, 1 numeric failure (a verification threshold breach, or any
module error, reported to stderr as module.ExceptionName; every command
reports a solve that stops short of a valid root through
ArrivalField.check, as eikonal.SolverError naming its stop), 2 usage
(also an empty path and a level count below 1).
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .cases import CASE_BUILDERS, Case, build_case
from .eikonal import ArrivalField, SolverError, solve
from .mesh import Marker, geom_cache, load_mesh, save_mesh
from .postproc import burn_curves, emit_csv, emit_svg, error_field
from .star import BiStarDesign, bistar_interface, neutral_tip_angle

__all__ = ["main"]


def _positive_int(text: str) -> int:
    if not (text.strip().isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _leaf(p: argparse.ArgumentParser, handler) -> None:
    """Give a leaf subcommand its --dump-spec flag and its handler."""
    p.add_argument("--dump-spec", action="store_true", help="print the resolved options")
    p.set_defaults(handler=handler)


def _add_grain(p: argparse.ArgumentParser) -> None:
    """The grain a subcommand reads: a registry --case or a --mesh file."""
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--mesh", type=_path)
    g.add_argument("--case", choices=sorted(CASE_BUILDERS))


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="burnback", description="2D grain burnback analysis toolkit"
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    pm = sub.add_parser("mesh", help="generate or inspect meshes")
    pms = pm.add_subparsers(dest="sub", required=True)
    gen = pms.add_parser("gen", help="write a registry case mesh as text")
    gen.add_argument("--case", required=True, choices=sorted(CASE_BUILDERS))
    gen.add_argument("--out", required=True, type=_path)
    _leaf(gen, _cmd_mesh_gen)
    info = pms.add_parser("info", help="print mesh statistics")
    _add_grain(info)
    _leaf(info, _cmd_mesh_info)

    slv = sub.add_parser("solve", help="relax an arrival-time field")
    _add_grain(slv)
    slv.add_argument("--out", required=True, type=_path, help="field CSV node,x,y,s")
    slv.add_argument("--residuals", type=_path, help="history CSV step,dt,max_residual")
    _leaf(slv, _cmd_solve)

    crv = sub.add_parser("curves", help="perimeter/area burn curves of a grain")
    _add_grain(crv)
    crv.add_argument("--out", required=True, type=_path, help="CSV tau,P_b,A_p,A_eq[,A_b]")
    crv.add_argument("--tau-min", type=float, default=None)
    crv.add_argument("--tau-max", type=float, default=None)
    crv.add_argument("--tau-count", type=_positive_int, default=33)
    crv.add_argument("--grain-length", type=float, default=None)
    _leaf(crv, _cmd_curves)

    ctr = sub.add_parser("contours", help="SVG isochrones of a grain")
    _add_grain(ctr)
    ctr.add_argument("--out", required=True, type=_path, help="SVG path")
    ctr.add_argument("--levels", default=None, help="comma-separated tau values")
    ctr.add_argument("--nlevels", type=_positive_int, default=8)
    ctr.add_argument("--no-mesh", action="store_true", help="omit the mesh underlay")
    _leaf(ctr, _cmd_contours)

    st = sub.add_parser("star", help="star grain design formulas")
    sts = st.add_subparsers(dest="sub", required=True)
    neu = sts.add_parser("neutral", help="tip semi-angle of a neutral star")
    neu.add_argument("--n", type=int, required=True, help="number of tips")
    _leaf(neu, _cmd_star_neutral)

    bi = sub.add_parser("bistar", help="sliverless two-propellant star design")
    bis = bi.add_subparsers(dest="sub", required=True)
    for name, handler in (("design", _cmd_bistar_design), ("interface", _cmd_bistar_interface)):
        p = bis.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--rc", type=float, required=True, help="casing radius")
        p.add_argument("--rf", type=float, required=True, help="slot fillet radius")
        p.add_argument("--d", type=float, required=True, help="slot depth")
        if name == "interface":
            p.add_argument("--samples", type=int, default=256)
            p.add_argument("--out", required=True, type=_path, help="CSV y,r1,theta1,r2,theta2")
        _leaf(p, handler)

    ver = sub.add_parser("verify", help="end-to-end accuracy checks")
    vers = ver.add_subparsers(dest="sub", required=True)
    slot = vers.add_parser("slot", help="slot error study vs the exact oracle, both levels")
    _leaf(slot, _cmd_verify_slot)

    return top


# ---------------------------------------------------------------------------
# subcommand handlers


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _solve_case(case: Case) -> ArrivalField:
    return solve(case.mesh, case.rate).check(case.name)


def _grain(opt: dict) -> Case:
    """The --case registry case or the --mesh file at its own rates."""
    if opt["mesh"] is None:
        return build_case(opt["case"])
    return Case(opt["mesh"], *load_mesh(Path(opt["mesh"]).read_text(encoding="utf-8")))


def _cmd_mesh_gen(opt: dict) -> int:
    case = build_case(opt["case"])
    _write(opt["out"], save_mesh(case.mesh, case.rate))
    print(
        f"{opt['case']}: wrote {case.mesh.n_nodes} nodes, "
        f"{case.mesh.n_triangles} triangles to {opt['out']}"
    )
    return 0


def _cmd_mesh_info(opt: dict) -> int:
    case = _grain(opt)
    mesh = case.mesh
    cache = geom_cache(mesh)
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    print(f"{case.name}: {mesh.n_nodes} nodes, {mesh.n_triangles} triangles")
    print(f"bbox [{lo[0]:.6g}, {hi[0]:.6g}] x [{lo[1]:.6g}, {hi[1]:.6g}]")
    counts = ", ".join(
        f"{m.name} {int((mesh.node_markers == m).sum())}" for m in Marker
    )
    print(f"markers: {counts}")
    h = cache.node_min_height
    print(f"node min heights: min {h.min():.3e}, median {np.median(h):.3e}")
    return 0


def _cmd_solve(opt: dict) -> int:
    case = _grain(opt)
    res = solve(case.mesh, case.rate)
    _write(opt["out"], emit_csv(res.s, mesh=case.mesh))
    if opt["residuals"] is not None:
        _write(opt["residuals"], emit_csv(res))
    print(
        f"solve: {res.n_steps} steps, converged={res.converged}, "
        f"s in [{res.s.min():.6g}, {res.s.max():.6g}], wrote {opt['out']}"
    )
    res.check(case.name)
    return 0


def _cmd_curves(opt: dict) -> int:
    case = _grain(opt)
    lo, hi = opt.get("tau_min"), opt.get("tau_max")
    for flag, tau in (("--tau-min", lo), ("--tau-max", hi)):
        if tau is not None and not math.isfinite(tau):
            raise ValueError(f"{flag} value {tau} is not a finite tau")
    grain = opt.get("grain_length")
    if grain is not None and not (math.isfinite(grain) and grain > 0.0):
        raise ValueError(f"--grain-length value {grain} is not a positive finite length")
    res = _solve_case(case) if case.depth is None and None in (lo, hi) else None
    depth = case.depth if res is None else float(res.s.max())
    lo = 0.05 * depth if lo is None else lo
    hi = 0.95 * depth if hi is None else hi
    if not lo < hi:
        raise ValueError("curves needs tau-min < tau-max")
    if res is None:
        res = _solve_case(case)
    tau = np.linspace(lo, hi, opt["tau_count"])
    curves = burn_curves(case.mesh, res.s, case.labels, case.rate_ratio, tau, grain_length=grain)
    _write(opt["out"], emit_csv(curves))
    print(
        f"curves: {len(tau)} levels in [{tau[0]:.6g}, {tau[-1]:.6g}], "
        f"P_b in [{curves.P_b.min():.6g}, {curves.P_b.max():.6g}], wrote {opt['out']}"
    )
    return 0


def _finite_tau(token: str) -> float:
    try:
        tau = float(token)
    except ValueError:
        tau = math.nan
    if not math.isfinite(tau):
        raise ValueError(f"--levels value {token} is not a finite tau")
    return tau


def _cmd_contours(opt: dict) -> int:
    case = _grain(opt)
    levels = None
    if opt["levels"] is not None:
        levels = [_finite_tau(tok.strip()) for tok in opt["levels"].split(",") if tok.strip()]
        if not levels:
            raise ValueError("--levels must hold at least one tau value")
    res = _solve_case(case)
    if levels is None:
        depth = case.depth if case.depth is not None else float(res.s.max())
        k = np.arange(1, opt["nlevels"] + 1)
        levels = list(depth * k / (opt["nlevels"] + 1.0))
    svg = emit_svg(
        case.mesh, res.s, levels=levels, contour=case.port, show_mesh=not opt["no_mesh"]
    )
    _write(opt["out"], svg)
    print(f"contours: {len(levels)} isochrones, wrote {opt['out']}")
    return 0


def _cmd_star_neutral(opt: dict) -> int:
    half = neutral_tip_angle(opt["n"])
    print(f"n = {opt['n']}: theta/2 = {math.degrees(half):.2f} deg")
    return 0


def _cmd_bistar_design(opt: dict) -> int:
    design = BiStarDesign(opt["n"], opt["rc"], opt["rf"], opt["d"])
    rows = [
        ("n", f"{design.n}"),
        ("r_c", f"{design.r_c:.6g}"),
        ("r_f", f"{design.r_f:.6g}"),
        ("d", f"{design.d:.6g}"),
        ("omega", f"{design.omega:.6g}"),
        ("f", f"{design.f:.3f}"),
    ]
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  = {v}")
    return 0


def _cmd_bistar_interface(opt: dict) -> int:
    design = BiStarDesign(opt["n"], opt["rc"], opt["rf"], opt["d"])
    face = bistar_interface(design, opt["samples"])
    _write(opt["out"], emit_csv(face))
    print(f"interface: {len(face.y)} samples, f = {design.f:.3f}, wrote {opt['out']}")
    return 0


def _cmd_verify_slot(opt: dict) -> int:
    failed = False
    for level, threshold in (("coarse", 0.01), ("fine", 0.005)):
        case = build_case(f"slot-{level}")
        res = _solve_case(case)
        err = error_field(case.mesh, res.s, case.exact).max_abs
        ok = err < threshold
        failed |= not ok
        print(
            f"slot {level}: {case.mesh.n_nodes} nodes, max normalized error "
            f"{100.0 * err:.4f}% vs threshold {100.0 * threshold:g}%: "
            f"{'PASS' if ok else 'FAIL'}"
        )
    return 1 if failed else 0


def _origin_module(exc: BaseException) -> str:
    """Innermost package module on the traceback, for error attribution,
    by import name: under python -m, cli's __name__ is __main__."""
    name = "cli"  # main's own frame is always on the traceback
    tb = exc.__traceback__
    while tb is not None:
        spec = tb.tb_frame.f_globals.get("__spec__")
        if spec is not None and spec.name.startswith("burnback"):
            name = spec.name.rsplit(".", 1)[-1]
        tb = tb.tb_next
    return name


def main(argv=None) -> int:
    try:
        opt = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse usage error (2) or --help (0)
        return int(exc.code or 0)
    handler = opt.pop("handler")
    if opt["dump_spec"]:
        print(opt)
    try:
        return handler(opt)
    except (SolverError, ValueError, ArithmeticError, OSError) as exc:
        print(f"{_origin_module(exc)}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
