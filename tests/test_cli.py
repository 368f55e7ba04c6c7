"""Command line interface: parsing, artifacts, exit codes, reproducibility."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import burnback
from burnback import cli, eikonal
from burnback.cases import CASE_BUILDERS, build_case
from burnback.cli import _build_parser, main
from burnback.eikonal import SolverConfig, solve
from burnback.postproc import burn_curves, emit_csv, emit_svg

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"


# -------------------------------------------------------------------- parsing


def test_parse_args_fuses_nested_subcommands():
    # the nested pair picks one handler
    opt = vars(_build_parser().parse_args(["star", "neutral", "--n", "6"]))
    assert opt["handler"] is cli._cmd_star_neutral
    assert opt["n"] == 6
    assert opt["dump_spec"] is False


def test_parse_args_solve_defaults():
    opt = vars(_build_parser().parse_args(["solve", "--case", "rect", "--out", "field.csv"]))
    assert opt["handler"] is cli._cmd_solve
    assert opt["case"] == "rect"
    assert opt["mesh"] is None
    assert "rate" not in opt
    assert opt["out"] == "field.csv"
    assert opt["residuals"] is None
    assert opt["dissipation_scale"] is None


@pytest.mark.parametrize("cmd", ["solve", "curves", "contours"])
def test_every_solver_config_field_has_a_flag(cmd):
    # a SolverConfig knob that no flag can set fails here
    for f in dataclasses.fields(SolverConfig):
        flag = "--" + f.name.replace("_", "-")
        opt = vars(_build_parser().parse_args([cmd, "--case", "rect", "--out", "x", flag, str(f.default)]))
        assert opt[f.name] == f.default
        assert type(opt[f.name]) is type(f.default)


@pytest.mark.parametrize("flag", ["--cfl-safety", "--quiet-steps", "--convergence-tol", "--max-steps"])
def test_fixed_solver_constants_have_no_flag(flag, capsys):
    # none is a solver setting, so none has a flag
    assert main(["solve", "--case", "rect", "--out", "x", flag, "1"]) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["solve", "curves", "contours"])
def test_help_lists_dissipation_scale_as_the_only_solver_flag(cmd, capsys):
    assert main([cmd, "--help"]) == 0
    out = capsys.readouterr().out
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["dissipation_scale"]
    assert "--dissipation-scale" in out
    assert "--convergence-tol" not in out and "--max-steps" not in out


def test_usage_errors_exit_2():
    assert main([]) == 2  # no subcommand
    assert main(["mesh"]) == 2  # no nested subcommand
    assert main(["bogus"]) == 2
    assert main(["star", "neutral"]) == 2  # --n is required
    assert main(["mesh", "info", "--mesh", "a", "--case", "rect"]) == 2
    # every grain-reading subcommand takes exactly one of --mesh and --case
    assert main(["curves", "--mesh", "a", "--case", "rect", "--out", "x"]) == 2
    assert main(["contours", "--out", "x"]) == 2
    assert main(["--help"]) == 0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["solve", "--case", "rect", "--out", ""], "--out"),
        (["mesh", "info", "--mesh", ""], "--mesh"),
        (["curves", "--mesh", "", "--out", "c.csv"], "--mesh"),
        (["solve", "--case", "rect", "--out", "f.csv", "--residuals", ""], "--residuals"),
        (["curves", "--case", "rect", "--out", "c.csv", "--tau-count", "0"], "--tau-count"),
        (["contours", "--case", "rect", "--out", "c.svg", "--nlevels", "0"], "--nlevels"),
    ],
    ids=["out", "mesh", "curves-mesh", "residuals", "tau-count", "nlevels"],
)
def test_empty_paths_and_zero_counts_exit_2(argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and flag in err
    assert not any(tmp_path.iterdir())


# ------------------------------------------------------------------ formulas


def test_star_neutral_prints_published_angle(capsys):
    assert main(["star", "neutral", "--n", "5"]) == 0
    out = capsys.readouterr().out
    m = re.search(r"theta/2 = ([0-9.]+) deg", out)
    assert m, out
    assert abs(float(m.group(1)) - 31.12) <= 0.02


def test_star_neutral_rejects_small_n(capsys):
    assert main(["star", "neutral", "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("star.ValueError:")


# star neutral --n values without a tip angle, and the one stderr line each prints
NEUTRAL_ERRORS = {
    "3": "star.ValueError: neutral star needs integer n >= 4, not n = 3",
    "1" + "0" * 20: "star.ValueError: no neutral tip angle for n = 100000000000000000000 in double precision",
}


@pytest.mark.parametrize("n", sorted(NEUTRAL_ERRORS))
def test_star_neutral_names_an_n_without_a_tip_angle(n, capsys):
    assert main(["star", "neutral", "--n", n]) == 1
    captured = capsys.readouterr()
    assert captured.err == NEUTRAL_ERRORS[n] + "\n"
    assert captured.out == ""


def test_bistar_design_prints_reference_ratio(capsys):
    argv = ["bistar", "design", "--n", "4", "--rc", "1.0", "--rf", "0.1", "--d", "0.5"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert re.search(r"^f\s+= 1\.592$", out, re.MULTILINE), out
    assert re.search(r"^omega\s+= 0\.4$", out, re.MULTILINE), out


def test_bistar_interface_writes_csv(tmp_path, capsys):
    out = tmp_path / "face.csv"
    argv = [
        "bistar", "interface", "--n", "4", "--rc", "1.0", "--rf", "0.1",
        "--d", "0.5", "--samples", "64", "--out", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "y,r1,theta1,r2,theta2"
    assert len(lines) == 1 + 64
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == pytest.approx(0.6)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("sub", ["design", "interface"])
def test_bistar_rejects_nonfinite_radius(tmp_path, capsys, sub, value):
    out = tmp_path / "face.csv"
    argv = ["bistar", sub, "--n", "4", "--rc", value, "--rf", "0.1", "--d", "0.5"]
    if sub == "interface":
        argv += ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"star.ValueError: r_c = {value} is not finite\n"
    assert captured.out == ""
    assert not out.exists()


# arguments too large for a float: the command and its one stderr line
OVERFLOWS = {
    "bistar radius": (
        ["bistar", "design", "--n", "4", "--rc", "1e200", "--rf", "0.1", "--d", "0.5"],
        "star.OverflowError: (34, 'Numerical result out of range')",
    ),
    "star tip count": (
        ["star", "neutral", "--n", "1" + "0" * 309],
        "star.OverflowError: int too large to convert to float",
    ),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_an_overflow_is_one_error_line(name, capsys):
    argv, message = OVERFLOWS[name]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


def test_readme_cli_examples_print_what_the_readme_shows(capsys):
    # each `$ burnback ...` line of the README's text block, followed by
    # the lines it prints
    block = README.read_text(encoding="utf-8").split("```text\n", 1)[1].split("```", 1)[0]
    runs = [chunk.strip("\n").split("\n") for chunk in block.split("$ burnback ")[1:]]
    assert [command for command, *_ in runs] == [
        "star neutral --n 5",
        "bistar design --n 4 --rc 1.0 --rf 0.1 --d 0.5",
        "verify slot",
    ]
    for command, *expected in runs:
        assert main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out.splitlines() == expected, command


def test_readme_sh_commands_exit_0(tmp_path, monkeypatch):
    # each `burnback ...` line of the README's meshing-and-solving block,
    # in order, so later lines read the files earlier ones write
    text = README.read_text(encoding="utf-8")
    block = text.split("Meshing, solving, and artifact emission:\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) == 7 and all(line.startswith("burnback ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_dump_spec_prints_resolved_options(capsys):
    assert main(["star", "neutral", "--n", "5", "--dump-spec"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "{'cmd': 'star', 'sub': 'neutral', 'n': 5, 'dump_spec': True}",
        "n = 5: theta/2 = 31.13 deg",
    ]


# ------------------------------------------------------------ mesh and solve


def test_mesh_gen_info_round_trip(tmp_path, capsys):
    path = tmp_path / "rect.mesh"
    assert main(["mesh", "gen", "--case", "rect", "--out", str(path)]) == 0
    assert main(["mesh", "info", "--mesh", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1891 nodes" in out
    assert "IGNITION 31" in out
    assert "bbox [0, 2] x [0, 1]" in out
    # the case itself reads the same, under its name
    assert main(["mesh", "info", "--case", "rect"]) == 0
    by_name = capsys.readouterr().out.splitlines()
    assert by_name[0] == "rect: 1891 nodes, 3600 triangles"
    assert by_name[1:] == out.splitlines()[2:]


def test_mesh_info_missing_file_reports_module(tmp_path, capsys):
    assert main(["mesh", "info", "--mesh", str(tmp_path / "nope.mesh")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cli.FileNotFoundError:")


def test_solve_from_mesh_file_writes_field_and_residuals(tmp_path, capsys):
    path = tmp_path / "rect.mesh"
    field = tmp_path / "field.csv"
    hist = tmp_path / "hist.csv"
    assert main(["mesh", "gen", "--case", "rect", "--out", str(path)]) == 0
    argv = [
        "solve", "--mesh", str(path),
        "--out", str(field), "--residuals", str(hist),
    ]
    assert main(argv) == 0
    rows = field.read_text().splitlines()
    assert rows[0] == "node,x,y,s"
    assert len(rows) == 1 + 1891
    # the planar oracle: s equals x on every node
    data = np.loadtxt(rows[1:], delimiter=",")
    assert np.abs(data[:, 3] - data[:, 1]).max() < 0.005
    assert hist.read_text().splitlines()[0] == "step,dt,max_residual"


def _generated_mesh(name, tmp_path):
    """The `mesh gen` file of a case, and the solver flags of the case's
    own settings: a mesh file reads as a case of the file's rates with
    default solver settings, so star needs its --dissipation-scale 0.125."""
    path = tmp_path / "case.mesh"
    assert main(["mesh", "gen", "--case", name, "--out", str(path)]) == 0
    config = build_case(name).config
    flags = [
        arg
        for f in dataclasses.fields(SolverConfig)
        if getattr(config, f.name) != f.default
        for arg in ("--" + f.name.replace("_", "-"), repr(getattr(config, f.name)))
    ]
    return str(path), flags


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_solve_from_a_generated_mesh_file_matches_the_case(name, tmp_path):
    path, flags = _generated_mesh(name, tmp_path)
    by_mesh, by_case = tmp_path / "m.csv", tmp_path / "c.csv"
    assert main(["solve", "--mesh", path, "--out", str(by_mesh), *flags]) == 0
    assert main(["solve", "--case", name, "--out", str(by_case)]) == 0
    assert by_mesh.read_bytes() == by_case.read_bytes()


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_curves_from_a_generated_mesh_file_match_the_case(name, tmp_path):
    path, flags = _generated_mesh(name, tmp_path)
    by_mesh, by_case = tmp_path / "m.csv", tmp_path / "c.csv"
    span = ["--tau-min", "0.1", "--tau-max", "0.4", "--tau-count", "5"]
    assert main(["curves", "--mesh", path, "--out", str(by_mesh), *span, *flags]) == 0
    assert main(["curves", "--case", name, "--out", str(by_case), *span]) == 0
    assert by_mesh.read_bytes() == by_case.read_bytes()


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_contours_from_a_generated_mesh_file_match_the_case_less_its_port(name, tmp_path):
    # a mesh file has no port, so only the port outline, where the case
    # has one, is missing
    path, flags = _generated_mesh(name, tmp_path)
    by_mesh, by_case = tmp_path / "m.svg", tmp_path / "c.svg"
    assert main(["contours", "--mesh", path, "--out", str(by_mesh), "--levels", "0.1,0.3", *flags]) == 0
    assert main(["contours", "--case", name, "--out", str(by_case), "--levels", "0.1,0.3"]) == 0
    lines = by_case.read_text().splitlines(keepends=True)
    port = [line for line in lines if line.startswith("<path") and 'stroke="#d62728"' in line]
    assert len(port) == (build_case(name).port is not None)
    assert by_mesh.read_text() == "".join(line for line in lines if line not in port)


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_curves_of_a_mesh_file_span_the_solved_field_by_default(name, solved, tmp_path):
    # a mesh file has no oracle, so its default range is 5-95% of the solved max
    case, field, _ = solved(name)
    path, flags = _generated_mesh(name, tmp_path)
    out = tmp_path / "m.csv"
    assert main(["curves", "--mesh", path, "--out", str(out), "--tau-count", "3", *flags]) == 0
    tau = np.linspace(0.05 * field.s.max(), 0.95 * field.s.max(), 3)
    assert out.read_text() == emit_csv(burn_curves(case.mesh, field.s, case.labels, case.rate_ratio, tau))


def test_solve_nonconvergence_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(eikonal, "_MAX_STEPS", 1)
    out = tmp_path / "field.csv"
    assert main(["solve", "--case", "circle", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "cli.SolverError: case circle did not converge within 1 steps\n"
    assert out.exists()  # partial field still written for inspection


def test_curves_planar_perimeter_constant(tmp_path):
    out = tmp_path / "curves.csv"
    argv = ["curves", "--case", "rect", "--out", str(out), "--tau-count", "9"]
    assert main(argv) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "tau,P_b,A_p,A_eq"
    data = np.loadtxt(rows[1:], delimiter=",")
    np.testing.assert_allclose(data[:, 1], 1.0, rtol=1e-4)  # unit-height block
    np.testing.assert_allclose(data[:, 2], data[:, 0], rtol=1e-3)  # A_p = tau * 1


def test_curves_grain_length_adds_column(tmp_path):
    out = tmp_path / "curves.csv"
    argv = [
        "curves", "--case", "rect", "--out", str(out),
        "--tau-count", "5", "--grain-length", "3.0",
    ]
    assert main(argv) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "tau,P_b,A_p,A_eq,A_b"
    data = np.loadtxt(rows[1:], delimiter=",")
    np.testing.assert_allclose(data[:, 4], 3.0 * data[:, 1], rtol=1e-12)


def test_curves_summary_names_the_levels_it_sampled(tmp_path, capsys):
    # rect's default range is [0.1, 1.9]; one level samples only its start
    out = tmp_path / "curves.csv"
    for count, span in (("1", "[0.1, 0.1]"), ("2", "[0.1, 1.9]"), ("5", "[0.1, 1.9]")):
        assert main(["curves", "--case", "rect", "--out", str(out), "--tau-count", count]) == 0
        assert capsys.readouterr().out.startswith(f"curves: {count} levels in {span}, P_b in [")
        assert len(out.read_text().splitlines()) == 1 + int(count)


def test_curves_weighs_a_two_propellant_case_by_its_rates(solved, tmp_path):
    case, field, _ = solved("scheme-corner+5")
    out = tmp_path / "curves.csv"
    assert main(["curves", "--case", case.name, "--out", str(out)]) == 0
    # no oracle, so the default range scales with the solved field
    assert case.depth is None and field.s.max() == pytest.approx(1.0425, abs=1e-4)
    tau = np.linspace(0.05 * field.s.max(), 0.95 * field.s.max(), 33)
    curves = burn_curves(case.mesh, field.s, case.labels, case.rate_ratio, tau)
    text = out.read_text()
    assert text == emit_csv(curves)
    rows = [row.split(",") for row in text.splitlines()[1:]]
    assert any(a_eq != p_b for _, p_b, _, a_eq in rows)


def _no_tau_solve(case):
    raise AssertionError("the tau range is checked before the solve")


# scheme-corner+5 has no oracle, so its default range needs the solve
@pytest.mark.parametrize("flag, value", [("--tau-min", "nan"), ("--tau-max", "nan"), ("--tau-max", "inf")])
def test_curves_rejects_nonfinite_tau_bound(tmp_path, capsys, monkeypatch, flag, value):
    monkeypatch.setattr(cli, "_solve_case", _no_tau_solve)
    out = tmp_path / "curves.csv"
    assert main(["curves", "--case", "scheme-corner+5", "--out", str(out), flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"cli.ValueError: {flag} value {value} is not a finite tau")
    assert not out.exists()


def test_curves_checks_a_given_tau_order_before_the_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_solve_case", _no_tau_solve)
    out = tmp_path / "curves.csv"
    argv = ["curves", "--case", "scheme-corner+5", "--out", str(out), "--tau-min", "0.5", "--tau-max", "0.25"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "cli.ValueError: curves needs tau-min < tau-max\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-2"])
def test_curves_rejects_bad_grain_length(tmp_path, capsys, monkeypatch, value):
    def no_solve(case):
        raise AssertionError("the grain length is checked before the solve")

    monkeypatch.setattr(cli, "_solve_case", no_solve)
    out = tmp_path / "curves.csv"
    argv = ["curves", "--case", "rect", "--out", str(out), "--grain-length", value]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"cli.ValueError: --grain-length value {float(value)} ")
    assert not out.exists()


def test_contours_level_count(tmp_path):
    out = tmp_path / "iso.svg"
    argv = ["contours", "--case", "rect", "--out", str(out), "--nlevels", "3"]
    assert main(argv) == 0
    svg = out.read_text()
    assert svg.count('<g class="isochrone"') == 3

    argv = ["contours", "--case", "rect", "--out", str(out), "--levels", "0.5,1.0"]
    assert main(argv) == 0
    svg = out.read_text()
    assert svg.count('<g class="isochrone"') == 2
    assert 'data-tau="0.5"' in svg


def test_contours_default_levels_scale_with_the_solved_field_without_an_oracle(solved, tmp_path):
    case, field, _ = solved("scheme-cusp-15")
    out = tmp_path / "iso.svg"
    assert main(["contours", "--case", case.name, "--out", str(out)]) == 0
    levels = list(field.s.max() * np.arange(1, 9) / 9.0)
    assert out.read_text() == emit_svg(case.mesh, field.s, levels=levels)


def test_contours_rejects_nonfinite_level(tmp_path, capsys, monkeypatch):
    def no_solve(case):
        raise AssertionError("the levels are checked before the solve")

    monkeypatch.setattr(cli, "_solve_case", no_solve)
    out = tmp_path / "iso.svg"
    for levels, shown in (("0.5,nan", "nan"), ("0.5, abc", "abc"), ("1e400", "1e400")):
        argv = ["contours", "--case", "rect", "--out", str(out), "--levels", levels]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"cli.ValueError: --levels value {shown} is not a finite tau\n"
        assert not out.exists()


def _rect_file(tmp_path, edit):
    """The `mesh gen` file of rect with edit applied to each of its lines."""
    path = tmp_path / "rect.mesh"
    assert main(["mesh", "gen", "--case", "rect", "--out", str(path)]) == 0
    path.write_text("".join(edit(n, line) for n, line in enumerate(path.read_text().splitlines(True), 1)))
    return str(path)


# a file rate that is not positive and finite, and the error naming its node
FILE_RATE_ERRORS = {
    "nan": "mesh.ValueError: rate is not finite at node 5",
    "inf": "mesh.ValueError: rate is not finite at node 5",
    "0": "eikonal.SolverError: rate must be positive and finite (node 5)",
    "-1": "eikonal.SolverError: rate must be positive and finite (node 5)",
}


@pytest.mark.parametrize("value", sorted(FILE_RATE_ERRORS))
def test_solve_checks_rate_before_the_solve(tmp_path, capsys, monkeypatch, value):
    # node 5 is on line 7 of the file, its rate the last token
    def no_solve(*args, **kwargs):
        raise AssertionError("the rate is checked before the solve")

    path = _rect_file(tmp_path, lambda n, line: line.rsplit(" ", 1)[0] + f" {value}\n" if n == 7 else line)
    monkeypatch.setattr(cli, "solve", no_solve)
    out = tmp_path / "field.csv"
    assert main(["solve", "--mesh", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == FILE_RATE_ERRORS[value] + "\n"
    assert not out.exists()


def test_a_mesh_file_of_the_three_column_format_fails_at_its_first_node(tmp_path, capsys):
    # a file written before node records carried a rate: each 4-token
    # record loses its last token
    path = _rect_file(tmp_path, lambda n, line: line.rsplit(" ", 1)[0] + "\n" if line.count(" ") == 3 else line)
    assert main(["mesh", "info", "--mesh", path]) == 1
    assert capsys.readouterr().err == "mesh.MeshError: line 2: node record needs 'x y marker rate'\n"


def test_solve_rejects_the_rate_flag_as_a_usage_error(tmp_path):
    out = tmp_path / "field.csv"
    assert main(["solve", "--case", "rect", "--out", str(out), "--rate", "2.0"]) == 2
    assert not out.exists()


def test_dissipation_scale_overrides_the_case_setting(tmp_path, capsys, monkeypatch):
    # star's own setting and rect's default both give way to the flag
    star, rect = build_case("star"), build_case("rect")
    assert star.config == SolverConfig(0.125) and rect.config == SolverConfig()
    out = tmp_path / "field.csv"
    for case, value, config in ((star, "0.25", SolverConfig()), (rect, "0.125", SolverConfig(0.125))):
        assert main(["solve", "--case", case.name, "--out", str(out), "--dissipation-scale", value]) == 0
        assert out.read_text() == emit_csv(solve(case.mesh, case.rate, config=config).s, mesh=case.mesh)
    out.unlink()
    capsys.readouterr()

    def no_solve(*args, **kwargs):
        raise AssertionError("the dissipation scale is checked before the solve")

    monkeypatch.setattr(cli, "solve", no_solve)
    for value in ("0", "nan", "2"):
        assert main(["solve", "--case", "rect", "--out", str(out), "--dissipation-scale", value]) == 1
        err = capsys.readouterr().err
        assert err == f"eikonal.ValueError: dissipation_scale = {float(value)} must be in (0, 1]\n"
        assert not out.exists()


def test_a_mesh_file_reads_as_a_grain_of_its_own_rates(tmp_path):
    # the two-propellant case keeps its split, but a file has no port or oracle
    path, _ = _generated_mesh("bistar", tmp_path)
    case, bistar = cli._grain({"case": None, "mesh": path}), build_case("bistar")
    np.testing.assert_array_equal(case.rate, bistar.rate)
    assert case.rate_ratio == bistar.rate_ratio > 1.0
    assert case.name == path and case.port is None and case.exact is None


def test_mesh_info_names_the_line_of_an_oversized_id(tmp_path, capsys):
    path = tmp_path / "big.mesh"
    path.write_text("1 3\n0 0 1 1\n1 0 0 1\n0 1 0 1\n0 1 99999999999999999999999\n")
    assert main(["mesh", "info", "--mesh", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "mesh.MeshError: line 5: bad node id in triangle record\n"


def test_artifacts_are_byte_identical_across_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["curves", "--case", "rect", "--out", str(path), "--tau-count", "7"]) == 0
    assert a.read_bytes() == b.read_bytes()

    sa, sb = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (sa, sb):
        assert main(["contours", "--case", "rect", "--out", str(path), "--nlevels", "2"]) == 0
    assert sa.read_bytes() == sb.read_bytes()


# each handler check not reached above: the argv, less --out, and its stderr line
CLI_ERRORS = {
    "unconverged solve": (
        ["curves", "--case", "circle"],
        "cli.SolverError: case circle did not converge within 1 steps",
    ),
    "tau order": (
        ["curves", "--case", "rect", "--tau-min", "1.5", "--tau-max", "0.5"],
        "cli.ValueError: curves needs tau-min < tau-max",
    ),
    "empty levels": (
        ["contours", "--case", "rect", "--levels", " , "],
        "cli.ValueError: --levels must hold at least one tau value",
    ),
    "empty levels string": (
        ["contours", "--case", "rect", "--levels", ""],
        "cli.ValueError: --levels must hold at least one tau value",
    ),
    # the grain is read, and its dissipation scale set, before the flags
    # that only curves or contours take are checked
    "dissipation scale before tau order": (
        ["curves", "--case", "rect", "--tau-min", "1.5", "--tau-max", "0.5", "--dissipation-scale", "0"],
        "eikonal.ValueError: dissipation_scale = 0.0 must be in (0, 1]",
    ),
    "dissipation scale before levels": (
        ["contours", "--case", "rect", "--levels", "nan", "--dissipation-scale", "nan"],
        "eikonal.ValueError: dissipation_scale = nan must be in (0, 1]",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_ERRORS))
def test_cli_input_errors_exit_1(name, tmp_path, capsys, monkeypatch):
    # one iteration: the unconverged row stops there, the others fail
    # before they solve
    monkeypatch.setattr(eikonal, "_MAX_STEPS", 1)
    argv, message = CLI_ERRORS[name]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


# ---------------------------------------------------------------- end-to-end


def test_verify_slot_passes_at_both_budgets(capsys):
    assert main(["verify", "slot"]) == 0
    coarse, fine = capsys.readouterr().out.splitlines()
    m = re.fullmatch(r"slot coarse: \d+ nodes, max normalized error ([0-9.]+)% vs threshold 1%: PASS", coarse)
    assert m, coarse
    m2 = re.fullmatch(r"slot fine: \d+ nodes, max normalized error ([0-9.]+)% vs threshold 0\.5%: PASS", fine)
    assert m2, fine

    # refining 4x in nodes must strictly reduce the max error
    assert float(m2.group(1)) < float(m.group(1))


def test_verify_slot_fails_when_either_level_fails(monkeypatch, capsys):
    # 0.6% passes the coarse level's 1% and fails the fine level's 0.5%
    monkeypatch.setattr(cli, "_solve_case", lambda case: SimpleNamespace(s=None))
    monkeypatch.setattr(cli, "error_field", lambda mesh, s, exact: SimpleNamespace(max_abs=0.006))
    assert main(["verify", "slot"]) == 1
    assert [line.rsplit(": ", 1)[1] for line in capsys.readouterr().out.splitlines()] == ["PASS", "FAIL"]


def test_artifact_digests_tool_hashes_what_the_cli_writes(tmp_path):
    tool = PYPROJECT.parent / "tools" / "artifact_digests.py"
    src = str(Path(burnback.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(tool), "rect"], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    digests = dict(line.split(" ")[1:] for line in proc.stdout.splitlines())
    assert list(digests) == ["mesh", "curves", "svg", "svg-no-mesh", "field", "residuals"]
    for artifact, command in [("curves", ["curves"]), ("svg", ["contours"])]:
        path = tmp_path / artifact
        assert main([*command, "--case", "rect", "--out", str(path)]) == 0
        assert digests[artifact] == hashlib.sha256(path.read_bytes()).hexdigest()
    field, residuals = tmp_path / "field.csv", tmp_path / "residuals.csv"
    assert main(["solve", "--case", "rect", "--out", str(field), "--residuals", str(residuals)]) == 0
    assert digests["field"] == hashlib.sha256(field.read_bytes()).hexdigest()
    assert digests["residuals"] == hashlib.sha256(residuals.read_bytes()).hexdigest()


@pytest.mark.skipif(
    shutil.which("burnback") is None, reason="burnback console script not installed"
)
def test_installed_console_script_runs():
    exe = shutil.which("burnback")
    proc = subprocess.run(
        [exe, "star", "neutral", "--n", "7"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "theta/2 = 35.5" in proc.stdout


def test_console_script_is_installed():
    """Checks the declared `burnback` entry point without an install; the test above covers the installed launcher."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["burnback"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main

    # run it in a fresh interpreter the way pip's generated launcher does,
    # importing the same sources as this test
    src = str(Path(burnback.__file__).resolve().parents[1])
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "star", "neutral", "--n", "7"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert "theta/2 = 35.5" in proc.stdout
