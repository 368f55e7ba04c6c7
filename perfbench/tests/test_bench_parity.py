"""The benchmark measures what users run.

Its artifacts for a case must equal, byte for byte, what the CLI writes
for the same flags; the job shapes here are the two the workloads use
(CLI defaults, and an explicit tau range with explicit SVG levels).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
from burnback.cli import main  # noqa: E402

CASE = "slot-coarse"  # cheapest registry case with a port contour


def cli_argv(job: bench.Job, curves_out: str, svg_out: str) -> tuple[list[str], list[str]]:
    """The `curves` and `contours` command lines that produce a job's artifacts."""
    curves = ["curves", "--case", job.case, "--out", curves_out]
    if job.tau_min is not None:
        curves += ["--tau-min", repr(job.tau_min)]
    if job.tau_max is not None:
        curves += ["--tau-max", repr(job.tau_max)]
    curves += ["--tau-count", str(job.tau_count)]
    contours = ["contours", "--case", job.case, "--out", svg_out]
    if job.levels is not None:
        contours += ["--levels", ",".join(repr(x) for x in job.levels)]
    return curves, contours


@pytest.fixture(scope="module")
def prepared():
    return bench.set_up(CASE, bench.Tracer(False))[0]


@pytest.mark.parametrize(
    "job",
    [
        bench.Job(CASE),
        bench.Job(CASE, tau_min=0.1 + 1e-3 / 3, tau_max=1.2, tau_count=65, levels=(0.25 / 3, 0.5, 1.1)),
    ],
    ids=["defaults", "explicit"],
)
def test_artifacts_match_cli(job, prepared, tmp_path):
    art = bench.run_job(job, prepared, bench.Tracer(False))
    rec = bench.check(job, prepared, art, bench.Tracer(False))
    assert rec["failures"] == []

    csv_path, svg_path, field_path = (tmp_path / n for n in ("c.csv", "c.svg", "f.csv"))
    curves_argv, contours_argv = cli_argv(job, str(csv_path), str(svg_path))
    assert main(curves_argv) == 0
    assert main(contours_argv) == 0
    assert main(["solve", "--case", CASE, "--out", str(field_path)]) == 0
    assert csv_path.read_text(encoding="utf-8") == art.curves_csv
    assert svg_path.read_text(encoding="utf-8") == art.svg
    assert field_path.read_text(encoding="utf-8") == art.field_csv


def test_transit_split_counts_steps_before_the_front_crosses():
    field = SimpleNamespace(dt_history=np.full(10, 0.1), s=np.array([0.0, 0.35]), n_steps=10)
    assert bench.transit_split(field) == (3, 7)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(BENCH_DIR, copy, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "star", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
