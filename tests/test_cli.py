"""Command-line driver: artifacts, exit codes, reproducibility."""

import importlib
import json
import math
import subprocess
import sys

import pytest

from thinring import solver
from thinring.cli import build_parser, main
from thinring.solver import SolverError, SolverOptions

FAST = ["--grid", "128", "--modes", "8"]
DEGENERATE_C = f"{1.0 / (6.0 * math.pi**2):.17g}"  # K = omega/(2 pi^2) = 3


def run(args):
    return main(list(args))


def test_solve_writes_solution_and_boundary(tmp_path, capsys):
    # eps, extra flags, shape coefficients reported
    for i, (eps, extra, coeffs) in enumerate([
            ("0.02", FAST, 9),
            ("0.04", ["--rho", "0.25"] + FAST, 9),     # a core solve
            # default options: accepted at M = 8, reported from its check
            # at M = 16 on a 128-point grid
            ("0.04", ["--rho", "0.25"], 17)]):
        out = tmp_path / str(i)
        code = run(["solve", "--eps", eps, "--out", str(out)] + extra)
        assert code == 0
        assert f"solved eps={eps}" in capsys.readouterr().out
        doc = json.loads((out / "solution.json").read_text())
        assert set(doc) == {"params", "shape", "w", "gamma", "nu",
                            "nu_normalizations", "s", "diagnostics"}
        assert len(doc["shape"]["coeffs"]) == coeffs
        assert set(doc["diagnostics"]) == {
            "residual_norm", "modes", "newton_error", "iterations",
            "fd_columns", "jacobian_cond", "margin", "worst_mode",
            "theta_sup", "theta_h5", "window_theta", "window_speed",
            "warnings"}
        assert doc["params"]["eps"] == float(eps)
        assert doc["nu_normalizations"]["standard"] == doc["nu"]
        assert doc["diagnostics"]["residual_norm"] <= 1e-10
        assert doc["diagnostics"]["margin"] == "inf"
        assert doc["diagnostics"]["warnings"] == []
        assert doc["diagnostics"]["fd_columns"] == 1    # the symbol start
        lines = (out / "boundary.csv").read_text().splitlines()
        assert lines[0] == "alpha,theta,mu,lambda,h"
        assert len(lines) == 129


def test_solve_is_bit_reproducible(tmp_path):
    for sub in ("a", "b"):
        code = run(["solve", "--eps", "0.02", "--out", str(tmp_path / sub)]
                   + FAST)
        assert code == 0
    for name in ("solution.json", "boundary.csv"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_solve_reports_rescaled_bernoulli_under_tension(tmp_path):
    code = run(["solve", "--eps", "0.02", "--sigma-kind", "c_over_eps",
                "--sigma-c", "4.0", "--out", str(tmp_path)] + FAST)
    assert code == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    pair = doc["nu_normalizations"]
    assert set(pair) == {"standard", "sigma_rescaled", "sigma_rescaled_asym"}
    assert abs(pair["sigma_rescaled"] - doc["nu"] / 4.0) < 1e-15
    assert abs(pair["sigma_rescaled"] - pair["sigma_rescaled_asym"]) < 0.05


def test_solve_rejects_excluded_tension_law(tmp_path, capsys):
    code = run(["solve", "--eps", "0.02", "--sigma-kind", "c_over_eps",
                "--sigma-c", DEGENERATE_C, "--out", str(tmp_path)] + FAST)
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == 2
    assert "excluded integer set" in err["message"]
    assert not (tmp_path / "solution.json").exists()


def test_force_bypasses_gate_then_fails_numerically(tmp_path, capsys):
    code = run(["solve", "--eps", "0.02", "--sigma-kind", "c_over_eps",
                "--sigma-c", DEGENERATE_C, "--out", str(tmp_path), "--force"]
               + FAST)
    assert code == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == 1
    assert "degeneracy margin" in err["message"]


def test_solve_warns_near_degenerate_tension_on_stderr(tmp_path, capsys):
    # K = omega / (2 pi^2) = 3.06: admitted, solved, and warned about
    code = run(["solve", "--eps", "0.02", "--sigma-kind", "c_over_eps",
                "--sigma-c", "0.0165557", "--out", str(tmp_path)] + FAST)
    assert code == 0
    err = capsys.readouterr().err
    assert "warning: degeneracy margin 3.000e-02 at mode 2" in err
    diag = json.loads((tmp_path / "solution.json").read_text())["diagnostics"]
    # the w column and at most two all-difference matrices, on the branch
    assert diag["fd_columns"] % 8 == 1 and diag["fd_columns"] <= 17
    assert diag["theta_sup"] < 0.1


def test_solve_names_negative_tension(tmp_path, capsys):
    # c log(1/eps) / eps is negative past eps = 1
    code = run(["solve", "--eps", "2", "--sigma-kind", "c_log_over_eps",
                "--sigma-c", "1", "--out", str(tmp_path)] + FAST)
    assert code == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == 1
    assert "sigma = -0.34" in err["message"]


@pytest.mark.parametrize("argv", [
    ["solve"],                                        # missing --eps
    ["solve", "--eps", "0.02", "--grid", "abc"],      # bad int
    ["sweep", "--eps-grid", "2:1:x"],                 # bad grid spec
    ["margin-scan", "--omega-grid", "5:1:10"],        # descending omega grid
    ["frobnicate"],                                   # unknown subcommand
    [],                                               # no subcommand
    ["solve", "--eps", "0.02", "--rho", "-1"],        # negative rho
    ["solve", "--eps", "nan"],                        # non-finite eps
    ["solve", "--eps", "inf"],
    ["solve", "--eps", "0.02", "--tol", "nan"],       # non-finite tol
    ["solve", "--eps", "0.02", "--tol", "0"],         # nonpositive tol
    ["solve", "--eps", "0.02", "--modes", "0"],       # no modes
    ["solve", "--eps", "0.02", "--grid", "10", "--modes", "8"],  # unresolved
    ["solve", "--eps", "0.02", "--grid", "129", "--modes", "8"],  # odd grid
    ["solve", "--eps", "0.02", "--sigma-kind", "c_over_eps",
     "--sigma-c", "nan"],                             # non-finite tension
    ["sweep", "--eps-grid", "nan:0.01:3"],            # non-finite grid end
    ["sweep", "--eps-grid", "0.02:0.02:3"],           # equal ends, n > 1
    ["sweep", "--eps-grid", "0.04:0.04000000000000001:3"],  # near-equal ends
    ["check-sigma", "--modes", "8"],                  # flags the command
    ["check-sigma", "--force"],                       # does not read
    ["margin-scan", "--sigma-kind", "c_over_eps", "--sigma-c", "1"],
    ["margin-scan", "--grid", "256"],
    ["check-sigma", "--rho", "-1"],                   # negative rho
    ["margin-scan", "--rho", "-1"],
    ["solve", "--eps", "0.02", "--sigma-kind", "none",  # tension inputs
     "--sigma-c", "1"],                               # the kind does not read
    ["check-sigma", "--sigma-kind", "c_over_eps", "--sigma-c", "1",
     "--sigma-p", "1.5"],
    ["solve", "--eps", "-0.01"],                      # nonpositive eps
    ["solve", "--eps", "0"],
    ["sweep", "--eps-grid", "0:0.01:3"],              # nonpositive grid end
    ["sweep", "--eps-grid", "-0.02:0.01:3"],
])
def test_usage_errors_exit_64(argv, capsys):
    assert run(argv) == 64


def test_grid_size_is_bounded():
    # parse only: an accepted grid would start 100,001 solves
    with pytest.raises(SystemExit) as exc_info:
        build_parser().parse_args(["sweep", "--eps-grid", "0.04:0.005:100001"])
    assert exc_info.value.code == 64


def test_margin_scan_bounds_integer_k(tmp_path, capsys):
    # K = omega / (2 pi^2) at rho = 0 reaches about 152,000
    code = run(["margin-scan", "--omega-grid", "0:3e6:2",
                "--out", str(tmp_path)])
    assert code == 64
    assert not (tmp_path / "report.json").exists()


def test_usage_error_power_law_without_exponent(capsys):
    code = run(["solve", "--eps", "0.02", "--sigma-kind", "c_power",
                "--sigma-c", "1.0"])
    assert code == 64


def test_sweep_writes_descending_table(tmp_path, capsys):
    for i, (spec, extra) in enumerate([
            ("0.04:0.02:3", FAST),
            ("0.04:0.02:3", ["--rho", "0.25"] + FAST),    # a core sweep
            # a tension sweep at the default options
            ("0.04:0.005:8", ["--sigma-kind", "c_over_eps",
                              "--sigma-c", "4"])]):
        hi, lo, n = spec.split(":")
        out = tmp_path / str(i)
        code = run(["sweep", "--eps-grid", spec, "--plot",
                    "--out", str(out)] + extra)
        assert code == 0
        lines = (out / "table.csv").read_text().splitlines()
        assert lines[0] == ("eps,w,w_asym,gamma,gamma_asym,nu,nu_asym,s,"
                            "theta_sup,theta_h5,residual")
        rows = [[float(v) for v in row.split(",")] for row in lines[1:]]
        eps = [row[0] for row in rows]
        assert len(eps) == int(n)
        assert all(a > b for a, b in zip(eps, eps[1:]))
        assert abs(eps[0] - float(hi)) < 1e-15
        assert abs(eps[-1] - float(lo)) < 1e-15
        assert all(row[-1] <= 1e-10 for row in rows)
        svg = (out / "sweep.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


def test_sweep_failure_keeps_the_solved_rows(tmp_path, capsys,
                                             monkeypatch):
    real = solver.newton_solve

    def failing(eps, *args, **kwargs):
        if eps < 0.04:
            raise SolverError("Newton stagnated at residual 1e-3")
        return real(eps, *args, **kwargs)

    monkeypatch.setattr("thinring.solver.newton_solve", failing)
    code = run(["sweep", "--eps-grid", "0.04:0.02:3",
                "--out", str(tmp_path)] + FAST)
    assert code == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == 1 and err["solved"] == 1
    assert "at eps = 0.0282843: Newton stagnated" in err["message"]
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("eps,w,")
    assert float(lines[1].split(",")[0]) == 0.04


def test_sweep_rejects_excluded_tension_law(tmp_path, capsys):
    code = run(["sweep", "--eps-grid", "0.04:0.02:3", "--sigma-kind",
                "c_over_eps", "--sigma-c", DEGENERATE_C,
                "--out", str(tmp_path)] + FAST)
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert "excluded integer set" in err["message"]
    assert not (tmp_path / "table.csv").exists()


def test_cli_defaults_are_solver_defaults():
    args = build_parser().parse_args(["solve", "--eps", "0.01"])
    opts = SolverOptions()
    assert (args.grid, args.modes, args.tol) == (opts.n_grid, opts.modes,
                                                 opts.tol)


def test_check_sigma_report(tmp_path, capsys):
    code = run(["check-sigma", "--sigma-kind", "c_log_over_eps",
                "--sigma-c", "1.0", "--rho", "0.25", "--out", str(tmp_path)])
    assert code == 0
    assert "admissible" in capsys.readouterr().out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["admissible"] is True and doc["excluded"] is False
    assert doc["omega"] == 0.0 and doc["omega_source"] == "analytic"
    assert doc["margin"] == 1.5 and doc["worst_mode"] == 2
    assert {"excluded", "eps2_sigma_ok", "derivative_ok", "messages"} <= set(doc)
    # the zero law
    code = run(["check-sigma", "--sigma-kind", "none", "--rho", "0.25",
                "--out", str(tmp_path / "none")])
    assert code == 0
    doc = json.loads((tmp_path / "none" / "report.json").read_text())
    assert [doc[k] for k in ("admissible", "omega", "margin", "worst_mode",
                             "excluded", "derivative_ratio_max")] \
        == [True, "inf", "inf", 2, False, 0.0]


def test_margin_scan_flags_low_integers(tmp_path, capsys):
    code = run(["margin-scan", "--omega-grid", "0:100:5",
                "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert [p["k"] for p in doc["degenerate_points"]] == [3, 4, 5]
    assert all(p["margin"] < 1e-9 for p in doc["degenerate_points"])
    assert len(doc["scan"]) == 5
    assert doc["scan"][0]["omega"] == 0.0
    assert doc["scan"][0]["margin"] == 1.5
    code = run(["margin-scan", "--rho", "0", "--omega-grid", "0:100:101",
                "--out", str(tmp_path / "fine")])
    assert code == 0
    doc = json.loads((tmp_path / "fine" / "report.json").read_text())
    assert len(doc["scan"]) == 101
    assert [p["k"] for p in doc["degenerate_points"]] == [3, 4, 5]


def test_module_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "thinring.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "thinring" in proc.stdout


def test_module_entry_point_usage_error():
    proc = subprocess.run([sys.executable, "-m", "thinring.cli", "solve"],
                          capture_output=True, text=True)
    assert proc.returncode == 64


_SCIPY_FREE = """
import json, sys
def scipy():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
import thinring.cli
print(scipy())
from thinring.inner import solve_inner
from thinring.outer import solve_outer
from thinring.physics import NondimParams, SigmaLaw
from thinring.shape import FourierShape, build_grid
from thinring.solver import residual
shape = FourierShape([0.0, 0.0, 0.01])
residual(shape, 0.04, 0.0, 0.0, NondimParams(0.25, SigmaLaw(), None))
print(scipy())
grid = build_grid(shape, 0.04, 64)
d = solve_inner(grid, solve_outer(grid, 0.0, core=True)).diagnostics
print(json.dumps([d["flux_defect"]]))
print(scipy())
"""


def test_library_imports_without_scipy():
    # importing the CLI, a rho = 0.25 residual and reading a core solve's
    # diagnostics load no scipy
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    cli, res, values, diag = proc.stdout.splitlines()
    assert cli == res == diag == "[]"
    (flux_defect,) = json.loads(values)
    assert abs(flux_defect) < 1e-10


@pytest.mark.parametrize("module", ["physics", "outer", "special", "shape",
                                    "inner", "solver"])
def test_every_export_resolves(module):
    # a name moved or deleted must leave __all__ with it
    mod = importlib.import_module(f"thinring.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
