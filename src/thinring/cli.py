"""Command-line driver: solves, sweeps, tension checks, margin scans.

Subcommands write diff-able artifacts into --out: ``solve`` produces
solution.json and boundary.csv, ``sweep`` produces table.csv (and sweep.svg
with --plot), ``check-sigma`` and ``margin-scan`` produce report.json.
Exit codes: 0 success, 1 numerical failure, 2 degeneracy or admissibility
rejection, 64 usage error.  All outputs are bit-reproducible for a fixed
configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .physics import (NAMED_KINDS, NondimParams, SigmaLaw, asymptotic_wgn,
                      check_sigma, degeneracy_k0, degeneracy_margin)
from .shape import build_grid
from .solver import (ContinuationError, SolutionState, SolverError,
                     SolverOptions, continuation, newton_solve)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_REJECTED = 2
EXIT_USAGE = 64

# bound on the points of an eps or omega grid and on the integer K that
# margin-scan visits: past it a typo would run for hours or fill the disk
MAX_POINTS = 100_000


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; reserve 2 for admissibility rejection
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_json_safe(payload), indent=2) + "\n")


def _emit_error(code: int, message: str, **extra) -> int:
    print(json.dumps(_json_safe({"error": {"code": code, "message": message,
                                           **extra}})))
    return code


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _rho(text: str) -> float:
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"rho must be >= 0, got {text!r}")
    return value


def _eps(text: str) -> float:
    value = _finite(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"eps must be > 0, got {text!r}")
    return value


def _split_grid(spec: str) -> tuple[float, float, int]:
    # a:b:n with finite endpoints; callers check the ranges they need
    try:
        a, b, n = spec.split(":")
        a, b, n = _finite(a), _finite(b), int(n)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"grid must be a:b:n with finite a, b, got {spec!r}") from None
    if n > MAX_POINTS:
        raise argparse.ArgumentTypeError(f"grid n must be <= {MAX_POINTS}")
    return a, b, n


def _parse_grid(spec: str) -> list[float]:
    a, b, n = _split_grid(spec)
    if a <= 0.0 or b <= 0.0 or n < 1:
        raise argparse.ArgumentTypeError("grid endpoints must be positive, n >= 1")
    pts = sorted((float(p) for p in np.geomspace(a, b, n)), reverse=True)
    if any(p <= q for p, q in zip(pts, pts[1:])):
        raise argparse.ArgumentTypeError(
            f"the {n} grid points must be distinct; endpoints too close")
    return pts


def _sigma_payload(args) -> dict:
    return {"kind": args.sigma_kind, "c": args.sigma_c, "p": args.sigma_p}


def _params_payload(args, eps: float) -> dict:
    return {"rho": args.rho, "sigma": _sigma_payload(args),
            "modes": args.modes, "grid": args.grid, "tol": args.tol, "eps": eps}


def _state_payload(state: SolutionState, args, params: NondimParams) -> dict:
    sig = params.sigma_law
    nu_pair = {"standard": state.nu}
    es = sig.eps_sigma(state.eps)
    if es > 0.0:
        nu_asym = asymptotic_wgn(state.eps, params.rho, sig)[2]
        nu_pair["sigma_rescaled"] = state.nu / es
        nu_pair["sigma_rescaled_asym"] = nu_asym / es
    return {
        "params": _params_payload(args, state.eps),
        "shape": {"coeffs": state.shape.coeffs},
        "w": state.w,
        "gamma": state.gamma,
        "nu": state.nu,
        "nu_normalizations": nu_pair,
        "s": state.s,
        "diagnostics": state.diagnostics,
    }


def _write_boundary_csv(path: Path, state: SolutionState) -> None:
    grid = build_grid(state.shape, state.eps, state.mu.size)
    rows = ["alpha,theta,mu,lambda,h"]
    for i in range(grid.n):
        rows.append(",".join(f"{v:.17g}" for v in
                             (grid.alpha[i], grid.theta[i], state.mu[i],
                              state.lam[i], grid.h[i])))
    path.write_text("\n".join(rows) + "\n")


_TABLE_HEADER = ("eps,w,w_asym,gamma,gamma_asym,nu,nu_asym,s,"
                 "theta_sup,theta_h5,residual")


def _table_row(state: SolutionState, params: NondimParams) -> str:
    wa, ga, nua = asymptotic_wgn(state.eps, params.rho, params.sigma_law)
    d = state.diagnostics
    vals = (state.eps, state.w, wa, state.gamma, ga, state.nu, nua, state.s,
            d["theta_sup"], d["theta_h5"], d["residual_norm"])
    return ",".join(f"{v:.17g}" for v in vals)


def _pad(lo: float, hi: float) -> tuple[float, float]:
    span = (hi - lo) or max(abs(hi), 1e-12)
    return lo - 0.08 * span, hi + 0.08 * span


def _write_sweep_svg(path: Path, states: list[SolutionState],
                     params: NondimParams) -> None:
    eps = [s.eps for s in states]
    dw = [abs(s.w - asymptotic_wgn(s.eps, params.rho, params.sigma_law)[0])
          for s in states]
    xlim = _pad(min(eps), max(eps))
    ylim = _pad(0.0, max(dw))
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="900" height="420" '
             'viewBox="0 0 900 420">',
             '<rect width="900" height="420" fill="white"/>']
    # left panel: |W - W_asym| vs eps
    parts.append('<rect x="60" y="40" width="340" height="320" fill="none" '
                 'stroke="black"/>')
    px = [60 + 340 * (x - xlim[0]) / (xlim[1] - xlim[0]) for x in eps]
    py = [40 + 320 * (1 - (y - ylim[0]) / (ylim[1] - ylim[0])) for y in dw]
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" '
                 'stroke-width="1.5"/>')
    for x, cx, cy in zip(eps, px, py):
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="#1f6fb2"/>')
        parts.append(f'<text x="{cx:.2f}" y="375" font-size="11" '
                     f'text-anchor="middle">{x:g}</text>')
    parts.append('<text x="230" y="400" font-size="13" text-anchor="middle">'
                 'eps</text>')
    parts.append('<text x="230" y="25" font-size="13" text-anchor="middle">'
                 '|W - W_asym|</text>')
    # right panel: cross-section at the smallest eps, unit circle dashed
    st = states[-1]
    alpha = np.linspace(0.0, 2.0 * math.pi, 257)
    r = 1.0 + st.shape.theta(alpha)
    scale = 140.0 / float(np.max(r))
    cx0, cy0 = 670, 200
    xs = cx0 + scale * r * np.cos(alpha)
    ys = cy0 - scale * r * np.sin(alpha)
    circ = " ".join(
        f"{cx0 + scale * math.cos(a):.2f},{cy0 - scale * math.sin(a):.2f}"
        for a in alpha)
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{circ}" fill="none" stroke="#999" '
                 'stroke-dasharray="4 3"/>')
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#b23a1f" '
                 'stroke-width="1.5"/>')
    parts.append(f'<text x="{cx0}" y="25" font-size="13" text-anchor="middle">'
                 f'section at eps = {st.eps:g} (unit circle dashed)</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _solve_out_dir(args, params: NondimParams) -> Path | None:
    """Preamble of solve and sweep: the admissibility gate, then --out.

    Returns None, after printing the exit-2 payload, when the tension law
    is inadmissible and --force is off.
    """
    report = check_sigma(params.sigma_law, params.rho)
    if not (report.admissible or args.force):
        _emit_error(EXIT_REJECTED, "sigma law rejected: " +
                    "; ".join(report.messages or ("inadmissible",)),
                    margin=report.margin, worst_mode=report.worst_mode,
                    omega=report.omega)
        return None
    return _out_dir(args)


def cmd_solve(args, params: NondimParams, options: SolverOptions) -> int:
    out = _solve_out_dir(args, params)
    if out is None:
        return EXIT_REJECTED
    try:
        state = newton_solve(args.eps, params, options=options)
    except (SolverError, ValueError) as exc:
        return _emit_error(EXIT_NUMERICAL, str(exc))
    _write_json(out / "solution.json", _state_payload(state, args, params))
    _write_boundary_csv(out / "boundary.csv", state)
    print(f"solved eps={args.eps:g}: W={state.w:.10g} gamma={state.gamma:.10g} "
          f"nu={state.nu:.10g} S={state.s:.10g} "
          f"residual={state.diagnostics['residual_norm']:.3g}")
    for w in state.diagnostics["warnings"]:
        print("warning:", w, file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args, params: NondimParams, options: SolverOptions) -> int:
    out = _solve_out_dir(args, params)
    if out is None:
        return EXIT_REJECTED
    partial = False
    try:
        states = continuation(args.eps_grid, params, options=options)
    except ContinuationError as exc:
        states = exc.results
        partial = True
        message = str(exc)
    rows = [_TABLE_HEADER] + [_table_row(s, params) for s in states]
    (out / "table.csv").write_text("\n".join(rows) + "\n")
    if args.plot and states:
        _write_sweep_svg(out / "sweep.svg", states, params)
    if partial:
        return _emit_error(EXIT_NUMERICAL, message, solved=len(states))
    print(f"swept {len(states)} eps values into {out / 'table.csv'}")
    return EXIT_OK


def cmd_check_sigma(args, params: NondimParams) -> int:
    try:
        report = check_sigma(params.sigma_law, params.rho)
    except ValueError as exc:
        return _emit_error(EXIT_NUMERICAL, str(exc))
    _write_json(_out_dir(args) / "report.json",
                {"rho": params.rho, "sigma": _sigma_payload(args),
                 **asdict(report)})
    print("admissible" if report.admissible else "inadmissible")
    return EXIT_OK


def cmd_margin_scan(args) -> int:
    k0 = degeneracy_k0(args.rho)
    lo, hi, n = args.omega_grid
    k_lo, k_hi = lo * k0, hi * k0
    if not k_hi - max(k_lo, 3.0) < MAX_POINTS:   # also an overflowing k_hi
        print(f"thinring margin-scan: error: K = omega k0 must span less "
              f"than {MAX_POINTS} (k0 = {k0:.6g})", file=sys.stderr)
        return EXIT_USAGE
    omegas = np.linspace(lo, hi, int(n))
    scan = []
    for om in omegas:
        margin, worst = degeneracy_margin(args.rho, float(om))
        scan.append({"omega": float(om), "k": float(om) * k0,
                     "margin": margin, "worst_mode": worst})
    flagged = []
    first = max(3, math.ceil(k_lo - 1e-12))
    for k_int in range(first, math.floor(k_hi + 1e-12) + 1):
        om = k_int / k0
        margin, worst = degeneracy_margin(args.rho, om)
        flagged.append({"k": k_int, "omega": om, "margin": margin,
                        "worst_mode": worst})
    _write_json(_out_dir(args) / "report.json",
                {"rho": args.rho, "k0": k0, "scan": scan,
                 "degenerate_points": flagged})
    print(f"scanned {len(omegas)} omega values; "
          f"{len(flagged)} degenerate points in range")
    return EXIT_OK


def _omega_grid(spec: str) -> tuple[float, float, int]:
    a, b, n = _split_grid(spec)
    if a < 0.0 or b <= a or n < 2:
        raise argparse.ArgumentTypeError("omega grid needs 0 <= a < b, n >= 2")
    return a, b, n


def _params(args) -> NondimParams:
    law = SigmaLaw(kind=args.sigma_kind, c=args.sigma_c, p=args.sigma_p)
    return NondimParams(rho=args.rho, sigma_law=law, omega=law.omega)


def _options(args) -> SolverOptions:
    return SolverOptions(n_grid=args.grid, modes=args.modes, tol=args.tol)


def _add_command(sub, name: str, summary: str, fn, *inputs):
    """Subparser for fn(args, *(build(args) for build in inputs)).

    Every command takes --rho and --out; the tension flags come with
    _params, the discretization flags and --force with _options.
    """
    p = sub.add_parser(name, help=summary)
    p.add_argument("--rho", type=_rho, default=0.0,
                   help="density ratio parameter (>= 0)")
    p.add_argument("--out", default=".", help="output directory")
    if _params in inputs:
        p.add_argument("--sigma-kind", default="none", choices=NAMED_KINDS)
        p.add_argument("--sigma-c", type=_finite, default=0.0,
                       help="tension coefficient c")
        p.add_argument("--sigma-p", type=_finite, default=None,
                       help="exponent for c_power, in (1, 2)")
    if _options in inputs:
        p.add_argument("--modes", type=int, default=SolverOptions.modes,
                       help="cap on the cosine truncation M (the M used "
                       "is diagnostics.modes)")
        p.add_argument("--grid", type=int, default=SolverOptions.n_grid,
                       help="boundary nodes N at the cap")
        p.add_argument("--tol", type=_finite, default=SolverOptions.tol,
                       help="Newton tolerance")
        p.add_argument("--force", action="store_true",
                       help="run even if the sigma law is inadmissible")
    p.set_defaults(fn=fn, inputs=inputs)
    return p


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="thinring",
                  description="steady thin vortex rings with surface tension")
    sub = top.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "solve", "single steady solve", cmd_solve,
                     _params, _options)
    p.add_argument("--eps", type=_eps, required=True,
                   help="thinness parameter")

    p = _add_command(sub, "sweep", "continuation over an eps grid", cmd_sweep,
                     _params, _options)
    p.add_argument("--eps-grid", dest="eps_grid", type=_parse_grid,
                   required=True, metavar="A:B:N",
                   help="log-spaced eps grid, swept descending")
    p.add_argument("--plot", action="store_true", help="also write sweep.svg")

    _add_command(sub, "check-sigma", "tension-law admissibility report",
                 cmd_check_sigma, _params)

    p = _add_command(sub, "margin-scan", "degeneracy margins over omega",
                     cmd_margin_scan)
    p.add_argument("--omega-grid", type=_omega_grid, default=(0.0, 60.0, 601),
                   metavar="A:B:N", help="linear omega grid (default 0:60:601)")
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        inputs = [build(args) for build in args.inputs]
    except ValueError as exc:
        parser.print_usage(sys.stderr)
        print(f"thinring: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return args.fn(args, *inputs)


if __name__ == "__main__":
    sys.exit(main())