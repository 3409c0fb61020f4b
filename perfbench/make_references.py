"""Regenerate perfbench/references.json, the frozen refined solutions.

For every workload regime and every eps in the pool this runs
``newton_solve`` at two raised resolutions with the benchmark's own solver
code.  The finer one is the reference; the largest change of (W, gamma, nu)
between the two is stored as the reference's own ``spread``.  A state at the
default resolution is compared against the finer solve, and its deviation is
never counted below that spread.

    python3 perfbench/make_references.py [--workload NAME ...]

Every requested workload is recomputed from scratch, and its two
resolutions are recorded next to it under ``resolutions``.  The file is
rewritten after each workload, so an interrupted run leaves the workload
it was computing as it was.  Runs take about 30 s per rho = 0 entry and two
to three minutes per rho > 0 entry on 2 cores.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from thinring.solver import SolverOptions, newton_solve  # noqa: E402

from workloads import POOL, REFERENCES, WORKLOADS, eps_key  # noqa: E402

FINE = SolverOptions(n_grid=512, modes=48, inner_nr=40, inner_nalpha=64)
MID = SolverOptions(n_grid=384, modes=40, inner_nr=32, inner_nalpha=48)
# Newton may stop just under its 1e-10 tolerance, up to ~1e-12 away from
# the root.  At rho = 0 such a solve gets further steps until its residual
# is below POLISH.  At rho > 0 the core solve floors the residual near 1e-11
# and the spread is ~1e-9 anyway, so there is nothing to polish.
POLISH = 1e-12


def solve(eps, params, options, init=None):
    state = newton_solve(eps, params, init=init, options=options)
    if params.rho == 0.0 and state.diagnostics["residual_norm"] > POLISH:
        state = newton_solve(eps, params, init=state,
                             options=replace(options, tol=POLISH))
    return state


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="regime to (re)compute; default all")
    args = ap.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if REFERENCES.exists():
        doc = json.loads(REFERENCES.read_text())
    else:
        doc = {"resolutions": {}, "workloads": {}}
    for name in names:
        wl = WORKLOADS[name]
        table = {}
        for eps in POOL:
            t0 = time.perf_counter()
            mid = solve(eps, wl.params(), MID)
            # With the core solve (rho > 0) the two roots differ by ~1e-9, so
            # the fine solve starts from the mid one and still takes a full
            # Newton step; this halves its cost.  At rho = 0 they agree to
            # roundoff, so both solves start cold to stay independent.
            fine = solve(eps, wl.params(), FINE,
                         init=mid if wl.rho > 0.0 else None)
            spread = max(abs(fine.w - mid.w), abs(fine.gamma - mid.gamma),
                         abs(fine.nu - mid.nu))
            table[eps_key(eps)] = {
                "w": fine.w, "gamma": fine.gamma, "nu": fine.nu,
                "spread": spread,
                "residual_norm": fine.diagnostics["residual_norm"],
            }
            print(f"{name} eps={eps}: spread {spread:.2e} "
                  f"({time.perf_counter() - t0:.0f} s)", flush=True)
        doc["resolutions"][name] = {"reference": asdict(FINE),
                                    "spread": asdict(MID)}
        doc["workloads"][name] = table
        REFERENCES.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
