"""thinring benchmark: solve seeded steady ring sections and check every one.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation runs one workload in its own process as a closed loop with a
single client: states are solved one after another.  The seed picks the eps
values (see workloads.py); every solved state is checked against the frozen
refined references in references.json.

--trace 0 prints the end-to-end metrics.  Set-up is timed in fresh child
processes, then states are solved until the next one would end past
--seconds (at least one full round).

--trace 1 solves the seed's first round twice, untraced and then with every
layer wrapped (tracer.py), prints the per-layer metrics and writes the spans
to perfbench/out/.  It fails, printing no result, when a layer the seed
commit calls records no calls.

The last line of standard output is the JSON result; the lines before it
give the machine and a readable summary.  BLAS runs on one thread, set
before numpy is imported (see cap_blas_threads).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from time import perf_counter

from workloads import (WORKLOADS, check_state, digits, first_residual,
                       load_references, rounds)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_RUNS = 5

END_TO_END = {"setup_s": "s", "solve_s": "s", "states_per_s": "1/s",
              "digits_wgn": "digits", "peak_rss_mb": "MB"}


def cap_blas_threads() -> int:
    """Run BLAS on one thread.

    f_split and the assembly are numpy element-wise work on one thread;
    BLAS carries the dense solves, which are slower on one thread.  With
    one BLAS thread per core, though, the threads wait on each other, so
    any other work on either core stalls every call: on 2 cores one busy
    process beside the benchmark doubled a cold solve (2.1 to 4.2 s),
    while a single-threaded solve did not slow down.
    """
    cap = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def machine_info(cap: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": cap, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def setup_seconds(workload, eps: float) -> list[float]:
    """Set-up time of SETUP_RUNS fresh processes, one after another."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name,
             repr(eps)], capture_output=True, text=True, timeout=120,
            check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def solve_unit(solver, workload, params, eps_list: list[float]):
    """Solve one unit of work: a cold state, or a sweep over eps_list.

    Returns one entry per eps (None where the solve failed) and the wall
    seconds the unit took.
    """
    t0 = perf_counter()
    if workload.sweep:
        try:
            states = solver.continuation(eps_list, params)
        except solver.ContinuationError as exc:
            states = exc.results
    else:
        try:
            states = [solver.newton_solve(eps_list[0], params)]
        except (solver.SolverError, ValueError):
            states = []
    seconds = perf_counter() - t0
    return states + [None] * (len(eps_list) - len(states)), seconds


def units(workload, seed: int):
    for eps_round in rounds(workload, seed):
        if workload.sweep:
            yield eps_round
        else:
            yield from ([eps] for eps in eps_round)


class Checked:
    """Pass/fail tally and correct digits of each state, in solve order."""

    def __init__(self, workload, refs: dict, tol: float):
        self.workload, self.refs, self.tol = workload, refs, tol
        self.attempted = self.failed = 0
        self.digits: list[float] = []
        self.iterations: list[int] = []

    def add(self, states) -> None:
        for state in states:
            self.attempted += 1
            if state is None:       # raised: no correct digits at all
                self.failed += 1
                self.digits.append(0.0)
                continue
            ok, dev = check_state(state, self.workload, self.refs, self.tol)
            self.failed += not ok
            self.digits.append(digits(dev))
            self.iterations.append(state.diagnostics["iterations"])

    @property
    def passed(self) -> int:
        return self.attempted - self.failed


@contextmanager
def state_timer(solver, seconds: list[float]):
    """Append the wall time of every newton_solve call, sweeps included."""
    solve = solver.newton_solve

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return solve(*args, **kwargs)
        finally:
            seconds.append(perf_counter() - t0)

    solver.newton_solve = timed
    try:
        yield
    finally:
        solver.newton_solve = solve


def run_untraced(solver, workload, params, seed, seconds, check):
    """Solve units until the next one would end past ``seconds``.

    Returns the per-state solve times and the wall time of the phase.
    """
    unit_seconds, per_state = [], []
    min_units = 1 if workload.sweep else workload.strata
    stream = units(workload, seed)
    with state_timer(solver, per_state):
        t0 = perf_counter()
        while True:
            states, dt = solve_unit(solver, workload, params, next(stream))
            check.add(states)
            unit_seconds.append(dt)
            elapsed = perf_counter() - t0
            if (len(unit_seconds) >= min_units
                    and elapsed + statistics.median(unit_seconds) > seconds):
                return per_state, elapsed


def run_traced(solver, workload, params, seed, check):
    """Solve the seed's first round untraced, then again traced.

    Returns the per-layer metrics and the round's eps values.
    """
    from tracer import Tracer
    work = list(islice(units(workload, seed),
                       1 if workload.sweep else workload.strata))

    t0 = perf_counter()
    for eps_list in work:
        check.add(solve_unit(solver, workload, params, eps_list)[0])
    untraced = perf_counter() - t0

    traced_check = Checked(check.workload, check.refs, check.tol)
    tracer = Tracer()
    with tracer.installed():
        t0 = perf_counter()
        for eps_list in work:
            traced_check.add(solve_unit(solver, workload, params, eps_list)[0])
        traced = perf_counter() - t0
    check.attempted += traced_check.attempted
    check.failed += traced_check.failed
    metrics = tracer.layer_metrics(traced, traced_check.iterations)
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.jsonl")
    return metrics, [eps for eps_list in work for eps in eps_list]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "thinring" / "__init__.py").is_file():
        print(f"perfbench: no thinring sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    cap = cap_blas_threads()

    first_eps = next(rounds(workload, args.seed))[0]
    setup = [] if args.trace else setup_seconds(workload, first_eps)

    # untimed warm-up: fill the cached tables before anything is timed
    first_residual(workload, first_eps)
    import thinring.solver as solver
    from tracer import MissingLayerError, unit

    params = workload.params()
    check = Checked(workload, load_references(), solver.SolverOptions().tol)
    info = machine_info(cap)
    print("machine:", json.dumps(info))
    if args.trace:
        try:
            values, first = run_traced(solver, workload, params, args.seed,
                                       check)
        except MissingLayerError as exc:
            print(f"perfbench: missing layer on {workload.name}: {exc}",
                  file=sys.stderr)
            return 3
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}
        print(f"{workload.name} seed {args.seed}: traced round {first}")
    else:
        per_state, wall = run_untraced(solver, workload, params, args.seed,
                                       args.seconds, check)
        values = {
            "setup_s": statistics.median(setup),
            "solve_s": statistics.median(per_state),
            "states_per_s": check.passed / wall,
            # the seed's first round only, so the value depends on the seed
            # and the solver, not on how many states fit in the run
            "digits_wgn": statistics.mean(check.digits[:workload.strata]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
        print(f"{workload.name} seed {args.seed}: {check.attempted} states "
              f"in {wall:.2f} s; setup_s over {len(setup)} processes, "
              f"solve_s over {len(per_state)} samples; worst state "
              f"{min(check.digits):.2f} digits")
    failed_frac = check.failed / check.attempted
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':34s} {failed_frac:.6g} fraction "
          f"({check.failed} of {check.attempted})")
    print(json.dumps({"correct": check.failed == 0,
                      "attempted": check.attempted, "failed": check.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
