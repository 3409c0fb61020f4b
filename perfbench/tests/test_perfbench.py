"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The short runs solve real states, so this file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from tracer import MissingLayerError, Tracer  # noqa: E402
from workloads import (POOL, WORKLOADS, check_state, eps_key,  # noqa: E402
                       load_references, rounds)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_rounds(workload, seed, n=3):
    stream = rounds(workload, seed)
    return [next(stream) for _ in range(n)]


def bench(tmp_cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=tmp_cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_alone_fixes_the_inputs(name):
    wl = WORKLOADS[name]
    one, again, two = (first_rounds(wl, 1), first_rounds(wl, 1),
                       first_rounds(wl, 2))
    assert one == again
    assert {e for r in one for e in r} != {e for r in two for e in r}
    for r in one + two:
        assert len(r) == wl.strata and set(r) <= set(POOL)
        assert r == sorted(r, reverse=True)


def test_every_pool_value_has_a_reference():
    refs = load_references()
    for name in WORKLOADS:
        assert set(refs[name]) == {eps_key(e) for e in POOL}
        for entry in refs[name].values():
            assert 0.0 <= entry["spread"] < WORKLOADS[name].tolerance


def fake_state(ref, eps, shift=0.0, residual=1e-13):
    return SimpleNamespace(w=ref["w"] + shift, gamma=ref["gamma"], nu=ref["nu"],
                           eps=eps, diagnostics={"residual_norm": residual,
                                                 "iterations": 2})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_accepts_reference_and_rejects_perturbation(name):
    wl, refs = WORKLOADS[name], load_references()
    eps = POOL[0]
    ref = refs[name][eps_key(eps)]
    assert check_state(fake_state(ref, eps), wl, refs, 1e-10)[0]
    assert not check_state(fake_state(ref, eps, 2 * wl.tolerance), wl, refs,
                           1e-10)[0]
    assert not check_state(fake_state(ref, eps, float("nan")), wl, refs,
                           1e-10)[0]
    assert not check_state(fake_state(ref, eps, residual=1e-9), wl, refs,
                           1e-10)[0]


def test_perturbed_reference_counts_as_failed():
    import thinring.solver as solver
    wl = WORKLOADS["sweep_tension"]
    eps = POOL[-1]
    state = solver.newton_solve(eps, wl.params())
    refs = load_references()
    good = run.Checked(wl, refs, 1e-10)
    good.add([state])
    assert (good.attempted, good.failed) == (1, 0)

    bad_refs = json.loads(json.dumps(refs))
    bad_refs[wl.name][eps_key(eps)]["nu"] += 2 * wl.tolerance
    bad = run.Checked(wl, bad_refs, 1e-10)
    bad.add([state, None])
    assert (bad.attempted, bad.failed) == (2, 2)


def test_layer_without_calls_is_reported_missing():
    import numpy as np
    import thinring.solver as solver
    from thinring.shape import FourierShape
    wl = WORKLOADS["sweep_tension"]
    tracer = Tracer()
    with tracer.installed():
        solver.residual(FourierShape(np.zeros(33)), 0.01, 0.5, -0.03,
                        wl.params())
    with pytest.raises(MissingLayerError, match="solver.newton_solve"):
        tracer.layer_metrics(1.0, [2])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_short_run_prints_every_metric_with_unit(trace, section):
    proc = bench(ROOT, "--workload", "cold_core", "--seed", "7",
                 "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= WORKLOADS["cold_core"].strata
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    machine = json.loads(lines[0].split(":", 1)[1])
    assert machine["blas_threads"] == 1
    assert any(line.split()[:1] == ["failed_frac"] for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", "cold_core", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
