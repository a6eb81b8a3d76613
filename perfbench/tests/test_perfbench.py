"""Tests of the benchmark itself, on the tiny smoke sizes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fvvisc import solver  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def _names(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        report, result = run.run(workload, 5, 0, trace, smoke=True)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        assert got == _names(kind)
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())
        if trace:
            assert report["absent"] == []
            # children never outlast their parent: self time >= 0
            assert report["self_min_s"] >= 0.0
            layers = {n: m["value"] for n, m in report["layers"].items()}
            assert layers["ns3d.residual.self_s"] <= layers["ns3d.residual_s"]
            assert layers["verify.self_s"] <= report["solve_s_units"][0]
            if workload == "study1d-ensemble":
                # each grid the study builds is counted once
                spec = workloads.SMOKE[workload]
                assert layers["mesh.cells"] == (
                    sum(spec.sizes) * len(workloads.STRATEGIES_1D)
                    * spec.members)


def test_injected_non_convergence_is_counted():
    report, result = run.run("study1d-ensemble", 0, 0, 0, smoke=True,
                             inject_failure=0)
    assert report["unexpected_failures"] == ["lr-average n=7 seed=7"]
    assert report["failed_frac"] == pytest.approx(1 / report["attempted"])
    assert result["failed"] == 1 and result["correct"]


def test_output_check_flags_each_kind_of_difference():
    ref = {"a": [1.0], "b": [1.0], "c": None, "d": None, "e": [2.0]}
    rtol = run.output_rtol(8.0)
    outcomes = [{"label": "a", "errors": [1.0 + 0.5 * rtol]},
                {"label": "b", "errors": [1.0 + 2.0 * rtol]},
                {"label": "c", "errors": None},
                {"label": "d", "errors": [3.0]},
                {"label": "e", "errors": None}]
    check = run.check_outcomes(outcomes, ref, rtol)
    assert check == {"mismatched": ["b", "d"], "expected_failures": ["c"],
                     "unexpected_failures": ["e"]}


def _iterations_untraced(spec, pool_index):
    """Errors and total accepted steps with only a counting pass-through."""
    original = solver.solve_defect_correction
    steps = [0]

    def counting(*args, **kwargs):
        try:
            u, history = original(*args, **kwargs)
        except solver.NonConvergenceError as exc:
            steps[0] += exc.history.iterations[-1][0]
            raise
        steps[0] += history.iterations[-1][0]
        return u, history
    solver.solve_defect_correction = counting
    try:
        outcomes, _ = spec.solve(spec.setup(pool_index))
    finally:
        solver.solve_defect_correction = original
    return [o.errors for o in outcomes], steps[0]


@pytest.mark.parametrize("workload", ["study1d-ensemble", "ns3d-n11-solve"])
def test_tracing_changes_no_result(workload):
    spec = workloads.SMOKE[workload]
    errors, steps = _iterations_untraced(spec, 2)
    tracer = tracing.Tracer()
    def attributes():
        return ({n: getattr(solver, n) for n in dir(solver)},
                dict(vars(solver._LinearSolver)))
    before = attributes()
    with tracer.installed():
        outcomes, _ = spec.solve(spec.setup(2))
    assert attributes() == before
    assert [o.errors for o in outcomes] == errors
    assert tracer.layer_metrics()["solver.nonlinear_iters"] == steps


def test_absent_target_is_reported_not_fatal(monkeypatch, capsys):
    spans = dict(tracing.SPANS)
    spans["solver.linear_setup"] = ("fvvisc.solver:_GoneSolver.__init__",)
    monkeypatch.setattr(tracing, "SPANS", spans)
    tracer = tracing.Tracer()
    spec = workloads.SMOKE["study1d-ensemble"]
    with tracer.installed():
        spec.solve(spec.setup(0))
    assert tracer.absent == ["fvvisc.solver:_GoneSolver.__init__"]
    assert "absent" in capsys.readouterr().err
    metrics = tracer.layer_metrics()
    assert metrics["solver.linear_setup_s"] is None
    assert metrics["solver.linear_reduction_median"] is None
    assert metrics["solver.linear.solves"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ns3d-n11-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
