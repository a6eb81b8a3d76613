"""The names and calls the benchmark in ``perfbench/`` relies on.

``perfbench/tracing.py`` wraps fvvisc module attributes by name, and
``perfbench/workloads.py`` builds its solves through a fixed set of calls.
Renaming or removing any of them breaks the benchmark without failing a
unit test, so both are checked here at the benchmark's smoke sizes.
"""

import importlib.util
import inspect
import math
import pathlib

import pytest

from fvvisc import diffusion1d, mesh, ns3d, physics, recon, solver, verify
from fvvisc.recon import Strategy

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(tracing):
    targets = [t for group in tracing.SPANS.values() for t in group]
    assert targets
    for target in targets:
        _, _, fn = tracing._resolve(target)
        assert callable(fn), target


def test_traced_arguments_keep_their_names():
    # the tracer reads these arguments by name
    params = inspect.signature(solver.solve_defect_correction).parameters
    assert "apply_update_fn" in params
    assert list(inspect.signature(solver._LinearSolver.__init__)
                .parameters)[1] == "mat"
    assert list(inspect.signature(solver._LinearSolver.solve)
                .parameters)[1] == "rhs"


def test_1d_workload_calls():
    strategies = ("lr-average", "arithmetic", "inverse-distance",
                  "one-sided-left", "one-sided-right")
    sizes, seed = (7, 11, 15), 0
    for name in strategies:
        for n in sizes:
            grid = mesh.generate_grid_1d(n, seed=seed + n)
            diffusion1d.Diffusion1DProblem(grid, Strategy.from_name(name))
    records = verify.run_study_1d(strategies, sizes=sizes, seed=seed)
    assert set(records) == set(strategies)
    col = records["arithmetic"].error_column(0)
    assert len(col) == len(sizes) and not any(math.isnan(e) for e in col)


def test_3d_workload_calls():
    m = mesh.generate_tet_mesh(3, perturbation=0.1, seed=3)
    problems = [ns3d.NS3DProblem(m, Strategy.from_name(s))
                for s in ("lr-average", "arithmetic", "inverse-distance")]
    recon.lsq_gradient_3d(m, problems[0].exact)
    cfg = solver.SolverConfig(target_drop=7.0, linear_sweeps=30,
                              jacobian_lag=8)
    w, history = solver.solve_ns3d(problems[1], cfg)
    assert history.iterations[-1][0] > 0
    err = verify.l1_error(w, problems[1].exact)
    assert len(err) == 5 and all(e > 0.0 for e in err)


def test_injected_failure_calls():
    # perfbench/worker.py raises this in place of a solve
    exc = solver.NonConvergenceError("injected", solver.IterationHistory())
    assert exc.history.iterations == []
    assert issubclass(solver.SolverDivergenceError, Exception)


#: The kernels one 3D residual reaches through module attributes; the
#: tracer times each under its own span (``recon.gradient_s``,
#: ``physics.roe_s``, ...).
RESIDUAL_KERNELS = (
    (recon, "lsq_gradient_3d"), (recon, "reconstruct_lr"),
    (recon, "alpha_damped_face_gradient"), (recon, "face_scalar"),
    (physics, "roe_flux"), (physics, "viscous_normal_flux"))


def _count_calls(monkeypatch, targets) -> dict:
    """Count the calls through each (module, attribute) of ``targets``."""
    calls = {}
    for module, name in targets:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_residual_reaches_each_traced_kernel_once(monkeypatch):
    # a kernel inlined into the residual would leave its traced per-layer
    # metric reading 0 while every numerical test still passes
    calls = _count_calls(monkeypatch, RESIDUAL_KERNELS)
    m = mesh.generate_tet_mesh(3, perturbation=0.1, seed=3)
    problem = ns3d.NS3DProblem(m, Strategy.from_name("arithmetic"))
    ns3d.residual_ns3d(problem, problem.exact)
    assert calls == {name: 1 for _, name in RESIDUAL_KERNELS}


# The studies must look these attributes up when they call them: the
# tracer's mesh.cells and verify.solves count calls through the patched
# attributes, and a reference taken at import would leave them reading 0.

def test_1d_study_builds_a_grid_per_strategy_and_level(monkeypatch):
    # the workload's traced mesh.cells is the cells of every grid it builds
    calls = _count_calls(monkeypatch, ((verify, "generate_grid_1d"),
                                       (solver, "solve_diffusion_1d")))
    verify.run_study_1d(("arithmetic", "lr-average"), sizes=(7, 11))
    assert calls == {"generate_grid_1d": 4, "solve_diffusion_1d": 4}


def test_3d_study_shares_one_mesh_per_level(monkeypatch):
    # each mesh carries its cached LSQ operator, built once for all
    # strategies
    calls = _count_calls(monkeypatch, ((verify, "generate_tet_mesh"),
                                       (solver, "solve_ns3d")))
    verify.run_study_3d(("arithmetic", "lr-average"), sizes=(2, 3))
    assert calls == {"generate_tet_mesh": 2, "solve_ns3d": 4}
