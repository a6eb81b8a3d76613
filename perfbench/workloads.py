"""Benchmark workloads: inputs derived from a pool index, set-up and solves.

Each workload has a set-up phase (everything built before the first solve)
and a solve phase that ends with the verdict the user runs fvvisc for: L1
errors per solve and, where the workload has more than one grid level,
observed orders.  Only the pool index (``--seed`` modulo ``POOL``) decides
the inputs; the reference errors in ``reference.json`` are recorded for
every pool index.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from fvvisc import diffusion1d, mesh, ns3d, recon, solver, verify
from fvvisc.recon import Strategy
from run import POOL

STRATEGIES_1D = ("lr-average", "arithmetic", "inverse-distance",
                 "one-sided-left", "one-sided-right")
STRATEGIES_3D = ("lr-average", "arithmetic", "inverse-distance")

# Target residual drops of the solver configurations the workloads use
# (run_study_1d's default in 1D); the output tolerance is derived from them
# (see README.md).
TARGET_DROP_1D = 8.0
TARGET_DROP_3D = 7.0

FAILURES = (solver.NonConvergenceError, solver.SolverDivergenceError)


@dataclass
class Outcome:
    """One solve: its label, per-variable L1 errors (None if it failed)."""

    label: str
    errors: list | None
    iterations: int | None = None
    failure: str | None = None


@dataclass(frozen=True)
class Ensemble1D:
    """``verify.run_study_1d`` over every strategy for several grid seeds."""

    sizes: tuple
    members: int
    # run_study_1d builds its grids and problems again itself.
    setup_in_solve = True

    def member_seeds(self, pool_index):
        """Members from a cycle of POOL, starting at the pool index.

        The full workload solves the whole cycle, so every seed solves the
        same families in a rotated order: the families' solve times differ
        by a factor of two, and a seed-dependent subset would make the
        spread between seeds measure the draw rather than the program.
        Every member's solves are in the reference.
        """
        return [1000 * ((pool_index + j) % POOL) for j in range(self.members)]

    def setup(self, pool_index):
        """Builds every grid and problem the ensemble solves on.

        The study builds them again itself (set-up is a few milliseconds);
        this measures the 1D counterpart of the 3D mesh and problem set-up.
        """
        for seed in self.member_seeds(pool_index):
            for name in STRATEGIES_1D:
                strat = Strategy.from_name(name)
                for n in self.sizes:
                    grid = mesh.generate_grid_1d(n, seed=seed + n)
                    diffusion1d.Diffusion1DProblem(grid, strat)
        return pool_index

    def solve(self, pool_index):
        outcomes = []
        ensemble = {s: [] for s in STRATEGIES_1D}
        for seed in self.member_seeds(pool_index):
            records = verify.run_study_1d(STRATEGIES_1D, sizes=self.sizes,
                                          seed=seed)
            for name, rec in records.items():
                col = rec.error_column(0)
                ensemble[name].append(col)
                for n, e in zip(self.sizes, col):
                    outcomes.append(Outcome(
                        f"{name} n={n} seed={seed + n}",
                        None if math.isnan(e) else [float(e)],
                        failure="non-converged" if math.isnan(e) else None))
        return outcomes, _ensemble_orders(ensemble, self.sizes)


def _ensemble_orders(ensemble, sizes):
    """Slope of the geometric-mean error over the finest half of the family.

    Members that failed at a level are left out of that level's mean.
    """
    verdict = {}
    h = 1.0 / np.asarray(sizes, dtype=float)
    half = slice(len(sizes) - (len(sizes) + 1) // 2, len(sizes))
    for name, cols in ensemble.items():
        with warnings.catch_warnings():       # levels where every member failed
            warnings.simplefilter("ignore", RuntimeWarning)
            gmean = np.exp(np.nanmean(np.log(np.array(cols)), axis=0))
        keep = np.isfinite(gmean[half])
        verdict[name] = (float(np.polyfit(np.log(h[half][keep]),
                                          np.log(gmean[half][keep]), 1)[0])
                         if keep.sum() >= 2 else float("nan"))
    return verdict


@dataclass(frozen=True)
class Mesh3D:
    """Solves of the 3D MMS problem on one mesh, one per strategy."""

    n: int
    perturbation: float
    strategies: tuple
    setup_in_solve = False

    def setup(self, pool_index):
        seed = pool_index + self.n
        m = mesh.generate_tet_mesh(self.n, perturbation=self.perturbation,
                                   seed=seed)
        problems = [ns3d.NS3DProblem(m, Strategy.from_name(s))
                    for s in self.strategies]
        recon.lsq_gradient_3d(m, problems[0].exact)
        return seed, problems

    def solve(self, state):
        seed, problems = state
        cfg = solver.SolverConfig(target_drop=TARGET_DROP_3D, linear_sweeps=30,
                                  jacobian_lag=8)
        outcomes = []
        for problem in problems:
            label = f"{problem.strategy.name} n={self.n} seed={seed}"
            try:
                w, history = solver.solve_ns3d(problem, cfg)
            except FAILURES as exc:
                rows = getattr(getattr(exc, "history", None), "iterations",
                               None)
                outcomes.append(Outcome(label, None,
                                        rows[-1][0] if rows else None,
                                        type(exc).__name__))
                continue
            err = verify.l1_error(w, problem.exact)
            outcomes.append(Outcome(label, [float(e) for e in err],
                                    history.iterations[-1][0]))
        return outcomes, {}


WORKLOADS = {
    "study1d-ensemble": Ensemble1D(
        sizes=(7, 11, 15, 19, 23, 31, 47, 63, 95, 127), members=POOL),
    "ns3d-n7-strategies": Mesh3D(7, 0.1, STRATEGIES_3D),
    "ns3d-n11-solve": Mesh3D(11, 0.1, ("arithmetic",)),
}

# Tiny versions for the benchmark's own tests.
SMOKE = {
    "study1d-ensemble": Ensemble1D(sizes=(7, 11, 15), members=1),
    "ns3d-n7-strategies": Mesh3D(3, 0.1, STRATEGIES_3D),
    "ns3d-n11-solve": Mesh3D(3, 0.1, ("arithmetic",)),
}

TARGET_DROP = {"study1d-ensemble": TARGET_DROP_1D,
               "ns3d-n7-strategies": TARGET_DROP_3D,
               "ns3d-n11-solve": TARGET_DROP_3D}


def quiet_study_logs():
    """The 1D study logs one warning per non-converged row; the benchmark
    lists those rows itself."""
    logging.getLogger("fvvisc.verify").setLevel(logging.ERROR)
