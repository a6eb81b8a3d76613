"""Discretization-error norms, observed orders, and convergence studies.

A study runs one solve per (strategy, grid) and records per-variable L1
errors against the exact solution.  Rows whose solve does not converge are
tagged as failed (NaN error) instead of aborting the study.
``observed_orders`` derives every order the studies report: pairwise
orders, a least-squares slope over the finest half of the grid family and
the finest-pair order, each NaN where undefined.  Results are emitted as
gnuplot-compatible CSV.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import diffusion1d, ns3d, solver
from .mesh import generate_grid_1d, generate_tet_mesh
from .recon import strategy_list

log = logging.getLogger(__name__)

VAR_NAMES_1D = ("u",)
VAR_NAMES_3D = ("rho", "u", "v", "w", "T")


def l1_error(solution: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Per-variable L1 norm of the discretization error: the cell mean.

    Arrays are (N,) or (N, m); returns a length-m array (m = 1 for 1D).
    """
    solution = np.atleast_2d(np.asarray(solution, dtype=float).T).T
    exact = np.atleast_2d(np.asarray(exact, dtype=float).T).T
    if solution.shape != exact.shape:
        raise ValueError(
            f"shape mismatch: {solution.shape} vs {exact.shape}")
    return np.abs(solution - exact).mean(axis=0)


@dataclass
class ConvergenceRecord:
    """Grid-refinement history for one strategy.

    Rows are (grid label, cell count N, h_eff, per-variable L1 errors);
    NaN errors mark failed (non-converged) rows.  Rows must be added from
    coarse to fine (decreasing h_eff).
    """

    strategy: str
    var_names: tuple
    labels: list = field(default_factory=list)
    n_cells: list = field(default_factory=list)
    h_eff: list = field(default_factory=list)
    errors: list = field(default_factory=list)   # arrays, one per row

    def add_row(self, label: str, n_cells: int, h_eff: float, errors):
        if self.h_eff and h_eff >= self.h_eff[-1]:
            raise ValueError("rows must be added with decreasing h_eff")
        errors = np.atleast_1d(np.asarray(errors, dtype=float))
        if errors.shape != (len(self.var_names),):
            raise ValueError(
                f"expected {len(self.var_names)} error values, got {errors.shape}")
        self.labels.append(label)
        self.n_cells.append(int(n_cells))
        self.h_eff.append(float(h_eff))
        self.errors.append(errors)

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    def error_column(self, variable) -> np.ndarray:
        """Errors of one variable (by name or index) across rows."""
        if isinstance(variable, str):
            variable = self.var_names.index(variable)
        return np.array([e[variable] for e in self.errors])


class ObservedOrders(NamedTuple):
    """Observed orders of one variable of a record; NaN where undefined."""

    pairwise: np.ndarray    # between consecutive rows, one per row pair
    slope: float            # least-squares fit over the finest half
    finest_pair: float      # between the two finest usable rows


def observed_orders(record: ConvergenceRecord, variable=0) -> ObservedOrders:
    """Pairwise orders, global slope and finest-pair order of one variable.

    A row enters an order only if its error is finite and positive, so a
    failed (NaN) or exact (zero-error) row drops out on its own.  Pairwise
    order between consecutive rows: log(e_coarse/e_fine) /
    log(h_coarse/h_fine), NaN where either row is unusable.  The global
    slope is a least-squares fit of log e vs log h over the usable rows
    among the finest ceil(rows/2), NaN with fewer than two (always so with
    two rows).  The finest-pair order is the pairwise formula over the two
    finest usable rows; it is the quantity checked against the acceptance
    bands (+/-0.2 around the nominal order in 1D, +/-0.3 in 3D).
    """
    e = record.error_column(variable)
    h = np.asarray(record.h_eff)
    usable = np.isfinite(e) & (e > 0.0)
    e = np.where(usable, e, np.nan)
    pairwise = np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:])
    fit = usable & (np.arange(record.n_rows) >= record.n_rows // 2)
    slope = float(np.polyfit(np.log(h[fit]), np.log(e[fit]), 1)[0]) \
        if fit.sum() >= 2 else np.nan
    e, h = e[usable], h[usable]
    finest_pair = float(np.log(e[-2] / e[-1]) / np.log(h[-2] / h[-1])) \
        if len(e) >= 2 else np.nan
    return ObservedOrders(pairwise, slope, finest_pair)


# ---------------------------------------------------------------------------
# Study orchestration
# ---------------------------------------------------------------------------

GRID_SIZES_1D = (7, 11, 15, 19, 23, 31, 47, 63)
GRID_SIZES_3D = (7, 11, 15)


def run_study_1d(strategies, sizes=GRID_SIZES_1D, perturbation: float = 0.3,
                 seed: int = 0,
                 solver_cfg: solver.SolverConfig | None = None,
                 out_dir: str | None = None):
    """1D nonlinear-diffusion convergence study; returns {name: record}.

    Level n draws its grid with seed ``seed + n``, so that grid can be
    regenerated in isolation, but past the first level not its row: each
    solve is warm-started from the interpolated previous-level solution,
    which keeps the solver on the same solution branch across the family.
    """
    def level(n, strat, prev):
        grid = generate_grid_1d(n, perturbation=perturbation, seed=seed + n)
        problem = diffusion1d.Diffusion1DProblem(grid, strat)
        u0 = None if prev is None else np.interp(
            grid.cell_centers, prev[0].grid.cell_centers, prev[1])
        return problem, 1.0 / n, \
            lambda: solver.solve_diffusion_1d(problem, solver_cfg, u0=u0)
    return _run_study(strategies, sizes, level, VAR_NAMES_1D, out_dir,
                      "study-1d")


def run_study_3d(strategies, sizes=GRID_SIZES_3D, perturbation: float = 0.1,
                 seed: int = 0,
                 solver_cfg: solver.SolverConfig | None = None,
                 out_dir: str | None = None):
    """3D Navier-Stokes MMS convergence study; returns {name: record}.

    The default perturbation (0.1) and residual drop (7 orders) keep the
    mesh-to-mesh error-constant jitter and the iteration error both small
    against the discretization error on the finest default grid; larger
    perturbations or looser drops visibly pollute the observed orders.
    """
    meshes = {n: generate_tet_mesh(n, perturbation=perturbation, seed=seed + n)
              for n in sizes}

    def level(n, strat, prev):
        problem = ns3d.NS3DProblem(meshes[n], strat)
        return problem, meshes[n].n_cells ** (-1 / 3), \
            lambda: solver.solve_ns3d(problem, solver_cfg)
    return _run_study(strategies, sizes, level, VAR_NAMES_3D, out_dir,
                      "study-3d")


def _run_study(strategies, sizes, level, var_names, out_dir, study_name):
    """The strategy x level loop of both studies; a failed solve is a NaN row.

    ``level(n, strategy, prev)`` returns the level's problem, h_eff and a
    zero-argument solve.  The problem's ``exact`` cell values give the
    error and the row's cell count N.  ``prev`` is the (problem, solution)
    of the last converged level or None.  The strategies name the records,
    so ``strategy_list`` checks them before any solve.
    """
    records = {}
    for strat in strategy_list(strategies):
        rec = ConvergenceRecord(strat.name, var_names)
        prev = None
        for n in sizes:
            problem, h_eff, solve = level(n, strat, prev)
            try:
                sol, _ = solve()
                err = l1_error(sol, problem.exact)
                prev = (problem, sol)
            except (solver.NonConvergenceError, solver.SolverDivergenceError) as exc:
                log.warning("%s %s n=%d failed: %s", study_name, strat.name,
                            n, exc)
                err = np.full(len(var_names), np.nan)
            rec.add_row(f"n{n}", len(problem.exact), h_eff, err)
        records[strat.name] = rec
    if out_dir is not None:
        write_study_csv(records, out_dir, study_name)
    return records


def write_study_csv(records: dict, out_dir: str, study_name: str):
    """One CSV per strategy plus a summary with global slopes.

    Row schema: strategy,grid_label,N,h_eff,var,l1_error,pair_order
    (pair_order is empty on the coarsest row; comment lines start with '#').
    """
    os.makedirs(out_dir, exist_ok=True)
    orders = {name: [observed_orders(rec, v)
                     for v in range(len(rec.var_names))]
              for name, rec in records.items()}
    paths = []
    for name, rec in records.items():
        fname = os.path.join(out_dir,
                             f"{study_name}_{name.replace(':', '')}.csv")
        with open(fname, "w") as f:
            f.write(f"# {study_name} convergence table, strategy={name}\n")
            f.write("strategy,grid_label,N,h_eff,var,l1_error,pair_order\n")
            for i in range(rec.n_rows):
                for v, var in enumerate(rec.var_names):
                    p = "" if i == 0 else \
                        f"{orders[name][v].pairwise[i - 1]:.6f}"
                    f.write(f"{name},{rec.labels[i]},{rec.n_cells[i]},"
                            f"{rec.h_eff[i]:.8e},{var},"
                            f"{rec.errors[i][v]:.10e},{p}\n")
        paths.append(fname)

    summary = os.path.join(out_dir, f"{study_name}_summary.csv")
    with open(summary, "w") as f:
        f.write(f"# {study_name} global slopes "
                "(least-squares over the finest half) and finest-pair orders\n")
        f.write("strategy,var,global_slope,finest_pair_order\n")
        for name, rec in records.items():
            for var, (_, slope, pair) in zip(rec.var_names, orders[name]):
                f.write(f"{name},{var},{slope:.6f},{pair:.6f}\n")
    paths.append(summary)
    return paths
