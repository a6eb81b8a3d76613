"""Discretization-error norms, observed order, and convergence studies.

A study runs one solve per (strategy, grid), records per-variable L1 errors
against the exact solution, and derives pairwise observed orders plus a
least-squares slope over the finest half of the grid family.  Rows whose
solve does not converge are tagged as failed (NaN error) instead of aborting
the study.  Results are emitted as gnuplot-compatible CSV.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

import numpy as np

from . import diffusion1d, ns3d, solver
from .mesh import generate_grid_1d, generate_tet_mesh
from .recon import Strategy

log = logging.getLogger(__name__)

VAR_NAMES_1D = ("u",)
VAR_NAMES_3D = ("rho", "u", "v", "w", "T")


class DegenerateOrderError(Exception):
    """Observed order is undefined (zero error row or too few rows)."""


def l1_error(solution: np.ndarray, exact: np.ndarray,
             volumes: np.ndarray | None = None) -> np.ndarray:
    """Per-variable L1 norm of the discretization error.

    Unweighted cell average by default; pass ``volumes`` for a
    volume-weighted integral norm (orders are identical for shape-regular
    families, only constants shift).  Arrays are (N,) or (N, m); returns a
    length-m array (m = 1 for 1D).
    """
    solution = np.atleast_2d(np.asarray(solution, dtype=float).T).T
    exact = np.atleast_2d(np.asarray(exact, dtype=float).T).T
    if solution.shape != exact.shape:
        raise ValueError(
            f"shape mismatch: {solution.shape} vs {exact.shape}")
    err = np.abs(solution - exact)
    if volumes is None:
        return err.mean(axis=0)
    volumes = np.asarray(volumes, dtype=float)
    return (err * volumes[:, None]).sum(axis=0) / volumes.sum()


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


def observed_order(record: ConvergenceRecord, variable=0):
    """Pairwise observed orders and the global least-squares slope.

    Pairwise order between consecutive rows:
    log(e_coarse/e_fine) / log(h_coarse/h_fine).  The global slope is a
    least-squares fit of log e vs log h over the finest ceil(rows/2) rows,
    NaN when fewer than two of them converged (always so with two rows).
    Failed (NaN) rows are ignored in the global fit and produce NaN pairwise
    entries.  Raises DegenerateOrderError on zero errors or fewer than two
    rows.
    """
    if record.n_rows < 2:
        raise DegenerateOrderError("need at least 2 rows")
    e = record.error_column(variable)
    h = np.asarray(record.h_eff)
    if np.any(e[np.isfinite(e)] <= 0.0):
        raise DegenerateOrderError(
            "zero error on a row (exact solution hit); order undefined")
    with np.errstate(invalid="ignore", divide="ignore"):
        pair = np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:])
    half = slice(record.n_rows - (record.n_rows + 1) // 2, record.n_rows)
    eh, hh = e[half], h[half]
    keep = np.isfinite(eh)
    if keep.sum() < 2:
        return pair, float("nan")
    slope = float(np.polyfit(np.log(hh[keep]), np.log(eh[keep]), 1)[0])
    return pair, slope


def finest_pair_order(record: ConvergenceRecord, variable=0) -> float:
    """Observed order between the two finest converged rows.

    This is the quantity checked against the acceptance bands (±0.2 around
    the nominal order in 1D, ±0.3 in 3D).
    """
    e = record.error_column(variable)
    h = np.asarray(record.h_eff)
    keep = np.isfinite(e)
    if keep.sum() < 2:
        raise DegenerateOrderError("fewer than 2 converged rows")
    e, h = e[keep], h[keep]
    if e[-1] <= 0.0 or e[-2] <= 0.0:
        raise DegenerateOrderError("zero error row; order undefined")
    return float(np.log(e[-2] / e[-1]) / np.log(h[-2] / h[-1]))


# ---------------------------------------------------------------------------
# Study orchestration
# ---------------------------------------------------------------------------

GRID_SIZES_1D = (7, 11, 15, 19, 23, 31, 47, 63)
GRID_SIZES_3D = (7, 11, 15)


def run_study_1d(strategies, sizes=GRID_SIZES_1D, perturbation: float = 0.3,
                 seed: int = 0,
                 solver_cfg: solver.SolverConfig | None = None,
                 volume_weighted: bool = False,
                 out_dir: str | None = None):
    """1D nonlinear-diffusion convergence study; returns {name: record}.

    Level n draws its grid with seed ``seed + n``, so that grid can be
    regenerated in isolation, but past the first level not its row: each
    solve is warm-started from the interpolated previous-level solution,
    which keeps the solver on the same solution branch across the family.
    """
    if solver_cfg is None:
        solver_cfg = solver.SolverConfig()
    records = {}
    for strat in _as_strategies(strategies):
        rec = ConvergenceRecord(strat.name, VAR_NAMES_1D)
        prev = None   # (grid, u) of the last converged level
        for n in sizes:
            grid = generate_grid_1d(n, perturbation=perturbation, seed=seed + n)
            problem = diffusion1d.Diffusion1DProblem(grid, strat)
            u0 = None
            if prev is not None:
                u0 = np.interp(grid.cell_centers, prev[0].cell_centers,
                               prev[1])
            try:
                u, _ = solver.solve_diffusion_1d(problem, solver_cfg, u0=u0)
                err = l1_error(u, diffusion1d.exact_solution(grid.cell_centers),
                               grid.cell_volumes if volume_weighted else None)
                prev = (grid, u)
            except (solver.NonConvergenceError, solver.SolverDivergenceError) as exc:
                log.warning("1D %s n=%d failed: %s", strat.name, n, exc)
                err = np.full(1, np.nan)
            rec.add_row(f"n{n}", n, 1.0 / n, err)
        records[strat.name] = rec
    if out_dir is not None:
        write_study_csv(records, out_dir, "study-1d")
    return records


def run_study_3d(strategies, sizes=GRID_SIZES_3D, perturbation: float = 0.1,
                 seed: int = 0,
                 solver_cfg: solver.SolverConfig | None = None,
                 volume_weighted: bool = False,
                 out_dir: str | None = None):
    """3D Navier-Stokes MMS convergence study; returns {name: record}.

    The default perturbation (0.1) and residual drop (7 orders) keep the
    mesh-to-mesh error-constant jitter and the iteration error both small
    against the discretization error on the finest default grid; larger
    perturbations or looser drops visibly pollute the observed orders.
    """
    if solver_cfg is None:
        solver_cfg = solver.NS3D_CONFIG
    meshes = {n: generate_tet_mesh(n, perturbation=perturbation, seed=seed + n)
              for n in sizes}
    records = {}
    for strat in _as_strategies(strategies):
        rec = ConvergenceRecord(strat.name, VAR_NAMES_3D)
        for n in sizes:
            mesh = meshes[n]
            problem = ns3d.NS3DProblem(mesh, strat)
            try:
                w, _ = solver.solve_ns3d(problem, solver_cfg)
                err = l1_error(w, problem.exact,
                               mesh.cell_volume if volume_weighted else None)
            except (solver.NonConvergenceError, solver.SolverDivergenceError) as exc:
                log.warning("3D %s n=%d failed: %s", strat.name, n, exc)
                err = np.full(5, np.nan)
            nc = mesh.n_cells
            rec.add_row(f"n{n}", nc, nc ** (-1.0 / 3.0), err)
        records[strat.name] = rec
    if out_dir is not None:
        write_study_csv(records, out_dir, "study-3d")
    return records


def _as_strategies(strategies):
    return [s if isinstance(s, Strategy) else Strategy.from_name(s)
            for s in strategies]


def write_study_csv(records: dict, out_dir: str, study_name: str):
    """One CSV per strategy plus a summary with global slopes.

    Row schema: strategy,grid_label,N,h_eff,var,l1_error,pair_order
    (pair_order is empty on the coarsest row; comment lines start with '#').
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, rec in records.items():
        fname = os.path.join(out_dir,
                             f"{study_name}_{name.replace(':', '')}.csv")
        with open(fname, "w") as f:
            f.write(f"# {study_name} convergence table, strategy={name}\n")
            f.write("strategy,grid_label,N,h_eff,var,l1_error,pair_order\n")
            pairs = {}
            for v, var in enumerate(rec.var_names):
                try:
                    pairs[var], _ = observed_order(rec, v)
                except DegenerateOrderError:
                    pairs[var] = np.full(rec.n_rows - 1, np.nan)
            for i in range(rec.n_rows):
                for v, var in enumerate(rec.var_names):
                    p = "" if i == 0 else f"{pairs[var][i - 1]:.6f}"
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
            for v, var in enumerate(rec.var_names):
                try:
                    _, slope = observed_order(rec, v)
                    pair = finest_pair_order(rec, v)
                    f.write(f"{name},{var},{slope:.6f},{pair:.6f}\n")
                except DegenerateOrderError:
                    f.write(f"{name},{var},nan,nan\n")
    paths.append(summary)
    return paths
