"""One benchmark process: set up a workload and, unless asked for set-up
only, solve it.  Prints one JSON object on its last line of output.

Started by run.py with BLAS pinned to one thread and ``src`` on the path;
not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import fvvisc  # noqa: F401  (set-up is timed from after this import)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--pool-index", type=int, required=True)
    p.add_argument("--phase", choices=("setup", "full"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--setup-seconds", type=float, default=0.0,
                   help="repeat the set-up for at least this long")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spans", help="file the traced run writes its spans to")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--inject-failure", type=int, default=-1,
                   help="make the k-th solve fail to converge (tests only)")
    args = p.parse_args(argv)

    import workloads
    workloads.quiet_study_logs()
    spec = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[
        args.workload]

    if args.trace:
        from tracing import METRICS, Tracer
        tracer = Tracer()
        # Where the solve builds its inputs again, the set-up stays untraced,
        # so that each grid is counted once.
        untraced = _setup(spec, args) if spec.setup_in_solve else None
        with tracer.installed():
            out, state = untraced or _setup(spec, args)
            out.update(_solve(spec, state, args))
        out["layers"] = {name: {"value": v, "unit": METRICS[name][0]}
                         for name, v in tracer.layer_metrics().items()}
        out["absent"] = tracer.absent
        if args.spans:
            tracer.write(args.spans)
        self_t = tracer.span_arrays()[3]
        out["self_min_s"] = float(self_t.min()) if len(self_t) else 0.0
    else:
        out, state = _setup(spec, args)
        if args.phase == "full":
            out.update(_solve(spec, state, args))
    out["target_drop"] = workloads.TARGET_DROP[args.workload]
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = _versions()
    print(json.dumps(out))
    return 0


def _setup(spec, args):
    """Set up back to back for --setup-seconds (at least once, and only once
    when traced); returns the time per set-up and the last set-up's state."""
    seconds = 0.0 if args.trace else args.setup_seconds
    count = 0
    start = time.perf_counter()
    while True:
        state = spec.setup(args.pool_index)
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return {"setup_s": elapsed / count}, state


def _solve(spec, state, args):
    if args.inject_failure >= 0:
        _inject_failure(args.inject_failure)
    # Repeat the solve phase until --seconds have passed; a traced run solves
    # once, so that its per-layer counts do not depend on machine speed.
    seconds = 0.0 if args.trace else args.seconds
    solve_s, outcomes = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        unit, verdict = spec.solve(state)
        solve_s.append(time.perf_counter() - t)
        outcomes.extend(unit)
        if time.perf_counter() - start >= seconds:
            break
    return {"solve_s": solve_s, "verdict": verdict,
            "outcomes": [vars(o) for o in outcomes]}


def _inject_failure(k):
    """Make the k-th nonlinear solve of the run raise NonConvergenceError."""
    from fvvisc import solver
    original = solver.solve_defect_correction
    count = [0]

    def failing(*args, **kwargs):
        count[0] += 1
        if count[0] - 1 == k:
            raise solver.NonConvergenceError("injected by the benchmark test",
                                             solver.IterationHistory())
        return original(*args, **kwargs)
    solver.solve_defect_correction = failing


def _versions():
    from importlib import metadata

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "sympy": metadata.version("sympy"),
            "blas": f"{blas.get('name')} {blas.get('version')}"}


if __name__ == "__main__":
    sys.exit(main())
