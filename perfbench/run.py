"""fvvisc benchmark: time from set-up to an order-of-accuracy verdict.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of an fvvisc checkout.  Each run starts fresh Python
processes with BLAS pinned to one thread.  With ``--trace 0`` it reports the
end-to-end metrics (set-up time, solve time) and checks every
L1 error against the reference recorded in ``reference.json``; with
``--trace 1`` it wraps the package's module attributes from outside and
reports per-layer times and counts.  Human-readable lines come first; the
last line of standard output is one JSON object.  The exit code is 1 when an
error differs from the reference and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("study1d-ensemble", "ns3d-n7-strategies", "ns3d-n11-solve")
POOL = 16                 # --seed selects inputs by seed % POOL
# Set-up sampling: SETUP_RUNS fresh processes per untraced run (one of them
# also solves), each repeating the set-up back to back for at least
# SETUP_SECONDS and reporting the time per set-up; the run reports the
# median process.  The 3D set-up runs once per process, because a second
# one would reuse the cached symbolic forcing; the 1D one takes tens of
# milliseconds, so it is repeated until host noise averages out.
SETUP_RUNS = {"study1d-ensemble": 5, "ns3d-n7-strategies": 3,
              "ns3d-n11-solve": 3}
SETUP_SECONDS = {"study1d-ensemble": 1.0, "ns3d-n7-strategies": 0.0,
                 "ns3d-n11-solve": 0.0}
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, worker failure)."""


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload, pool_index, phase, *, trace=0, seconds=0.0,
               smoke=False, spans=None, inject_failure=-1):
    """Run worker.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--pool-index", str(pool_index),
           "--phase", phase, "--trace", str(trace), "--seconds", str(seconds),
           "--setup-seconds", str(SETUP_SECONDS[workload])]
    if smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", spans]
    if inject_failure >= 0:
        cmd += ["--inject-failure", str(inject_failure)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(
            f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def output_rtol(target_drop):
    """Relative tolerance on an L1 error for a residual drop of d orders.

    10^(-d/2): see README.md for the derivation and the measurements that
    bound it.
    """
    return 10.0 ** (-target_drop / 2.0)


def check_outcomes(outcomes, reference, rtol):
    """Compare solve outcomes with the recorded reference.

    Returns a dict with the labels of mismatched solves (converged with an
    error off the reference, or converged where the reference did not),
    of expected non-converged solves (the reference did not converge
    either) and of unexpected failures (the reference converged).
    """
    mismatched, expected_fail, unexpected_fail = [], [], []
    for o in outcomes:
        if o["label"] not in reference:
            raise BenchmarkError(f"no reference for solve {o['label']!r}")
        ref = reference[o["label"]]
        if o["errors"] is None:
            (expected_fail if ref is None else unexpected_fail).append(
                o["label"])
        elif ref is None or any(abs(e - r) > rtol * abs(r)
                                for e, r in zip(o["errors"], ref, strict=True)):
            mismatched.append(o["label"])
    return {"mismatched": mismatched, "expected_failures": expected_fail,
            "unexpected_failures": unexpected_fail}


def load_reference(workload, smoke):
    """({solve label: errors or None}, whole reference file)."""
    with open(REFERENCE) as f:
        ref = json.load(f)
    key = ("smoke:" if smoke else "") + workload
    if key not in ref["workloads"]:
        raise BenchmarkError(f"reference.json has no entry for {key}")
    return ref["workloads"][key], ref


def environment(worker_env):
    """Machine, library and source identification for every result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": {v: BLAS_THREADS for v in THREAD_VARS},
            **worker_env, "commit": git_commit()}


def git_commit():
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    # The ceiling keeps git from reporting a repository that encloses ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload, seed, seconds, trace, smoke=False, inject_failure=-1):
    """Run one workload; returns (report dict, final JSON result)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "fvvisc", "__init__.py")):
        raise BenchmarkError(f"no fvvisc sources under {ROOT}/src")
    pool_index = seed % POOL
    reference, ref_file = load_reference(workload, smoke)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}{'-smoke' if smoke else ''}-seed{seed}-trace{trace}"
    spans = os.path.join(OUT_DIR, tag + ".spans.npz") if trace else None
    full = run_worker(workload, pool_index, "full", trace=trace,
                      seconds=seconds, smoke=smoke, spans=spans,
                      inject_failure=inject_failure)
    setups = [full["setup_s"]]
    if not trace:
        setups += [run_worker(workload, pool_index, "setup",
                              smoke=smoke)["setup_s"]
                   for _ in range(SETUP_RUNS[workload] - 1)]

    rtol = output_rtol(ref_file["target_drop"][workload])
    check = check_outcomes(full["outcomes"], reference, rtol)
    attempted = len(full["outcomes"])
    n_failed = len(check["expected_failures"]) + len(
        check["unexpected_failures"])
    converged = attempted - n_failed
    report = {
        "workload": workload, "seed": seed, "pool_index": pool_index,
        "smoke": smoke, "trace": trace, "env": environment(full["env"]),
        "setup_s_runs": setups, "solve_s_units": full["solve_s"],
        "peak_rss_mb": full["peak_rss_mb"],
        "output_rtol": rtol, "attempted": attempted,
        "failed_frac": n_failed / attempted,
        "mismatch_frac": len(check["mismatched"]) / converged if converged
        else 0.0,
        **check, "verdict": full["verdict"], "outcomes": full["outcomes"],
    }
    if trace:
        report.update(layers=full["layers"], absent=full["absent"],
                      spans_file=os.path.relpath(spans, ROOT),
                      self_min_s=full["self_min_s"])
        metrics = {name: {"value": 0.0 if m["value"] is None else m["value"],
                          "unit": m["unit"]}
                   for name, m in full["layers"].items()}
        metrics["trace.solve_s"] = {
            "value": statistics.median(full["solve_s"]), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": statistics.median(full["solve_s"]),
                        "unit": "s"},
        }
    result = {"correct": not check["mismatched"], "attempted": attempted,
              "failed": len(check["unexpected_failures"]), "metrics": metrics}
    report["result"] = result
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as f:
        json.dump(report, f, indent=1)
    return report, result


def print_report(report):
    env = report["env"]
    print(f"workload {report['workload']} seed {report['seed']} "
          f"(pool index {report['pool_index']}) trace {report['trace']}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()
                             if k != "blas_threads")
          + f" blas_threads={BLAS_THREADS}")
    for name, m in report["result"]["metrics"].items():
        absent = report.get("layers", {}).get(name, {}).get("value", 0) is None
        print(f"{name}: {m['value']:.6g} {m['unit']}"
              + (" (absent)" if absent else ""))
    print(f"peak_rss_mb: {report['peak_rss_mb']:.1f} MB (not a bounded metric)")
    print(f"failed_frac: {report['failed_frac']:.4g} "
          f"({len(report['expected_failures'])} expected, "
          f"{len(report['unexpected_failures'])} unexpected "
          f"of {report['attempted']} solves)")
    for label in report["expected_failures"]:
        print(f"  non-converged (as in the reference): {label}")
    for label in report["unexpected_failures"]:
        print(f"  non-converged (the reference converged): {label}")
    print(f"mismatch_frac: {report['mismatch_frac']:.4g} "
          f"(rtol {report['output_rtol']:.3g})")
    for label in report["mismatched"]:
        print(f"  mismatch: {label}")
    for name, order in report["verdict"].items():
        print(f"order {name}: {order:.3f}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="'all' runs every workload in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    code = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            report, result = run(workload, args.seed, args.seconds,
                                 args.trace)
        except BenchmarkError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print_report(report)
        print(json.dumps(result), flush=True)
        code = code or (0 if result["correct"] else 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
