"""Record the reference L1 errors that run.py checks every solve against.

    python3 perfbench/record_reference.py [KEY ...]

Runs each workload (KEY is a workload name or ``smoke:<workload>``; all of
them by default) untraced for every pool index and writes its entry of
``perfbench/reference.json``: the L1 errors of every solve by label, null
for a solve that did not converge.  A solve that appears under two pool
indices must give identical errors both times.  Re-record only when a
change is meant to alter what the studies report, and say so in that
change.
"""

from __future__ import annotations

import argparse
import json
from concurrent.futures import ThreadPoolExecutor

import run

JOBS = 2                  # worker processes at a time


def record(key, pool_index):
    smoke = key.startswith("smoke:")
    return run.run_worker(key.split(":")[-1], pool_index, "full", smoke=smoke)


def main(argv=None):
    all_keys = [p + w for p in ("smoke:", "") for w in run.WORKLOADS]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("keys", nargs="*", metavar="KEY")
    args = p.parse_args(argv)
    args.keys = args.keys or all_keys
    for key in set(args.keys) - set(all_keys):
        p.error(f"unknown key {key!r}; valid: {', '.join(all_keys)}")
    try:
        with open(run.REFERENCE) as f:
            ref = json.load(f)
    except FileNotFoundError:
        ref = {"workloads": {}, "target_drop": {}}
    for key in args.keys:
        with ThreadPoolExecutor(JOBS) as pool:
            outs = list(pool.map(lambda i: record(key, i), range(run.POOL)))
        rows = {}
        for out in outs:
            for o in out["outcomes"]:
                if rows.setdefault(o["label"], o["errors"]) != o["errors"]:
                    raise SystemExit(f"{key} {o['label']}: not repeatable")
        ref["workloads"][key] = rows
        ref["target_drop"][key.split(":")[-1]] = outs[0]["target_drop"]
        ref.update(commit=run.git_commit(), env=outs[0]["env"])
        with open(run.REFERENCE, "w") as f:
            json.dump(ref, f, indent=0, sort_keys=True)
        print(f"recorded {key}: {len(rows)} solves", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
