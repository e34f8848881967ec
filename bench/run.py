"""Benchmark entry point for orelab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a single worker process with one thread and prints,
as its last line, one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones, also written to
bench/out/trace-<workload>-seed<N>.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("catalog-batch", "profile-ladder", "law-suite", "guard-order")
# set-up is measured in this many processes, the timed one included
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

UNITS = {"wall_s": "s", "cpu_s": "s", "slowest_item_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("ORELAB_GUARD_ORDER", "ORELAB_GUARD_BRUTEFORCE", "PYTHONPATH"):
        env.pop(var, None)
    return env


def _worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)] + extra,
                            stdout=subprocess.PIPE, env=_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker ran past the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(args, ["--setup-only"], deadline)["setup_s"])
    res = _worker(args, [], deadline)
    setups.append(res["setup_s"])
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in res["metrics"].items()}
    else:
        values = dict(res["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
