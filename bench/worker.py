"""One benchmark process: set up a workload, run timed passes, check.

Started by run.py, which passes the monotonic time at which it spawned
this process, so that set-up time covers the interpreter start too.
Prints report hashes, then one JSON line for run.py to read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("bench") / "out"


def _import_orelab():
    src = ROOT / "src"
    if not (src / "orelab" / "__init__.py").is_file():
        raise SystemExit(f"no orelab package under {src}")
    sys.path.insert(0, str(src))
    import orelab

    if Path(orelab.__file__).resolve().parent != (src / "orelab").resolve():
        raise SystemExit(f"imported orelab from {orelab.__file__}, not from {src}")
    return orelab


class Runner:
    """Runs passes of a workload and keeps what they measured."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.item_s: dict[str, list[float]] = {}
        self.reports: dict[tuple[str, int], str] = {}

    def run_pass(self, variant: int) -> tuple[float, float]:
        """One round of every operation; returns (wall s, CPU s)."""
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for op in self.wl.ops(variant):
            t0 = time.perf_counter()
            try:
                failed, text = op.run()
            except Exception as e:  # an op that raises is a failed op, not a crash
                failed, text = op.weight, ""
                self.errors.append(f"{op.label} v{variant} raised {type(e).__name__}: {e}")
            self.item_s.setdefault(op.label, []).append(time.perf_counter() - t0)
            self.attempted += op.weight
            self.failed += failed
            self.reports[(op.label, variant)] = hashlib.sha256(text.encode()).hexdigest()
        return time.perf_counter() - wall0, time.process_time() - cpu0


def _variant(k: int, relabels: bool) -> int:
    return k % 2 if relabels else 0


def timed(runner: Runner, seconds: float) -> dict:
    """Whole passes, at least one per relabelling, until less than half a
    pass of the run time is left."""
    walls, cpus = [], []
    begin = time.perf_counter()
    while True:
        wall, cpu = runner.run_pass(_variant(len(walls), runner.wl.relabels))
        walls.append(wall)
        cpus.append(cpu)
        left = seconds - (time.perf_counter() - begin)
        if len(walls) >= 2 and left < statistics.median(walls) / 2:
            break
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "slowest_item_s": max(statistics.median(v) for v in runner.item_s.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(runner: Runner, seconds: float, law_names) -> tuple[dict, dict]:
    """Pairs of an untraced and a traced pass on the same variant.

    Times are per traced pass; counts and ratios are those of the first
    traced pass, so they repeat exactly for a seed.
    """
    import tracer as tr

    t = tr.Tracer()
    snaps, functions, overheads, pair_walls = [], None, [], []
    begin = time.perf_counter()
    k = 0
    while True:
        variant = _variant(k, runner.wl.relabels)
        plain, _ = runner.run_pass(variant)
        t.reset()
        t.install()
        try:
            with_spans, _ = runner.run_pass(variant)
        finally:
            t.uninstall()
        snaps.append(t.snapshot())
        if functions is None:
            functions = {key: {"calls": c, "self_s": s, "total_s": tot}
                         for key, (c, s, tot) in sorted(t.functions.items())}
        overheads.append(with_spans - plain)
        pair_walls.append(plain + with_spans)
        k += 1
        if seconds - (time.perf_counter() - begin) < statistics.median(pair_walls) / 2:
            break
    metrics = {}
    for name in tr.per_layer_names(law_names):
        if name.endswith("_s"):
            metrics[name] = sum(s.get(name, 0.0) for s in snaps) / len(snaps)
        else:
            metrics[name] = snaps[0].get(name, 0)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return metrics, {"pairs": k, "functions_first_traced_pass": functions}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    os.chdir(ROOT)
    orelab = _import_orelab()
    import workloads

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        wl.setup()
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s}
        if not args.setup_only:
            runner = Runner(wl)
            law_names = [name for name, _ in orelab.LAW_REGISTRY.values()]
            if args.trace:
                metrics, detail = traced(runner, args.seconds, law_names)
            else:
                metrics, detail = timed(runner, args.seconds), {}
            errors = list(runner.errors)
            try:
                errors += wl.check()
            except Exception:
                errors.append("check raised:\n" + traceback.format_exc())
            for (label, variant), digest in sorted(runner.reports.items()):
                print(f"report {label} v{variant} sha256 {digest}")
            result.update(correct=not errors, attempted=runner.attempted, failed=runner.failed,
                          metrics=metrics, errors=errors)
            if args.trace:
                path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                               **detail}, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                print(f"trace written to {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
