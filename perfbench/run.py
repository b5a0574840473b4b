"""Benchmark of the hypersachs CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-check

Each workload is a fixed list of CLI jobs run through hypersachs.cli.dispatch
on host files generated from --seed.  A pass runs the whole list once, one job
at a time (a closed loop with one client), in a fresh interpreter, so every
pass starts with cold caches while the jobs of one pass share them.  Passes
repeat until --seconds is used up; timings are medians over passes, because
the same pass varies by well over 10% from one pass to the next on a shared
machine.  Every job's output is checked; a failed check makes the run
incorrect and the exit code 1.

With --trace 0 the run reports the end-to-end metrics:
  wall_s         median seconds from the first job's start to the last job's end
  slowest_job_s  median time of the slowest job, the one with the largest
                 median (the user's wait for the deepest table)
  setup_s        median seconds from launching an interpreter until the first
                 job is ready (import hypersachs, write the host files)
  peak_rss_mb    median peak resident memory of a pass process
and the share of failed jobs through `attempted` and `failed`.

With --trace 1, untraced and traced passes alternate; the traced ones wrap
each layer's public functions (see tracer.py) and the run reports the
per-layer metrics of tracer.PER_LAYER: medians over the traced passes, whose
counts repeat exactly for one seed, plus trace.overhead_s, the median of
traced minus untraced wall_s over adjacent pairs of passes.

Which layer metric should move which end-to-end metric, and the seed
commit's figures, are in baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
END_TO_END = {"wall_s": "s", "slowest_job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_LAUNCHES = 5
PASS_TIMEOUT_S = 120


def _pass(workload: str, seed: int, trace: bool, small: bool = False, setup_only: bool = False) -> dict:
    argv = [sys.executable, str(HERE / "passrun.py"), workload, str(seed), "1" if trace else "0"]
    flags = (["--small"] if small else []) + (["--setup-only"] if setup_only else [])
    launch = time.monotonic()
    proc = subprocess.run(
        argv + [repr(launch), str(OUT)] + flags,
        capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - launch
    return result


def _tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return "no percentile has ten samples above it"
    return f"p{100 * (n - 10) / n:.0f} = {sorted(values)[n - 11]:.6g}"


def _measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes until `seconds` are used up; a new pass starts only if a
    pass of median length still fits."""
    start = time.monotonic()
    setups = [_pass(workload, seed, False, setup_only=True)["setup_s"] for _ in range(SETUP_LAUNCHES)]
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        side = traced if trace and len(traced) < len(plain) else plain
        side.append(_pass(workload, seed, side is traced))
        if not trace or traced:
            pass_s = statistics.median(p["elapsed_s"] for p in plain + traced)
            if time.monotonic() - start + pass_s > seconds:
                return {"setups": setups, "plain": plain, "traced": traced}


def _report(workload: str, seed: int, trace: bool, m: dict) -> dict:
    plain, traced = m["plain"], m["traced"]
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    job_samples = {name: [p["job_s"][name] for p in plain] for name in plain[0]["job_s"]}
    slowest = max(job_samples, key=lambda name: statistics.median(job_samples[name]))
    samples = {
        "wall_s": [p["wall_s"] for p in plain],
        "slowest_job_s": job_samples[slowest],
        "setup_s": m["setups"] + [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"passes {len(plain)} untraced, {len(traced)} traced")
    for f in failures:
        print(f"  FAILED {f}")
    print(f"  fail_frac = {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    metrics: dict[str, dict] = {}
    if not trace:
        for name, unit in END_TO_END.items():
            vals = samples[name]
            value = statistics.median(vals)
            print(f"  {name} = {value:.6g} {unit}  (median of {len(vals)}; {_tail(vals)})")
            metrics[name] = {"value": value, "unit": unit}
        print(f"  slowest job: {slowest}")
    else:
        from tracer import PER_LAYER

        layer_runs = [p["layers"] for p in traced]
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                # passes alternate, so each traced pass is paired with the
                # untraced pass run just before it
                value = statistics.median(t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced))
            elif all(name in run for run in layer_runs):
                vals = [run[name] for run in layer_runs]
                if unit == "count":
                    value = statistics.median_low(vals)
                    if len(set(vals)) > 1:
                        print(f"  WARNING {name} differs between traced passes: {vals}")
                else:
                    value = statistics.median(vals)
            else:
                print(f"  {name}: absent (its target no longer exists)")
                continue
            print(f"  {name} = {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        busy = {n: v["value"] for n, v in metrics.items() if n.endswith("self_s") or n == "traces.walk_s"}
        if busy:
            print(f"  largest self time: {max(busy, key=busy.get)}")
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, trace=int(trace), samples=samples, failures=failures)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{workload}-s{seed}-t{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true", help="check the harness on tiny passes")
    args = ap.parse_args()
    if not (ROOT / "src" / "hypersachs" / "cli.py").is_file():
        print(f"error: no hypersachs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.self_check:
        import selfcheck

        return selfcheck.main(_pass)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = _report(name, args.seed, bool(args.trace), _measure(name, args.seed, args.seconds, bool(args.trace)))
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
