"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/passrun.py WORKLOAD SEED TRACE LAUNCH OUT_DIR [--small] [--setup-only]

LAUNCH is the parent's time.monotonic() just before it started this
interpreter; set-up ends when the CLI is imported and the host files are
written.  Jobs run one at a time through hypersachs.cli.dispatch, with their
output captured; the output checks run after the last job, outside the timed
pass (traced, with job id "check:<job>", since the k=2 oracle runs there).
The result is one JSON object on stdout.
"""

from __future__ import annotations

import io
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hypersachs import cli  # noqa: E402

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, trace, launch, out_dir = argv[0], int(argv[1]), argv[2] == "1", float(argv[3]), Path(argv[4])
    small = "--small" in argv[5:]
    host_dir = out_dir / "hosts" / f"{workload}-s{seed}"
    host_dir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.WORKLOADS[workload](host_dir, random.Random(seed), small)
    setup_s = time.monotonic() - launch
    result: dict = {"setup_s": setup_s}
    if "--setup-only" in argv[5:]:
        print(json.dumps(result))
        return 0

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    real_out, real_err = sys.stdout, sys.stderr
    outputs: dict[str, str] = {}
    times: dict[str, float] = {}
    problems: dict[str, str] = {}  # job name -> why it failed
    first = last = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = job.name
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        start = time.perf_counter()
        if i == 0:
            first = start
        try:
            rc = cli.dispatch(job.argv)
        except Exception as exc:  # a job that raises is a failed job, not a crashed pass
            rc = f"raised {type(exc).__name__}: {exc}"
        finally:
            last = time.perf_counter()
            sys.stdout, sys.stderr = real_out, real_err
        times[job.name] = last - start
        outputs[job.name] = out.getvalue()
        if rc != 0:
            problems[job.name] = f"exit {rc}: {err.getvalue().strip()[:300]}"

    for job in jobs:
        if job.name in problems:
            continue
        if tracer is not None:
            tracer.job = f"check:{job.name}"
        try:
            problem = job.check(outputs[job.name], outputs)
        except Exception as exc:  # unparsable output fails the check
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            problems[job.name] = problem

    result.update(
        wall_s=last - first,
        job_s=times,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=len(jobs),
        failed=len(problems),
        failures=[f"{name}: {why}" for name, why in problems.items()],
    )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        span_dir = out_dir / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(span_dir / f"{workload}-s{seed}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
