"""Quick self-check of the harness on tiny passes.

1. Every workload's tiny pass runs untraced and twice traced, with every
   output check passing and every per-layer count equal across the two
   traced passes.
2. Every job's check accepts the real output and rejects the same output
   with one value changed, so no check passes vacuously.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import workloads
from run import OUT, ROOT

SEED = 7


def _bump(value: str) -> str:
    return str(Fraction(value) + 1)


def _mutate(out: str) -> str:
    """The output with one checked value changed."""
    text = out.strip()
    if text.startswith("{"):
        obj = json.loads(text)
        breakdown = obj.get("breakdown")
        if breakdown:
            entries = next(e for d, e in sorted(breakdown.items(), key=lambda x: -int(x[0])) if e)
            entries[0]["value"] = _bump(entries[0]["value"])
        elif "coefficients" in obj:
            obj["coefficients"][-1]["value"] = _bump(obj["coefficients"][-1]["value"])
        elif "traces" in obj:
            obj["traces"].pop()
        else:
            obj["C_k"] = str(int(obj["C_k"]) + 1)
        return json.dumps(obj)
    lines = text.splitlines()
    if "\t" in lines[-1]:
        fields = lines[-1].split("\t")
        fields[3] = _bump(fields[3])
        lines[-1] = "\t".join(fields)
    elif "," in lines[-1]:
        d, value = lines[-1].split(",")
        lines[-1] = f"{d},{_bump(value)}"
    else:
        lines[-1] = _bump(lines[-1])
    return "\n".join(lines) + "\n"


def _checks_have_teeth() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    from hypersachs import cli

    problems = []
    for name in workloads.WORKLOADS:
        host_dir = OUT / "selfcheck" / name
        host_dir.mkdir(parents=True, exist_ok=True)
        jobs = workloads.WORKLOADS[name](host_dir, random.Random(SEED), True)
        outputs = {}
        for job in jobs:
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli.dispatch(job.argv)
            if rc != 0:
                problems.append(f"{name}/{job.name}: exit {rc}")
            outputs[job.name] = buf.getvalue()
        for job in jobs:
            if job.check(outputs[job.name], outputs) is not None:
                problems.append(f"{name}/{job.name}: check rejects the real output")
            if job.check(_mutate(outputs[job.name]), outputs) is None:
                problems.append(f"{name}/{job.name}: check accepts a changed output")
    return problems


def main(run_pass) -> int:
    from tracer import PER_LAYER

    problems = []
    for name in workloads.WORKLOADS:
        plain = run_pass(name, SEED, False, small=True)
        traced = [run_pass(name, SEED, True, small=True) for _ in range(2)]
        for p in [plain] + traced:
            problems += [f"{name}: {f}" for f in p["failures"]]
        for metric, unit in PER_LAYER.items():
            values = [t["layers"].get(metric) for t in traced]
            if unit == "count" and values[0] != values[1]:
                problems.append(f"{name}: {metric} differs between traced passes: {values}")
        print(f"{name}: {plain['attempted']} jobs, {plain['wall_s']:.3f} s untraced, "
              f"{traced[0]['layers']['trace.spans']} spans traced")
    problems += _checks_have_teeth()
    for p in problems:
        print(f"SELF-CHECK FAILED {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0
