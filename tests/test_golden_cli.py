"""CLI stdout and exit codes, byte for byte, against recorded output.

Each case runs one command in process with its host on stdin.  The expected
bytes live in golden_cli.json beside this file; `python tests/test_golden_cli.py`
rewrites that file from the current code, so record only from a tree whose
output is known good.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

from hypersachs.cli import dispatch

GOLDEN = Path(__file__).with_name("golden_cli.json")
FORMATS = ("human", "csv", "structured")


def _doc(k: int, n: int, edges) -> str:
    return f"k={k} n={n}\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges)


EDGE = _doc(3, 3, [(1, 2, 3)])
K43 = _doc(3, 4, combinations(range(1, 5), 3))
EMPTY = _doc(3, 3, [])
SIMPLEX4 = _doc(4, 5, combinations(range(1, 6), 4))


def _cases() -> dict[str, tuple[list[str], str]]:
    """Case id -> (argv, stdin)."""
    cases = {}
    for fmt in FORMATS:
        for label, doc, dmax in (("edge", EDGE, "9"), ("k43", K43, "6")):
            for extra in ([], ["--with-breakdown"]):
                argv = ["coeffs", "--input", "-", "--max-codegree", dmax, "--format", fmt, *extra]
                cases[f"coeffs-{label}-{fmt}{'-breakdown' if extra else ''}"] = (argv, doc)
        cases[f"coeffs-edge-{fmt}-named"] = (
            ["coeffs", "--input", "-", "--max-codegree", "3", "--name", "edge", "--format", fmt], EDGE)
        for label, doc in (("edge", EDGE), ("empty", EMPTY)):
            argv = ["threshold", "--input", "-", "--max-codegree", "12", "--format", fmt]
            cases[f"threshold-{label}-{fmt}"] = (argv, doc)
        for extra in ([], ["--report-asymptotics"]):
            argv = ["simplex-ck", "--k", "5", "--format", fmt, *extra]
            cases[f"simplex-ck-5-{fmt}{'-asymptotics' if extra else ''}"] = (argv, "")
    cases["assoc-coeff-simplex4"] = (["assoc-coeff", "--input", "-"], SIMPLEX4)
    # class digests, line order and representatives, byte for byte
    cases["atlas-export-k3-d5"] = (["atlas-export", "--k", "3", "--max-codegree", "5"], "")
    cases["veblen-enumerate-k3-d5-coefficients"] = (
        ["veblen", "enumerate", "--k", "3", "--d", "5", "--with-coefficients"], "")
    # errors print nothing on stdout and exit 1
    cases["threshold-edge-dmax0"] = (["threshold", "--input", "-", "--max-codegree", "0"], EDGE)
    cases["coeffs-doubled-edge"] = (["coeffs", "--input", "-", "--max-codegree", "3"], EDGE + "1 2 3\n")
    return cases


def _run(argv: list[str], stdin: str) -> tuple[str, int]:
    out, old_stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out):
            rc = dispatch(argv)
    finally:
        sys.stdin = old_stdin
    return out.getvalue(), rc


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_recording(case):
    want = json.loads(GOLDEN.read_text())[case]
    stdout, rc = _run(*CASES[case])
    assert (stdout, rc) == (want["stdout"], want["exit"])


if __name__ == "__main__":
    recorded = {}
    for case, (argv, stdin) in sorted(CASES.items()):
        stdout, rc = _run(argv, stdin)
        recorded[case] = {"argv": argv, "exit": rc, "stdout": stdout}
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
