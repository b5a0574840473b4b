"""Workload definitions: seeded host files, the CLI job list of one pass, and
the output check of every job.

A check compares only what stays invariant under relabeling and under a
change of canonical code: coefficient values, class counts per (k, d),
multisets of (weight, |Aut|) and of breakdown values.  It never compares
atlas digests, representative edge lists or line order.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

PLANE_LINES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 5, 6), (3, 5, 7), (2, 4, 7), (3, 4, 6))


@dataclass
class Job:
    """One CLI invocation; `check` gets the job's stdout and the stdout of
    every job in the pass, and returns an error message or None."""

    name: str
    argv: list[str]
    check: Callable[[str, dict], str | None]


# -- host files -----------------------------------------------------------


def _write_host(path: Path, k: int, n: int, edges, rng: random.Random | None) -> None:
    """Line-format host file; with rng, vertices are relabeled by a random
    permutation and the edge lines shuffled."""
    edges = [tuple(e) for e in edges]
    if rng is not None:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        edges = [tuple(sorted(perm[v - 1] for v in e)) for e in edges]
        rng.shuffle(edges)
    lines = [f"k={k} n={n}"] + [" ".join(map(str, e)) for e in edges]
    path.write_text("\n".join(lines) + "\n")


def _complete(k: int, n: int):
    return list(combinations(range(1, n + 1), k))


def _random_covering(rng: random.Random, k: int, n: int, m: int):
    """m distinct random k-edges on 1..n touching every vertex, so that the
    walk space n^L of the trace oracle is the same for every seed."""
    pool = _complete(k, n)
    while True:
        edges = sorted(rng.sample(pool, m))
        if len({v for e in edges for v in e}) == n:
            return edges


# -- output parsing and checks -------------------------------------------


def _coefficients(out: str) -> list[Fraction]:
    obj = json.loads(out)
    return [Fraction(row["value"]) for row in obj["coefficients"]]


def _expect_row(expected: list) -> Callable[[str, dict], str | None]:
    want = [Fraction(v) for v in expected]

    def check(out, _outputs):
        got = _coefficients(out)
        if got != want:
            return f"coefficients {[str(x) for x in got]} != expected {[str(x) for x in want]}"
        return None

    return check


def _single_edge_row(k: int, max_d: int) -> list[int]:
    """Closed form for one k-edge on k vertices (Cooper and Dutle 2012):
    phi(x) = x^a (x^k - 1)^(k^(k-2)), so c_{kt} = (-1)^t C(k^(k-2), t)."""
    width = k ** (k - 2)
    return [(-1) ** (d // k) * comb(width, d // k) if d % k == 0 else 0 for d in range(max_d + 1)]


def _breakdown_check(row: list, recorded: dict) -> Callable[[str, dict], str | None]:
    """Coefficients equal `row`; the breakdown of each c_d sums to c_d, and
    its multiset of values matches the recorded one."""
    coeff_check = _expect_row(row)

    def check(out, outputs):
        err = coeff_check(out, outputs)
        if err:
            return err
        coeffs = _coefficients(out)
        breakdown = json.loads(out)["breakdown"]
        for d, entries in breakdown.items():
            values = [Fraction(e["value"]) for e in entries]
            if sum(values, Fraction(0)) != coeffs[int(d)]:
                return f"breakdown of c_{d} sums to {sum(values)}, not {coeffs[int(d)]}"
            if sorted(values) != sorted(Fraction(v) for v in recorded[d]):
                return f"breakdown values of c_{d} differ from the recorded multiset"
        if sorted(breakdown, key=int) != sorted(recorded, key=int):
            return f"breakdown covers codegrees {sorted(breakdown, key=int)}"
        return None

    return check


def _atlas_check(k: int, counts: list[int] | None, recorded: dict) -> Callable[[str, dict], str | None]:
    """Per d: the number of classes and the multiset of (weight, |Aut|)."""

    def check(out, _outputs):
        by_d: dict[str, list[str]] = {}
        for line in out.splitlines():
            _digest, d, _edges, value, aut = line.split("\t")
            by_d.setdefault(d, []).append(f"{Fraction(value)}|{int(aut)}")
        for d, want in recorded.items():
            got = sorted(by_d.get(d, []))
            if got != sorted(want):
                return f"k={k} d={d}: (weight|aut) multiset {got} != {sorted(want)}"
        if counts is not None:
            got_counts = [len(by_d.get(str(d), [])) for d in range(1, len(counts) + 1)]
            if got_counts != counts:
                return f"k={k} class counts {got_counts} != {counts}"
        if set(by_d) - set(recorded):
            return f"k={k}: unexpected sizes {sorted(set(by_d) - set(recorded))}"
        return None

    return check


def _traces_check(orders: int) -> Callable[[str, dict], str | None]:
    """The command compares every trace with its walk count and fails on a
    mismatch; here the table must also cover every order."""

    def check(out, _outputs):
        rows = json.loads(out)["traces"]
        if [r["d"] for r in rows] != list(range(1, orders + 1)):
            return f"trace orders {[r['d'] for r in rows]}"
        return None

    return check


def _graph_check(n: int, edges) -> Callable[[str, dict], str | None]:
    """k=2 coefficients against the adjacency characteristic polynomial."""

    def check(out, _outputs):
        from hypersachs import classical, hypergraph

        G = hypergraph.MultiHypergraph.build(2, n, edges)
        want = [Fraction(c) for c in classical.charpoly_graph(G)]
        got = [Fraction(line.split(",")[1]) for line in out.splitlines()]
        if got != want:
            return f"k=2 coefficients {got} != charpoly {want}"
        return None

    return check


def _simplex_check(k: int, pinned_ck: int | None, ck_digest: str | None):
    """C_H = C_k/(k-1)^k, and C_k equals the pinned or recorded value."""

    def check(out, _outputs):
        obj = json.loads(out)
        ck, ch = int(obj["C_k"]), Fraction(obj["C_H"])
        if ch != Fraction(ck, (k - 1) ** k):
            return f"C_H {ch} != C_k/(k-1)^k"
        if pinned_ck is not None and ck != pinned_ck:
            return f"C_{k} = {ck}, pinned {pinned_ck}"
        if ck_digest is not None and hashlib.sha256(str(ck).encode()).hexdigest() != ck_digest:
            return f"C_{k} differs from the recorded value"
        return None

    return check


def _assoc_check(k: int):
    """The simplex weight from rootings equals C_H from the recurrence."""

    def check(out, outputs):
        want = Fraction(json.loads(outputs[f"simplex-ck-{k}"])["C_H"])
        got = Fraction(out.strip())
        if got != want:
            return f"simplex weight {got} != simplex-ck C_H {want}"
        return None

    return check


# -- job lists ------------------------------------------------------------


def _coeffs(path: Path, max_d: int, *extra: str) -> list[str]:
    return ["coeffs", "--input", str(path), "--max-codegree", str(max_d), *extra]


def _plane_hosts(host_dir: Path, rng: random.Random) -> dict[str, Path]:
    paths = {}
    for lines in (5, 6, 7):
        paths[f"plane{lines}"] = host_dir / f"plane{lines}.txt"
        _write_host(paths[f"plane{lines}"], 3, 7, PLANE_LINES[:lines], rng)
    return paths


def _plane_row(lines: int, max_d: int) -> list:
    return REFERENCE["plane_rows"][str(lines)][: max_d + 1]


def host_tables(host_dir: Path, rng: random.Random, small: bool) -> list[Job]:
    """Deep tables on relabeled hosts: the host composition scan in
    veblen_enum does most of the work, canon a quarter to a third."""
    planes = _plane_hosts(host_dir, rng)
    k6 = host_dir / "k6.txt"
    _write_host(k6, 3, 6, _complete(3, 6), rng)
    s4 = host_dir / "simplex4.txt"
    _write_host(s4, 4, 5, _complete(4, 5), rng)
    d_plane, d_k6, d_s4 = (6, 3, 5) if small else (15, 6, 10)
    jobs = [
        Job(f"coeffs-plane{n}-d{d_plane}", _coeffs(planes[f"plane{n}"], d_plane, "--format", "structured"),
            _expect_row(_plane_row(n, d_plane)))
        for n in (5, 6, 7)
    ]
    jobs.append(Job(f"coeffs-k6-d{d_k6}", _coeffs(k6, d_k6, "--format", "structured"),
                    _expect_row(REFERENCE["seed_recorded"]["k6_row"][: d_k6 + 1])))
    jobs.append(Job(f"coeffs-simplex4-d{d_s4}", _coeffs(s4, d_s4, "--format", "structured"),
                    _expect_row(REFERENCE["seed_recorded"]["simplex4_row"][: d_s4 + 1])))
    return jobs


def class_atlas(host_dir: Path, rng: random.Random, small: bool) -> list[Job]:
    """Free class atlases: canon on many small graphs with small |Aut| does
    most of the work; no host is enumerated."""
    sizes = {"3": 5, "4": 4} if small else {"3": 7, "4": 6}
    jobs = []
    for k, max_d in sizes.items():
        recorded = {d: v for d, v in REFERENCE["seed_recorded"][f"atlas_k{k}"].items() if int(d) <= max_d}
        counts = REFERENCE["class_counts_k3"][:max_d] if k == "3" else None
        jobs.append(Job(f"atlas-k{k}-d{max_d}", ["atlas-export", "--k", k, "--max-codegree", str(max_d)],
                        _atlas_check(int(k), counts, recorded)))
    return jobs


def breakdown(host_dir: Path, rng: random.Random, small: bool) -> list[Job]:
    """Per-class breakdowns: canon on a few disjoint unions of repeated
    components, with |Aut| in the thousands, does most of the work."""
    max_d = 6 if small else 11
    planes = _plane_hosts(host_dir, rng)
    hosts = {}
    for k in (3, 4):
        hosts[f"edge{k}"] = host_dir / f"edge{k}.txt"
        _write_host(hosts[f"edge{k}"], k, k, [tuple(range(1, k + 1))], rng)
    hosts["k4"] = host_dir / "k4.txt"
    _write_host(hosts["k4"], 3, 4, _complete(3, 4), rng)
    rows = {
        "edge3": _single_edge_row(3, max_d),
        "edge4": _single_edge_row(4, max_d),
        "k4": REFERENCE["seed_recorded"]["k4_row"][: max_d + 1],
        "plane5": _plane_row(5, max_d),
        "plane7": _plane_row(7, max_d),
    }
    hosts["plane5"], hosts["plane7"] = planes["plane5"], planes["plane7"]
    jobs = []
    for name, row in rows.items():
        recorded = {d: v for d, v in REFERENCE["seed_recorded"]["breakdown"][name].items() if int(d) <= max_d}
        jobs.append(Job(f"breakdown-{name}-d{max_d}",
                        _coeffs(hosts[name], max_d, "--with-breakdown", "--format", "structured"),
                        _breakdown_check(row, recorded)))
    return jobs


def certify(host_dir: Path, rng: random.Random, small: bool) -> list[Job]:
    """Many small seeded hosts and the simplex weights, each checked by an
    independent route: rooting, digraph, linalg, the walk oracle and the
    simplex recurrence do most of the work, in one warm process."""
    jobs = []
    # (k, vertices, edges, max order, host count)
    walk_hosts = [(3, 5, 5, 3, 3), (3, 6, 7, 3, 3), (4, 5, 3, 2, 3)]
    if small:
        walk_hosts = [(3, 5, 5, 2, 1), (4, 5, 3, 1, 1)]
    for k, n, m, order, count in walk_hosts:
        for i in range(count):
            path = host_dir / f"walk-k{k}-n{n}-{i}.txt"
            _write_host(path, k, n, _random_covering(rng, k, n, m), None)
            jobs.append(Job(f"traces-k{k}-n{n}-{i}",
                            ["traces", "--input", str(path), "--max-order", str(order), "--bruteforce",
                             "--format", "structured"],
                            _traces_check(order)))
    n2, m2, graphs = (5, 6, 1) if small else (7, 10, 4)
    for i in range(graphs):
        edges = _random_covering(rng, 2, n2, m2)
        path = host_dir / f"graph-{i}.txt"
        _write_host(path, 2, n2, edges, None)
        jobs.append(Job(f"coeffs-graph-{i}", _coeffs(path, n2, "--format", "csv"), _graph_check(n2, edges)))
    max_simplex = 5 if small else 7
    pinned = REFERENCE["simplex_constants"]
    for k in range(3, max_simplex + 1):
        jobs.append(Job(f"simplex-ck-{k}", ["simplex-ck", "--k", str(k), "--format", "structured"],
                        _simplex_check(k, pinned[str(k)], None)))
    big = 40 if small else 400
    jobs.append(Job(f"simplex-ck-{big}", ["simplex-ck", "--k", str(big), "--format", "structured"],
                    _simplex_check(big, None, REFERENCE["seed_recorded"]["simplex_ck_sha256"][str(big)])))
    for k in range(3, max_simplex + 1):
        path = host_dir / f"simplex{k}.txt"
        _write_host(path, k, k + 1, _complete(k, k + 1), None)
        jobs.append(Job(f"assoc-coeff-simplex{k}", ["assoc-coeff", "--input", str(path)], _assoc_check(k)))
    return jobs


WORKLOADS = {
    "host-tables": host_tables,
    "class-atlas": class_atlas,
    "breakdown": breakdown,
    "certify": certify,
}
