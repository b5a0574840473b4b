"""Command dispatch.

Exit status: 0 on success, 2 for bad invocations, 1 for any domain error or
internal consistency failure.  All numeric output goes through rational_str;
nothing is ever printed as a float except the asymptotic ratio report, which
is a decimal string by construction.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .classical import charpoly_graph, harary_sachs_coeffs, threshold_search
from .errors import ConsistencyFailure, HypersachsError, SizeExceeded, UsageError
from .formats import TABLE_FORMATS, _class_digest, emit_table, parse_document, rational_str
from .hypergraph import MultiHypergraph
from .rooting import _class_weight, assoc_coeff
from .simplex import asymptotic_ratio, simplex_Ck
from .traces import codegree_coefficients, trace_bruteforce, trace_vector
from .veblen_enum import count_all_veblen, enumerate_connected_veblen


CHECK_GRAPHS, GRAPH_S = 100_000, 9e-4  # classical-check's graph bound, seconds per graph


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse wants to sys.exit here
        raise UsageError(message)


def _count(text: str) -> int:
    """The argparse type of every order, size and budget: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="hypersachs", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("--input", required=True, help="host file, or - for stdin")

    def add_format(sp):
        sp.add_argument("--format", choices=TABLE_FORMATS, default="human")

    sp = sub.add_parser("coeffs", help="codegree coefficient table of a host")
    add_input(sp)
    sp.add_argument("--max-codegree", type=_count, required=True)
    sp.add_argument("--with-breakdown", action="store_true")
    sp.add_argument("--name", default=None)
    add_format(sp)
    sp.set_defaults(func=_cmd_coeffs)

    sp = sub.add_parser("traces", help="normalized power-sum traces of a host")
    add_input(sp)
    sp.add_argument("--max-order", type=_count, required=True)
    sp.add_argument(
        "--bruteforce",
        action="store_true",
        help="recompute each trace by the walk expansion (closed walks per star profile) and verify",
    )
    sp.add_argument("--budget", type=_count, default=10_000_000, help="work bound per order for --bruteforce, checked "
                    "before it starts: multiplicity vectors to scan, star choices (default: %(default)s)")
    add_format(sp)
    sp.set_defaults(func=_cmd_traces)

    sp = sub.add_parser("veblen", help="k-valent multigraph classes")
    vsub = sp.add_subparsers(dest="veblen_command", required=True)
    spe = vsub.add_parser("enumerate", help="list connected classes at one size")
    spe.add_argument("--k", type=int, required=True)
    spe.add_argument("--d", type=_count, required=True)
    spe.add_argument("--with-coefficients", action="store_true")
    spe.set_defaults(func=_cmd_veblen_enumerate)
    spc = vsub.add_parser("count", help="count classes at one size")
    spc.add_argument("--k", type=int, required=True)
    spc.add_argument("--d", type=_count, required=True)
    spc.set_defaults(func=_cmd_veblen_count)

    sp = sub.add_parser("assoc-coeff", help="associated coefficient of a host")
    add_input(sp)
    sp.set_defaults(func=_cmd_assoc_coeff)

    sp = sub.add_parser("simplex-ck", help="simplex constant C_k")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--report-asymptotics", action="store_true")
    add_format(sp)
    sp.set_defaults(func=_cmd_simplex)

    sp = sub.add_parser(
        "classical-check", help="graph coefficient identities, exhaustive + random"
    )
    sp.add_argument("--max-n", type=_count, default=5)
    sp.add_argument("--random-graphs", type=_count, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_classical_check)

    sp = sub.add_parser("threshold", help="last nonzero codegree up to a bound")
    add_input(sp)
    sp.add_argument("--max-codegree", type=_count, required=True)
    add_format(sp)
    sp.set_defaults(func=_cmd_threshold)

    sp = sub.add_parser("atlas-export", help="connected class records, one per line")
    sp.add_argument("--k", type=int, required=True)
    size = sp.add_mutually_exclusive_group(required=True)
    size.add_argument("--d", type=_count)
    size.add_argument("--max-codegree", type=_count, help="export every size 1..D instead of a single --d")
    sp.add_argument("--output", default="-")
    sp.set_defaults(func=_cmd_atlas_export)

    return p


def _load_host(args) -> tuple[MultiHypergraph, str | None]:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(args.input).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read input file {args.input}: {_reason(exc)}") from None
    return parse_document(text)


def _reason(exc: OSError | UnicodeDecodeError) -> str:
    """Why a file could not be read or written, without its path."""
    if isinstance(exc, UnicodeDecodeError):
        return f"not {exc.encoding} text ({exc.reason})"
    return exc.strerror or str(exc)


def _edges_str(H: MultiHypergraph) -> str:
    if not H.edges:
        return "(empty)"
    parts = []
    for verts, mult in H.edges:
        s = " ".join(map(str, verts))
        parts.append(s + (f" x{mult}" if mult != 1 else ""))
    return "; ".join(parts)


def _atlas_lines(k: int, d: int, weighed: bool) -> list[str]:
    lines = []
    for rec in enumerate_connected_veblen(k, d):
        value = rational_str(_class_weight(rec.code, rec.representative)) if weighed else "-"
        lines.append(f"{_class_digest(rec.code)}\t{d}\t{_edges_str(rec.representative)}\t{value}\t{rec.aut_count}")
    return lines


def _cmd_coeffs(args) -> int:
    host, doc_name = _load_host(args)
    name = args.name if args.name is not None else doc_name
    coefficients, breakdown = codegree_coefficients(host, args.max_codegree, args.with_breakdown)
    sys.stdout.write(emit_table(host, coefficients, breakdown, name, args.format))
    return 0


def _cmd_traces(args) -> int:
    host, _ = _load_host(args)
    rows = list(enumerate(trace_vector(host, args.max_order), start=1))
    if args.bruteforce:
        for d, value in rows:
            other = trace_bruteforce(host, d, budget=args.budget)
            if other != value:
                raise ConsistencyFailure(f"trace {d} disagrees: {value} vs walk count {other}")
    if args.format == "csv":
        for d, v in rows:
            print(f"{d},{rational_str(v)}")
    elif args.format == "structured":
        obj = {
            "k": host.k,
            "n": host.n,
            "traces": [{"d": d, "value": rational_str(v)} for d, v in rows],
        }
        print(json.dumps(obj, indent=2))
    else:
        for d, v in rows:
            print(f"T_{d} = {rational_str(v)}")
    return 0


def _cmd_veblen_enumerate(args) -> int:
    for line in _atlas_lines(args.k, args.d, args.with_coefficients):
        print(line)
    return 0


def _cmd_veblen_count(args) -> int:
    connected = len(enumerate_connected_veblen(args.k, args.d))
    everything = count_all_veblen(args.k, args.d)
    print(f"k={args.k} d={args.d} connected={connected} all={everything}")
    return 0


def _cmd_assoc_coeff(args) -> int:
    host, _ = _load_host(args)
    print(rational_str(assoc_coeff(host)))
    return 0


def _cmd_simplex(args) -> int:
    C_k = simplex_Ck(args.k)
    ck, ch = rational_str(C_k), rational_str(Fraction(C_k, (args.k - 1) ** args.k))
    ratio = asymptotic_ratio(args.k, C_k)
    if args.format == "structured":
        obj = {"k": args.k, "C_k": ck, "C_H": ch}
        if args.report_asymptotics:
            obj["asymptotic_ratio"] = ratio
        print(json.dumps(obj, indent=2))
        return 0
    if args.format == "csv":
        print(f"{args.k},{ck}")
        if args.report_asymptotics:
            print(f"ratio,{ratio}")
        return 0
    print(f"C_{args.k} = {ck}")
    print(f"simplex class weight = {ch}")
    if args.report_asymptotics:
        print(f"C_k / ((k+1)! k^(k+1)) = {ratio}")
    return 0


def _check_one_graph(G: MultiHypergraph) -> str | None:
    cp = charpoly_graph(G)
    for d in range(G.n + 1):
        if cp[d] != harary_sachs_coeffs(G, d):
            return f"n={G.n} edges={_edges_str(G)} d={d}"
    return None


def _cmd_classical_check(args) -> int:
    import random
    from itertools import chain, combinations
    from math import comb

    # bounded before any graph is built; 2^C(8,2) alone passes the bound
    graphs = args.random_graphs + sum(1 << comb(n, 2) for n in range(min(args.max_n, 8) + 1))
    if graphs > CHECK_GRAPHS:
        over = "over " if args.max_n > 8 else ""
        raise SizeExceeded(f"classical-check of {over}{graphs} graphs, bound {CHECK_GRAPHS}; "
                           f"estimate {over}{graphs * GRAPH_S:.3g} s")
    rng = random.Random(args.seed)
    labeled = ((n, [p for i, p in enumerate(combinations(range(1, n + 1), 2)) if mask >> i & 1])
               for n in range(args.max_n + 1) for mask in range(1 << comb(n, 2)))
    sampled = ((n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.5])
               for n in (rng.randint(6, 8) for _ in range(args.random_graphs)))
    hosts = (MultiHypergraph.build(2, n, edges) for n, edges in chain(labeled, sampled))
    failures = [f for f in map(_check_one_graph, hosts) if f]
    if failures:
        for f in failures:
            print(f"mismatch: {f}", file=sys.stderr)
        return 1
    print(
        f"checked {graphs - args.random_graphs} graphs on <= {args.max_n} vertices and "
        f"{args.random_graphs} random graphs on 6..8: all coefficient "
        f"expansions match the characteristic polynomial"
    )
    return 0


def _cmd_threshold(args) -> int:
    host, _ = _load_host(args)
    dmax = args.max_codegree
    threshold, witness, exact = threshold_search(host, dmax)
    wit = None if witness is None else rational_str(witness)
    if args.format == "structured":
        obj = {"n": host.n, "dmax": dmax, "threshold": threshold, "witness": wit, "exact": exact}
        print(json.dumps(obj, indent=2))
        return 0
    if args.format == "csv":
        print(f"{host.n},{dmax},{'' if threshold is None else threshold},{wit or ''}")
        return 0
    print(f"host: k={host.k} n={host.n} edges: {_edges_str(host)}")
    if threshold is None:
        print(f"no nonzero coefficient found at codegrees 1..{dmax}")
    else:
        kind = "exactly" if exact else "at least (search bound)"
        print(f"threshold {kind} {threshold} (c_{threshold} = {witness})")
    return 0


def _write_output(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode) as f:
            f.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output file {path}: {_reason(exc)}") from None


def _cmd_atlas_export(args) -> int:
    if args.output != "-":
        # refused before the build; appending nothing keeps the old bytes if the build fails
        _write_output(args.output, "", mode="a")
    # order 0 lists no class but still refuses an arity below 2
    sizes = [args.d] if args.d is not None else list(range(args.max_codegree + 1))
    # the largest order first: its free tree fills every smaller one
    blocks = {d: _atlas_lines(args.k, d, weighed=True) for d in reversed(sizes)}
    lines = [line for d in sizes for line in blocks[d]]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.output == "-":
        sys.stdout.write(text)
    else:
        _write_output(args.output, text)
    return 0


def dispatch(argv: list[str]) -> int:
    """Run one command; the parser is built on the first call and reused, so
    it holds the `_cmd_*` functions of that build: patch what a command
    calls, not the command."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except HypersachsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
