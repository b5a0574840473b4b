"""Input documents and output tables.

Two interchangeable input encodings:

* line format::

      # optional comments
      k=3 n=7
      1 2 3
      1 4 5 x2

* structured format: one JSON object with fields ``k``, ``n``, optional
  ``name``, and ``edges`` = list of ``{"vertices": [...], "mult": m}``
  (``mult`` defaults to 1).

Rationals are always rendered as strings, ``p`` or ``p/q``; nothing here
emits floats.
"""

from __future__ import annotations

import hashlib
import json
import re
from decimal import Decimal
from fractions import Fraction

from .errors import ArityError, DomainError, ParseError, VertexRangeError
from .hypergraph import MultiHypergraph

_HEADER_RE = re.compile(r"^k=(\d+)\s+n=(\d+)$")
_MULT_RE = re.compile(r"^x(\d+)$")


def _edge_from_tokens(
    tokens: list[str], k: int, n: int, line_no: int
) -> tuple[tuple[int, ...], int]:
    mult = 1
    if tokens and _MULT_RE.match(tokens[-1]):
        mult = int(_MULT_RE.match(tokens[-1]).group(1))
        tokens = tokens[:-1]
        if mult < 1:
            raise ParseError("multiplicity must be at least 1", line_no)
    verts = []
    for t in tokens:
        try:
            verts.append(int(t))
        except ValueError:
            raise ParseError(f"expected a vertex number, got {t!r}", line_no) from None
    return _checked_edge(verts, k, n, line_no), mult


def _checked_edge(verts: list[int], k: int, n: int, line: int | None, prefix: str = "") -> tuple[int, ...]:
    """The sorted edge, once it has k distinct vertices in 1..n; errors carry
    the line, if known, and start with `prefix`."""
    if len(verts) != k:
        raise ArityError(f"{prefix}edge has {len(verts)} vertices, expected k={k}", line)
    for v in verts:
        if not 1 <= v <= n:
            raise VertexRangeError(f"{prefix}vertex {v} outside 1..{n}", line)
    if len(set(verts)) != k:
        raise ParseError(f"{prefix}edge repeats a vertex", line)
    return tuple(sorted(verts))


def _parse_lines(text: str) -> tuple[MultiHypergraph, None]:
    header: tuple[int, int] | None = None
    records = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise ParseError('expected header "k=<int> n=<int>"', line_no)
            header = (int(m.group(1)), int(m.group(2)))
            if header[0] < 2:
                raise ParseError("k must be at least 2", line_no)
            continue
        records.append(_edge_from_tokens(line.split(), header[0], header[1], line_no))
    if header is None:
        raise ParseError("empty input: no header line", None)
    return MultiHypergraph.build(header[0], header[1], records), None


def _is_int(x) -> bool:
    """A JSON integer; bool subclasses int, so true and false are not."""
    return type(x) is int


def _parse_structured(text: str) -> tuple[MultiHypergraph, str | None]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad structured document: {exc.msg}", exc.lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("structured document must be a single object", None)
    unknown = set(obj) - {"k", "n", "name", "edges"}
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}", None)
    for field in ("k", "n", "edges"):
        if field not in obj:
            raise ParseError(f"missing field {field!r}", None)
    k, n = obj["k"], obj["n"]
    if not _is_int(k) or not _is_int(n) or k < 2 or n < 0:
        raise ParseError("k and n must be integers (k >= 2, n >= 0)", None)
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("name must be a string", None)
    if not isinstance(obj["edges"], list):
        raise ParseError("edges must be a list", None)
    records = []
    for i, rec in enumerate(obj["edges"]):
        if not isinstance(rec, dict) or "vertices" not in rec:
            raise ParseError(f"edge record {i} needs a vertices field", None)
        verts_raw = rec["vertices"]
        mult = rec.get("mult", 1)
        if not _is_int(mult) or mult < 1:
            raise ParseError(f"edge record {i}: mult must be a positive integer", None)
        if not isinstance(verts_raw, list) or not all(map(_is_int, verts_raw)):
            raise ParseError(f"edge record {i}: vertices must be integers", None)
        records.append((_checked_edge(verts_raw, k, n, None, f"edge record {i}: "), mult))
    return MultiHypergraph.build(k, n, records), name


def parse_document(text: str) -> tuple[MultiHypergraph, str | None]:
    """The host of a line or structured document, with its name (None in
    the line format); repeated edges add their multiplicities."""
    if text.lstrip().startswith("{"):
        return _parse_structured(text)
    return _parse_lines(text)


def rational_str(x: Fraction | int) -> str:
    """Exact decimal form, through Decimal: it has no int-to-str digit limit."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(Decimal(x.numerator))
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


def _class_digest(code: bytes) -> str:
    """The printed name of a class: the first 16 hex digits of sha256(code)."""
    return hashlib.sha256(code).hexdigest()[:16]


TABLE_FORMATS = ("structured", "csv", "human")


def emit_table(host: MultiHypergraph, coefficients: tuple[Fraction, ...], breakdown: dict | None = None,
               name: str | None = None, format: str = "human") -> str:
    """Render the host's coefficients c_0..c_D, as `codegree_coefficients`
    returns them.  csv rows are "d,value"; human and structured renderings
    carry k, n, the polynomial degree and the name as well, and the breakdown
    unless it is None, each class under its `_class_digest`."""
    if format not in TABLE_FORMATS:
        raise DomainError(f"format must be one of {TABLE_FORMATS}")
    degree = host.n * (host.k - 1) ** (host.n - 1) if host.n else 0
    rows = list(enumerate(coefficients))
    if format == "csv":
        return "\n".join(f"{d},{rational_str(c)}" for d, c in rows) + "\n"
    if format == "human":
        out = [f"k={host.k} n={host.n} degree={degree}"]
        if name:
            out[0] += f" name={name}"
        width = max(len(str(d)) for d, _ in rows)
        for d, c in rows:
            out.append(f"c_{d:<{width}} = {rational_str(c)}")
            if breakdown and d in breakdown:
                for code, val in breakdown[d]:
                    out.append(f"  {_class_digest(code)}  {rational_str(val)}")
        return "\n".join(out) + "\n"
    obj: dict = {"k": host.k, "n": host.n, "degree": degree}
    if name is not None:
        obj["name"] = name
    obj["max_codegree"] = len(rows) - 1
    obj["coefficients"] = [
        {"d": d, "value": rational_str(c)} for d, c in rows
    ]
    if breakdown is not None:
        obj["breakdown"] = {
            str(d): [
                {"class": _class_digest(code), "value": rational_str(val)}
                for code, val in breakdown[d]
            ]
            for d in sorted(breakdown)
        }
    return json.dumps(obj, indent=2) + "\n"
