"""Input parsing, serialization, and table rendering."""

import json
from fractions import Fraction

import pytest

from catalog import fano_plane, single_edge
from helpers import serialize_hypergraph
from hypersachs.errors import ArityError, DomainError, ParseError, VertexRangeError
from hypersachs.formats import emit_table, parse_document, rational_str
from hypersachs.hypergraph import MultiHypergraph
from hypersachs.traces import codegree_coefficients

LINE_DOC = """\
# tripled edge plus a plain one
k=3 n=5
1 2 3 x2
3 2 1
1 4 5
"""


def test_parse_line_format():
    H, name = parse_document(LINE_DOC)
    assert (H.k, H.n, name) == (3, 5, None)
    assert H.edges == (((1, 2, 3), 3), ((1, 4, 5), 1))
    assert H.edge_count == 4


def test_parse_inline_comments_and_blanks():
    text = "k=2 n=3\n\n1 2  # the only edge\n"
    assert parse_document(text)[0].edges == (((1, 2), 1),)


@pytest.mark.parametrize(
    "text,err,line",
    [
        ("k=3 n=4\n1 2 two\n", ParseError, 2),
        ("k=3 n=4\n1 2 2\n", ParseError, 2),
        ("1 2 3\n", ParseError, 1),
        ("", ParseError, None),
        ("k=3 n=4\n\n\n1 2 3 x0\n", ParseError, 4),
        ("k=1 n=2\n1\n", ParseError, 1),
    ],
)
def test_line_errors_carry_positions(text, err, line):
    with pytest.raises(err) as exc:
        parse_document(text)
    assert exc.value.line == line


def test_arity_and_range_errors_name_the_line():
    # these two embed the position in the message itself
    with pytest.raises(ArityError, match="line 3: edge has 2 vertices, expected k=3"):
        parse_document("k=3 n=4\n1 2 3\n1 2\n")
    with pytest.raises(VertexRangeError, match="line 2: vertex 9 outside 1..4"):
        parse_document("k=3 n=4\n1 2 9\n")


def test_parse_structured():
    text = json.dumps(
        {
            "k": 3,
            "n": 7,
            "name": "plane",
            "edges": [
                {"vertices": [1, 2, 3]},
                {"vertices": [3, 2, 1], "mult": 2},
            ],
        }
    )
    H, name = parse_document(text)
    assert name == "plane"
    assert H == MultiHypergraph.build(3, 7, [((1, 2, 3), 3)])


@pytest.mark.parametrize(
    "obj,err",
    [
        ({"k": 3, "n": 4, "edges": [], "extra": 1}, ParseError),
        ({"k": 3, "edges": []}, ParseError),
        ({"k": 3, "n": 4, "edges": [{"vertices": [1, 2]}]}, ArityError),
        ({"k": 3, "n": 4, "edges": [{"vertices": [1, 2, 9]}]}, VertexRangeError),
        ({"k": 3, "n": 4, "edges": [{"vertices": [1, 2, 3], "mult": 0}]}, ParseError),
        ({"k": 3, "n": 4, "edges": [[1, 2, 3]]}, ParseError),
        ({"k": "3", "n": 4, "edges": []}, ParseError),
        ({"k": 1, "n": 2, "edges": []}, ParseError),
    ],
)
def test_structured_rejects(obj, err):
    with pytest.raises(err):
        parse_document(json.dumps(obj))


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"k":3,"n":3,"edges":[{"vertices":[true,2,3]}]}', "edge record 0: vertices must be integers"),
        ('{"k":3,"n":3,"edges":[{"vertices":[1,2,3],"mult":true}]}', "edge record 0: mult must be a positive integer"),
        ('{"k":3,"n":true,"edges":[]}', "k and n must be integers"),
        ('{"k":true,"n":3,"edges":[]}', "k and n must be integers"),
    ],
    ids=["vertex", "mult", "n", "k"],
)
def test_structured_rejects_booleans_as_integers(text, message):
    # JSON true is a Python bool, which subclasses int
    with pytest.raises(ParseError, match=message):
        parse_document(text)


def test_structured_bad_json_positions():
    with pytest.raises(ParseError):
        parse_document("{ not json")


def test_serialize_line_golden():
    H = MultiHypergraph.build(3, 5, [((1, 2, 3), 3), ((1, 4, 5), 1)])
    assert serialize_hypergraph(H) == "k=3 n=5\n1 2 3 x3\n1 4 5\n"


def test_round_trips():
    for fmt in ("line", "structured"):
        text = serialize_hypergraph(fano_plane(), fmt, name="plane")
        H, name = parse_document(text)
        assert H == fano_plane()
        assert name == ("plane" if fmt == "structured" else None)
        # serializing again is a fixed point
        assert serialize_hypergraph(H, fmt, name) == text


def test_serialize_rejects_unknown_format():
    with pytest.raises(ValueError):
        serialize_hypergraph(fano_plane(), "yaml")


def test_rational_str():
    assert rational_str(5) == "5"
    assert rational_str(Fraction(3, 8)) == "3/8"
    assert rational_str(Fraction(-1, 2)) == "-1/2"
    assert rational_str(Fraction(4, 2)) == "2"


def test_emit_table_csv_golden():
    coefficients, _ = codegree_coefficients(single_edge(3), 3)
    assert emit_table(single_edge(3), coefficients, format="csv") == "0,1\n1,0\n2,0\n3,-3\n"


def test_emit_table_human():
    coefficients, _ = codegree_coefficients(fano_plane(), 3)
    text = emit_table(fano_plane(), coefficients, name="plane")
    lines = text.splitlines()
    assert lines[0] == "k=3 n=7 degree=448 name=plane"
    assert lines[-1].startswith("c_3") and lines[-1].endswith("-336")


def test_emit_table_structured_with_breakdown():
    obj = json.loads(emit_table(single_edge(3), *codegree_coefficients(single_edge(3), 3, with_breakdown=True),
                                format="structured"))
    assert obj["k"] == 3 and obj["n"] == 3 and obj["degree"] == 12
    assert obj["coefficients"][3] == {"d": 3, "value": "-3"}
    assert list(obj["breakdown"]) == ["1", "2", "3"]
    (entry,) = obj["breakdown"]["3"]
    assert entry["value"] == "-3" and len(entry["class"]) == 16
    # a table without a breakdown renders none
    plain = json.loads(emit_table(single_edge(3), *codegree_coefficients(single_edge(3), 3), format="structured"))
    assert "breakdown" not in plain


def test_emit_table_rejects_unknown_format():
    coefficients, _ = codegree_coefficients(single_edge(3), 1)
    with pytest.raises(DomainError):
        emit_table(single_edge(3), coefficients, format="tsv")
