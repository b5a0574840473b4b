"""Command-line entry points, exit codes, and output formats."""

import hashlib
import io
import json
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from hypersachs import cli
from hypersachs.cli import dispatch
from hypersachs.hypergraph import MultiHypergraph
from hypersachs.simplex import MAX_K

# sha256 of hex(simplex_Ck(MAX_K)), as pinned in test_simplex.test_max_k_boundary
MAX_K_HEX_SHA256 = "6598c54f1c5c0dbb690f012b57c4dab6245d0fd861e05e971cbfa45321c07972"

EDGE_DOC = "k=3 n=3\n1 2 3\n"
FANO_DOC = "k=3 n=7\n1 2 3\n1 4 5\n1 6 7\n2 5 6\n3 5 7\n2 4 7\n3 4 6\n"
V51_DOC = "k=3 n=5\n1 2 3\n1 2 4\n1 3 5\n2 4 5\n3 4 5\n"


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.txt"
    path.write_text(EDGE_DOC)
    return str(path)


def test_coeffs_csv(edge_file, capsys):
    assert dispatch(["coeffs", "--input", edge_file, "--max-codegree", "3",
                     "--format", "csv"]) == 0
    assert capsys.readouterr().out == "0,1\n1,0\n2,0\n3,-3\n"


def test_coeffs_human_with_name(edge_file, capsys):
    rc = dispatch(["coeffs", "--input", edge_file, "--max-codegree", "3",
                   "--name", "edge"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "k=3 n=3 degree=12 name=edge"
    assert out.splitlines()[-1] == "c_3 = -3"


def test_coeffs_structured_breakdown(edge_file, capsys):
    rc = dispatch(["coeffs", "--input", edge_file, "--max-codegree", "3",
                   "--with-breakdown", "--format", "structured"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["coefficients"][3]["value"] == "-3"
    assert len(obj["breakdown"]["3"]) == 1


def test_traces_human_and_csv(edge_file, capsys):
    assert dispatch(["traces", "--input", edge_file, "--max-order", "3"]) == 0
    assert capsys.readouterr().out == "T_1 = 0\nT_2 = 0\nT_3 = 9\n"
    assert dispatch(["traces", "--input", edge_file, "--max-order", "3",
                     "--format", "csv"]) == 0
    assert capsys.readouterr().out == "1,0\n2,0\n3,9\n"


def test_traces_bruteforce_crosscheck(edge_file, capsys):
    assert dispatch(["traces", "--input", edge_file, "--max-order", "4",
                     "--bruteforce"]) == 0
    capsys.readouterr()


def test_traces_bruteforce_fano_to_order_9(tmp_path, capsys):
    path = tmp_path / "fano.txt"
    path.write_text(FANO_DOC)
    assert dispatch(["traces", "--input", str(path), "--max-order", "9",
                     "--bruteforce", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9 and lines[2] == "3,1008"


def test_traces_bruteforce_disagreement_exits_1(edge_file, capsys, monkeypatch):
    monkeypatch.setattr("hypersachs.cli.trace_bruteforce", lambda host, d, budget: Fraction(d))
    assert dispatch(["traces", "--input", edge_file, "--max-order", "3",
                     "--bruteforce"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trace 1 disagrees: 0 vs walk count 1" in captured.err


def test_veblen_count(capsys):
    assert dispatch(["veblen", "count", "--k", "3", "--d", "6"]) == 0
    assert capsys.readouterr().out == "k=3 d=6 connected=11 all=12\n"


def test_veblen_enumerate(capsys):
    assert dispatch(["veblen", "enumerate", "--k", "3", "--d", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(len(line.split("\t")) == 5 for line in lines)
    assert all(line.split("\t")[3] == "-" for line in lines)

    assert dispatch(["veblen", "enumerate", "--k", "3", "--d", "5",
                     "--with-coefficients"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {line.split("\t")[3] for line in lines} == {"27/16", "51/16"}
    # automorphism counts ride along in the last column
    assert {line.split("\t")[4] for line in lines} == {"12", "10"}


def test_assoc_coeff(tmp_path, capsys):
    path = tmp_path / "v.txt"
    path.write_text(V51_DOC)
    assert dispatch(["assoc-coeff", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "51/16\n"


def test_assoc_coeff_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("k=3 n=3\n1 2 3 x3\n"))
    assert dispatch(["assoc-coeff", "--input", "-"]) == 0
    assert capsys.readouterr().out == "3/8\n"


def test_simplex_ck(capsys):
    assert dispatch(["simplex-ck", "--k", "3"]) == 0
    assert capsys.readouterr().out == "C_3 = 21\nsimplex class weight = 21/8\n"
    assert dispatch(["simplex-ck", "--k", "5", "--report-asymptotics",
                     "--format", "csv"]) == 0
    assert capsys.readouterr().out == "5,28230\nratio,0.00250933333333\n"


@pytest.mark.parametrize("fmt", ["human", "csv", "structured"])
def test_simplex_ck_at_max_k(fmt, capsys):
    # C_1000 has 5565 digits, past the default int-to-str limit; Decimal
    # reads it back without that limit
    assert dispatch(["simplex-ck", "--k", str(MAX_K), "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "structured":
        text = json.loads(out)["C_k"]
    elif fmt == "csv":
        text = out.splitlines()[0].split(",")[1]
    else:
        text = out.splitlines()[0].removeprefix(f"C_{MAX_K} = ")
    assert len(text) == 5565
    assert hashlib.sha256(hex(int(Decimal(text))).encode()).hexdigest() == MAX_K_HEX_SHA256


def test_classical_check_smoke(capsys):
    rc = dispatch(["classical-check", "--max-n", "3", "--random-graphs", "2",
                   "--seed", "1"])
    assert rc == 0
    assert "all coefficient expansions match" in capsys.readouterr().out


def test_classical_check_bounds_its_graphs_before_building_any(monkeypatch, capsys):
    # sum_{n <= 7} 2^C(n, 2) = 2,131,020 labeled graphs and 200 random ones
    def forbidden(*args, **kwargs):
        raise AssertionError("a graph was built before the bound was checked")

    monkeypatch.setattr(MultiHypergraph, "build", forbidden)
    assert dispatch(["classical-check", "--max-n", "7"]) == 1
    assert capsys.readouterr().err == (
        "error: SizeExceeded: classical-check of 2131220 graphs, bound 100000; estimate 1.92e+03 s\n")


def test_threshold_formats(edge_file, capsys):
    assert dispatch(["threshold", "--input", edge_file,
                     "--max-codegree", "12", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "3,12,9,-1\n"
    assert dispatch(["threshold", "--input", edge_file,
                     "--max-codegree", "12"]) == 0
    out = capsys.readouterr().out
    assert "threshold exactly 9" in out
    assert dispatch(["threshold", "--input", edge_file,
                     "--max-codegree", "12", "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "n": 3, "dmax": 12, "threshold": 9, "witness": "-1", "exact": True}


def test_atlas_export_to_file(tmp_path, capsys):
    target = tmp_path / "atlas.tsv"
    rc = dispatch(["atlas-export", "--k", "3", "--d", "5",
                   "--output", str(target)])
    assert rc == 0
    lines = target.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].split("\t")[3] == "27/16"


def test_atlas_export_refuses_unwritable_output_before_building(tmp_path, monkeypatch, capsys):
    def build(*args, **kwargs):
        raise AssertionError("built an atlas for an unwritable output")

    monkeypatch.setattr(cli, "enumerate_connected_veblen", build)
    target = str(tmp_path / "missing" / "x.tsv")
    assert dispatch(["atlas-export", "--k", "3", "--max-codegree", "5", "--output", target]) == 2
    assert f"cannot write output file {target}: No such file or directory" in capsys.readouterr().err


def test_atlas_export_keeps_existing_output_until_the_build_succeeds(tmp_path, capsys):
    target = tmp_path / "atlas.tsv"
    target.write_bytes(b"old\tbytes\n")
    assert dispatch(["atlas-export", "--k", "1", "--max-codegree", "2", "--output", str(target)]) == 1
    assert target.read_bytes() == b"old\tbytes\n"
    # a build that succeeds replaces the old bytes rather than adding to them
    assert dispatch(["atlas-export", "--k", "3", "--d", "5", "--output", str(target)]) == 0
    assert [line.split("\t")[1] for line in target.read_text().splitlines()] == ["5", "5"]


@pytest.mark.parametrize(
    "argv",
    [
        ["nonsense"],
        ["coeffs", "--input", "/tmp/definitely-not-here.txt", "--max-codegree", "3"],
        ["atlas-export", "--k", "3", "--d", "5", "--max-codegree", "5"],
        ["atlas-export", "--k", "3"],
        ["coeffs", "--max-codegree", "3"],
        ["atlas-export", "--k", "3", "--d", "5", "--jobs", "2"],
        ["classical-check", "--jobs", "2"],
        # negative orders, sizes and budgets are refused before any input is read
        ["coeffs", "--input", "-", "--max-codegree", "-1"],
        ["traces", "--input", "-", "--max-order", "-2"],
        ["traces", "--input", "-", "--max-order", "2", "--budget", "-5"],
        ["atlas-export", "--k", "3", "--max-codegree", "-1"],
        ["atlas-export", "--k", "3", "--d", "-1"],
        ["veblen", "count", "--k", "3", "--d", "-1"],
        ["veblen", "enumerate", "--k", "3", "--d", "-2"],
        ["threshold", "--input", "-", "--max-codegree", "-1"],
        ["classical-check", "--random-graphs", "-3"],
        ["classical-check", "--max-n", "-1"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert dispatch(argv) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option,name,reason",
    [
        ("--input", "absent.txt", "No such file or directory"),
        ("--input", "", "Is a directory"),
        ("--input", "latin1.txt", "not utf-8 text"),
        ("--output", "absent/atlas.tsv", "No such file or directory"),
    ],
    ids=["missing", "directory", "bad-bytes", "unwritable-output"],
)
def test_unreadable_input_or_unwritable_output_exit_2(option, name, reason, tmp_path, capsys):
    (tmp_path / "latin1.txt").write_bytes(b"# caf\xe9\nk=3 n=3\n1 2 3\n")
    target = str(tmp_path / name)
    command = ["coeffs", "--max-codegree", "3"] if option == "--input" else ["atlas-export", "--k", "3", "--d", "3"]
    assert dispatch([*command, option, target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: cannot ")
    assert f"{target}: {reason}" in captured.err


def test_dispatch_builds_its_parser_once(edge_file, monkeypatch):
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    cli._build_parser.cache_clear()
    try:
        assert dispatch(["simplex-ck", "--k", "3"]) == 0
        first = len(built)  # the top parser and its subparsers
        assert dispatch(["coeffs", "--input", edge_file, "--max-codegree", "3", "--format", "csv"]) == 0
        assert dispatch(["veblen", "count", "--k", "3", "--d", "4"]) == 0
        assert len(built) == first > 0
    finally:
        cli._build_parser.cache_clear()


def test_usage_error_leaves_the_shared_parser_usable(edge_file, capsys):
    assert dispatch(["coeffs", "--input", edge_file]) == 2
    assert "usage error" in capsys.readouterr().err
    assert dispatch(["coeffs", "--input", edge_file, "--max-codegree", "3", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "0,1\n1,0\n2,0\n3,-3\n"
    assert captured.err == ""


def test_domain_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("k=3 n=3\n1 2\n")
    assert dispatch(["coeffs", "--input", str(bad), "--max-codegree", "3"]) == 1
    assert "ArityError" in capsys.readouterr().err

    notveblen = tmp_path / "nv.txt"
    notveblen.write_text("k=3 n=4\n1 2 3\n1 2 4\n")
    assert dispatch(["assoc-coeff", "--input", str(notveblen)]) == 1
    assert "NotVeblen" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["veblen", "count", "--k", "-2", "--d", "3"],
        ["veblen", "enumerate", "--k", "-1", "--d", "3"],
        ["atlas-export", "--k", "-3", "--d", "3"],
        ["atlas-export", "--k", "1", "--max-codegree", "0"],
        ["veblen", "count", "--k", "1", "--d", "0"],
        ["veblen", "count", "--k", "0", "--d", "3"],
    ],
)
def test_arity_below_two_is_a_domain_error(argv, capsys):
    # refused before any enumeration, even of no edges
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert "error: DomainError: uniformity k must be >= 2" in captured.err
    assert captured.out == ""
