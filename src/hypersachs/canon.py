"""Canonical codes and automorphism counting for multi-hypergraphs.

A connected multi-hypergraph is labeled by individualization-refinement
(McKay & Piperno, *Practical graph isomorphism, II*, 2014).  Vertex colours
are refined to an equitable partition: a vertex's new colour is its old one
together with the sorted multiset of (multiplicity, member colours) of its
edges, repeated until no cell splits; a round keys only the vertices of
non-singleton cells, each against its own cell.  The search tree branches on
the first smallest non-singleton cell, individualizing each of its vertices
in turn and refining again.  At a leaf the partition is discrete, and the
leaf's code is the sorted edge encoding under its labels; the canonical code
is the least leaf code.  A class is its code, plain bytes: "k<k>|n<m>" and
then "|<labels>x<mult>" per edge in that order, ASCII-encoded; equal bytes
mean isomorphic graphs.

Two leaves with equal codes differ by an automorphism.  Automorphisms prune
the search twice: a child of a node on the first path is skipped when its
vertex lies in the orbit of a child already explored, and a subtree is left
as soon as one of its leaves matches the first or the best leaf.  The
automorphisms found generate Aut, and `_search` returns them; |Aut| is the
product of the first path's orbit sizes under them (orbit-stabilizer).

A disconnected graph's code is b"u" and its sorted component codes joined
by b"+", so it never equals a connected code.  Its |Aut| is the product
of the component counts times the factorial of each repeat count, and
VERTEX_BOUND applies to each component on its own.  Isolated vertices are
ignored throughout.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial, prod

from .errors import NormalizationFailure, SizeExceeded
from .hypergraph import MultiHypergraph, component_supports, components, flatten, is_connected

VERTEX_BOUND = 16


@dataclass(frozen=True)
class AutReport:
    """|Aut(H)|, |Aut(flatten(H))| and the per-component product of the
    |Aut(flat component)| / |Aut(component)| ratios."""

    aut_count: int
    flat_aut_count: int
    ratio: int


def _refine(col: list[int], ncells: int, edges, inc) -> tuple[list[int], int]:
    """Equitable refinement of `col` (colours 0..ncells-1), in place: cells split
    in place, sub-cells ordered by their keys, and only non-singleton cells are keyed."""
    cells: list[list[int]] = [[] for _ in range(ncells)]
    for v, c in enumerate(col):
        cells[c].append(v)
    while ncells < len(col):  # a discrete colouring cannot split
        ekeys: dict[int, tuple] = {}  # (multiplicity, member colours) of the edges keyed so far
        split = []
        for cell in cells:
            parts: dict[tuple, list[int]] = {}  # the cell's vertices by key
            for v in cell if len(cell) > 1 else ():
                key = []
                for i in inc[v]:
                    if i not in ekeys:
                        ekeys[i] = (edges[i][1], tuple(sorted(map(col.__getitem__, edges[i][0]))))
                    key.append(ekeys[i])
                key.sort()
                parts.setdefault(tuple(key), []).append(v)
            split += [parts[key] for key in sorted(parts)] if len(parts) > 1 else [cell]
        if len(split) == ncells:
            break
        cells, ncells = split, len(split)
        for c, cell in enumerate(cells):
            for v in cell:
                col[v] = c
    return col, ncells


def _search(m: int, edges) -> tuple[tuple, int, list[tuple[int, ...]], list[int]]:
    """Least leaf code, |Aut|, generators of Aut (tuples of vertex images) and
    the least leaf's labeling (vertex -> position) of a connected graph on
    vertices 0..m-1, whose edge labels are comparable."""
    inc: list[list[int]] = [[] for _ in range(m)]
    for i, (e, _) in enumerate(edges):
        for v in e:
            inc[v].append(i)
    orbit = list(range(m))  # union-find over the automorphisms found

    def find(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = orbit[orbit[v]]
            v = orbit[v]
        return v

    first: list = []  # [code, colouring, path] of the first leaf
    best: list = []  # the same for the least leaf so far
    aut = 1
    gens: list[tuple[int, ...]] = []

    def leaf(col: list[int], path: list[int]) -> int | None:
        """Compare a leaf; on a match with the first or best leaf, record the
        automorphism and return the depth of the common ancestor."""
        code = tuple(sorted([(tuple(sorted(map(col.__getitem__, e))), mult) for e, mult in edges]))
        if not first:
            first[:] = best[:] = [code, col, path[:]]
            return None
        for ref in (first, best):
            if code == ref[0]:
                at = [0] * m
                for u, c in enumerate(col):
                    at[c] = u
                gens.append(tuple(at[c] for c in ref[1]))
                for u, v in enumerate(gens[-1]):
                    orbit[find(u)] = find(v)
                depth = 0
                while path[depth] == ref[2][depth]:
                    depth += 1
                return depth
        if code < best[0]:
            best[:] = [code, col, path[:]]
        return None

    def node(col: list[int], ncells: int, path: list[int], on_first: bool) -> int | None:
        nonlocal aut
        if ncells == m:
            return leaf(col, path)
        target = min((s, c) for c, s in enumerate(map(col.count, range(ncells))) if s > 1)[1]
        depth = len(path)
        explored: list[int] = []
        for w in [v for v, c in enumerate(col) if c == target]:
            if on_first and explored and find(w) in {find(x) for x in explored}:
                continue
            child = [c + (c > target or (c == target and v != w)) for v, c in enumerate(col)]
            child, n = _refine(child, ncells + 1, edges, inc)
            path.append(w)
            jump = node(child, n, path, on_first and not first)
            path.pop()
            explored.append(w)
            if jump is not None and jump < depth:
                return jump
        if on_first:
            root = find(explored[0])
            aut *= sum(1 for v in range(m) if find(v) == root)
        return None

    col, ncells = _refine([0] * m, 1, edges, inc)
    node(col, ncells, [], True)
    return best[0], aut, gens, best[1]


def _connected_code(k: int, verts, edges) -> tuple[bytes, int, list, list[int]]:
    """Code, |Aut|, generators of Aut and canonical labeling (as `_search`
    gives them, on positions in `verts`) of the connected graph with these
    edges on `verts`."""
    m = len(verts)
    if m > VERTEX_BOUND:
        raise SizeExceeded(
            f"canonical form supports at most {VERTEX_BOUND} vertices per component, got {m}"
        )
    index = {v: i for i, v in enumerate(verts)}
    local = [(tuple(index[v] for v in e), mult) for e, mult in edges]
    code, aut, gens, label = _search(m, local) if m else ((), 1, [], [])
    parts = [f"k{k}", f"n{m}"] + [",".join(map(str, e)) + f"x{mult}" for e, mult in code]
    return "|".join(parts).encode(), aut, gens, label


def _union_code(codes) -> bytes:
    """Code of the disjoint union of connected graphs with these codes."""
    if len(codes) == 1:
        return codes[0]
    return b"u" + b"+".join(sorted(codes))


def canon_and_aut(H: MultiHypergraph) -> tuple[bytes, int]:
    """Canonical code together with |Aut(H)| (non-isolated vertices only)."""
    supports = component_supports(H)
    if len(supports) <= 1:
        return _connected_code(H.k, H.non_isolated, H.edges)[:2]
    parts = [
        _connected_code(H.k, sorted(s), [(e, mult) for e, mult in H.edges if e[0] in s])[:2]
        for s in supports
    ]
    codes = [code for code, _ in parts]
    aut = prod(a for _, a in parts) * prod(factorial(r) for r in Counter(codes).values())
    return _union_code(codes), aut


def canonical_form(H: MultiHypergraph) -> bytes:
    return canon_and_aut(H)[0]


_aut_memo: dict[bytes, AutReport] = {}


def automorphisms(H: MultiHypergraph) -> AutReport:
    """Exact automorphism counts and the flat/multi automorphism ratio.

    The ratio is computed per connected component (where it is a positive
    integer by orbit-stabilizer, checked) and multiplied across components.
    """
    code, aut = canon_and_aut(H)
    hit = _aut_memo.get(code)
    if hit is not None:
        return hit
    _, flat_aut = canon_and_aut(flatten(H))
    if not H.edges:
        pairs = []
    elif is_connected(H):
        pairs = [(flat_aut, aut)]
    else:
        pairs = []
        for comp in components(H):
            _, a = canon_and_aut(comp)
            _, fa = canon_and_aut(flatten(comp))
            pairs.append((fa, a))
    ratio = 1
    for fa, a in pairs:
        q, r = divmod(fa, a)
        if r or q < 1:
            raise NormalizationFailure(f"flat automorphism count {fa} is not a multiple of {a}")
        ratio *= q
    report = AutReport(aut_count=aut, flat_aut_count=flat_aut, ratio=ratio)
    _aut_memo[code] = report
    return report


def clear_caches() -> None:
    _aut_memo.clear()
