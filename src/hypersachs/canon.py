"""Canonical codes and automorphism counting for multi-hypergraphs.

The canonical form of a multi-hypergraph is the lexicographically minimal
edge encoding over all vertex relabelings compatible with an iteratively
refined structural coloring.  Labels are assigned one position at a time;
an edge enters the encoding as soon as all its endpoints are labeled, keyed
to the position that completed it, so the encoding grows append-only and
admits sound prefix pruning.  The same search counts the relabelings that
attain the minimum, which equals |Aut(H)| by orbit-stabilizer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import NormalizationFailure, SizeExceeded
from .hypergraph import MultiHypergraph, components, flatten, is_connected

VERTEX_BOUND = 16


@dataclass(frozen=True)
class CanonicalCode:
    """Relabeling-invariant identifier: uniformity, non-isolated vertex count
    and the canonical edge multiset, serialized to bytes."""

    blob: bytes

    def hexdigest(self) -> str:
        return hashlib.sha256(self.blob).hexdigest()[:16]

    def __repr__(self):
        return f"CanonicalCode({self.hexdigest()})"


@dataclass(frozen=True)
class AutReport:
    """|Aut(H)|, |Aut(flatten(H))| and the per-component product of the
    |Aut(flat component)| / |Aut(component)| ratios."""

    aut_count: int
    flat_aut_count: int
    ratio: int


def _refine_colors(verts, edge_items):
    """Iterated structural coloring; returns vertex -> color id with color ids
    numbered in a relabeling-invariant order."""
    deg = {v: 0 for v in verts}
    for e, m in edge_items:
        for v in e:
            deg[v] += m
    ranks = {c: i for i, c in enumerate(sorted({deg[v] for v in verts}))}
    colors = {v: ranks[deg[v]] for v in verts}
    ncolors = len(ranks)
    while True:
        keys = {}
        for v in verts:
            incident = []
            for e, m in edge_items:
                if v in e:
                    incident.append((m, tuple(sorted(colors[w] for w in e if w != v))))
            keys[v] = (colors[v], tuple(sorted(incident)))
        ranks = {c: i for i, c in enumerate(sorted(set(keys.values())))}
        colors = {v: ranks[keys[v]] for v in verts}
        if len(ranks) == ncolors:
            return colors
        ncolors = len(ranks)


def _canon_search(H: MultiHypergraph) -> tuple[tuple, int]:
    """Minimal position-blocked edge encoding and the number of relabelings
    attaining it (= |Aut| acting on the non-isolated vertices)."""
    verts = H.non_isolated
    m = len(verts)
    if m > VERTEX_BOUND:
        raise SizeExceeded(
            f"canonical form supports at most {VERTEX_BOUND} non-isolated vertices, got {m}"
        )
    if m == 0:
        return ((), 1)
    edge_items = [(frozenset(e), mult) for e, mult in H.edges]
    colors = _refine_colors(verts, edge_items)
    cell_map: dict[int, list[int]] = {}
    for v in verts:
        cell_map.setdefault(colors[v], []).append(v)
    cells = [sorted(cell_map[c]) for c in sorted(cell_map)]

    # per-edge count of still-unlabeled endpoints; an edge joins the encoding
    # at the position that drops its count to zero
    need = [len(e) for e, _ in edge_items]
    incident_idx: dict[int, list[int]] = {v: [] for v in verts}
    for idx, (e, _) in enumerate(edge_items):
        for v in e:
            incident_idx[v].append(idx)

    best: list[tuple] | None = None
    aut = 0
    label: dict[int, int] = {}
    used: set[int] = set()

    def rec(ci: int, left_in_cell: int, pos: int, blocks: list[tuple], tied: bool):
        nonlocal best, aut
        if left_in_cell == 0:
            ci += 1
            if ci == len(cells):
                if best is None or blocks < best:
                    best = blocks[:]
                    aut = 1
                elif blocks == best:
                    aut += 1
                return
            left_in_cell = len(cells[ci])
        for v in cells[ci]:
            if v in used:
                continue
            label[v] = pos
            used.add(v)
            block = []
            for idx in incident_idx[v]:
                need[idx] -= 1
                if need[idx] == 0:
                    e, mult = edge_items[idx]
                    block.append((tuple(sorted(label[w] for w in e)), mult))
            block.sort()
            blk = tuple(block)
            now_tied = tied
            prune = False
            if now_tied and best is not None:
                ref = best[pos]
                if blk > ref:
                    prune = True
                elif blk < ref:
                    now_tied = False
            if not prune:
                blocks.append(blk)
                rec(ci, left_in_cell - 1, pos + 1, blocks, now_tied)
                blocks.pop()
            for idx in incident_idx[v]:
                need[idx] += 1
            used.discard(v)
            del label[v]

    rec(0, len(cells[0]), 0, [], True)
    assert best is not None
    return (tuple(best), aut)


def _encode(k: int, m: int, blocks: tuple) -> bytes:
    parts = [f"k{k}", f"n{m}"]
    for block in blocks:
        for enc, mult in block:
            parts.append(",".join(map(str, enc)) + f"x{mult}")
        parts.append(";")
    return "|".join(parts).encode()


def canon_and_aut(H: MultiHypergraph) -> tuple[CanonicalCode, int]:
    """Canonical code together with |Aut(H)| (non-isolated vertices only)."""
    blocks, aut = _canon_search(H)
    code = CanonicalCode(_encode(H.k, len(H.non_isolated), blocks))
    return code, aut


def canonical_form(H: MultiHypergraph) -> CanonicalCode:
    return canon_and_aut(H)[0]


_aut_memo: dict[CanonicalCode, AutReport] = {}


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
