"""Enumeration of Veblen hypergraphs up to isomorphism.

Two flavours:

* free enumeration: all connected isomorphism classes with a given edge count
  (counting multiplicity) and arity, generated by an orderly DFS over sorted
  edge sequences and deduplicated by canonical code;
* host-relative enumeration: the classes realized by multiplicity functions on
  the edge set of a fixed host, together with how many functions realize each
  class (the labeled count).

Occurrence counts of disconnected graphs in a host factor over components,
divided by the symmetry of repeated components, so they can be non-integral.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .canon import VERTEX_BOUND, CanonicalCode, canonical_form
from .errors import SizeExceeded
from .hypergraph import MultiHypergraph, components, is_connected, require_simple
from .rooting import assoc_coeff_connected

MAX_FREE_EDGES = 9


@dataclass(frozen=True)
class IsoClassRecord:
    """One isomorphism class: canonical code, a representative on vertices
    1..v, its edge count, and optionally its associated coefficient and (for
    host-relative enumeration) the number of multiplicity functions on the
    host realizing the class."""

    code: CanonicalCode
    representative: MultiHypergraph
    edge_count: int
    assoc_coeff: Fraction | None = None
    labeled_count: int | None = None


@dataclass(frozen=True)
class OccurrenceCount:
    """Number of sub-multi-hypergraph occurrences; integral whenever the
    counted graph is connected."""

    value: Fraction

    @property
    def is_integral(self) -> bool:
        return self.value.denominator == 1

    def integer_value(self) -> int:
        if not self.is_integral:
            raise ValueError(f"occurrence count {self.value} is not integral")
        return self.value.numerator


def _sorted_records(by_code: dict, with_coeffs: bool) -> tuple[IsoClassRecord, ...]:
    out = []
    for code in sorted(by_code, key=lambda c: c.blob):
        rep, count = by_code[code]
        coeff = assoc_coeff_connected(rep) if with_coeffs else None
        out.append(
            IsoClassRecord(
                code=code,
                representative=rep,
                edge_count=rep.edge_count,
                assoc_coeff=coeff,
                labeled_count=count,
            )
        )
    return tuple(out)


_free_memo: dict[tuple[int, int], dict] = {}


def enumerate_connected_veblen(
    k: int, d: int, with_coeffs: bool = False
) -> tuple[IsoClassRecord, ...]:
    """All connected Veblen isomorphism classes with arity k and exactly d
    edges counted with multiplicity, sorted by canonical code.

    Generation walks lexicographically non-decreasing edge sequences in which
    new vertices appear as consecutive integers and every edge touches an
    already-used vertex; every connected class has such a labeling, and
    canonical codes collapse duplicates.
    """
    if d > MAX_FREE_EDGES:
        raise SizeExceeded(
            f"free enumeration is limited to {MAX_FREE_EDGES} edges, got {d}"
        )
    if d <= 0:
        return ()
    cached = _free_memo.get((k, d))
    if cached is not None:
        records = _sorted_records(cached, with_coeffs)
        return tuple(
            IsoClassRecord(r.code, r.representative, r.edge_count, r.assoc_coeff, None)
            for r in records
        )
    max_verts = min(d, VERTEX_BOUND)
    by_code: dict[CanonicalCode, list] = {}
    deg: dict[int, int] = {}
    seq: list[tuple[int, ...]] = []

    def candidates(prev: tuple[int, ...], maxu: int):
        # old vertices that may appear alongside a (possibly empty) run of new
        # ones; the run must start at maxu+1
        for j in range(0, k):
            if maxu + j > max_verts:
                break
            new_run = tuple(range(maxu + 1, maxu + 1 + j))
            for old in itertools.combinations(range(1, maxu + 1), k - j):
                e = tuple(sorted(old + new_run))
                if e >= prev:
                    yield e

    def rec(prev: tuple[int, ...], maxu: int, remaining: int):
        if remaining == 0:
            deficits = sum((-dv) % k for dv in deg.values())
            if deficits == 0:
                counts: dict[tuple[int, ...], int] = {}
                for e in seq:
                    counts[e] = counts.get(e, 0) + 1
                H = MultiHypergraph.build(k, maxu, tuple(counts.items()))
                assert is_connected(H)
                code = canonical_form(H)
                if code not in by_code:
                    by_code[code] = [H, 0]
                by_code[code][1] += 1
            return
        open_verts = [v for v, dv in deg.items() if dv % k != 0]
        vmin = min(open_verts) if open_verts else None
        for e in candidates(prev, maxu):
            if vmin is not None and e[0] > vmin:
                continue
            for v in e:
                deg[v] = deg.get(v, 0) + 1
            total_def = sum((-dv) % k for dv in deg.values())
            worst = max(((-dv) % k for dv in deg.values()), default=0)
            if total_def <= k * (remaining - 1) and worst <= remaining - 1:
                seq.append(e)
                rec(e, max(maxu, e[-1] if e else maxu), remaining - 1)
                seq.pop()
            for v in e:
                deg[v] -= 1
                if deg[v] == 0:
                    del deg[v]

    first = tuple(range(1, k + 1))
    for v in first:
        deg[v] = 1
    seq.append(first)
    rec(first, k, d - 1)
    seq.pop()
    deg.clear()
    _free_memo[(k, d)] = by_code
    records = _sorted_records(by_code, with_coeffs)
    # labeled_count is not meaningful outside a host
    return tuple(
        IsoClassRecord(r.code, r.representative, r.edge_count, r.assoc_coeff, None)
        for r in records
    )


def count_all_veblen(k: int, d: int) -> int:
    """Number of Veblen isomorphism classes (connected or not, no isolated
    vertices) with arity k and exactly d edges counted with multiplicity."""
    if d <= 0:
        return 0
    per_size = [len(enumerate_connected_veblen(k, j)) for j in range(1, d + 1)]
    dp = [0] * (d + 1)
    dp[0] = 1
    for j, classes in enumerate(per_size, start=1):
        if classes == 0:
            continue
        nxt = [0] * (d + 1)
        for t in range(d + 1):
            if dp[t] == 0:
                continue
            mu = 0
            while t + j * mu <= d:
                nxt[t + j * mu] += dp[t] * comb(classes + mu - 1, mu)
                mu += 1
        dp = nxt
    return dp[d]


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


_infra_memo: dict[tuple[MultiHypergraph, int], dict] = {}


def _infragraph_classes_raw(host: MultiHypergraph, d: int) -> dict:
    cached = _infra_memo.get((host, d))
    if cached is not None:
        return cached
    edges = [e for e, _ in host.edges]
    incident: dict[int, list[int]] = {}
    for idx, e in enumerate(edges):
        for v in e:
            incident.setdefault(v, []).append(idx)
    by_code: dict[CanonicalCode, list] = {}
    for mu in _compositions(d, len(edges)):
        deg_ok = True
        for v, idxs in incident.items():
            if sum(mu[i] for i in idxs) % host.k != 0:
                deg_ok = False
                break
        if not deg_ok:
            continue
        chosen = tuple((edges[i], m) for i, m in enumerate(mu) if m > 0)
        G = MultiHypergraph.build(host.k, host.n, chosen)
        if not is_connected(G):
            continue
        rep = components(G)[0]
        code = canonical_form(rep)
        if code not in by_code:
            by_code[code] = [rep, 0]
        by_code[code][1] += 1
    _infra_memo[(host, d)] = by_code
    return by_code


def connected_infragraph_classes(
    host: MultiHypergraph, d: int, with_coeffs: bool = False
) -> tuple[IsoClassRecord, ...]:
    """Isomorphism classes of connected Veblen graphs with d edges realized by
    multiplicity functions on the host's edge set, with labeled counts."""
    require_simple(host)
    if d <= 0:
        return ()
    return _sorted_records(_infragraph_classes_raw(host, d), with_coeffs)


def count_infragraph(host: MultiHypergraph, H: MultiHypergraph) -> OccurrenceCount:
    """Occurrence count of H in the host: for connected H the number of
    multiplicity functions on host edges realizing H's class; in general the
    product over H's component classes divided by the factorials of repeated
    components."""
    require_simple(host)
    if host.k != H.k:
        return OccurrenceCount(Fraction(0))
    if H.edge_count == 0:
        return OccurrenceCount(Fraction(1))
    class_mult: dict[CanonicalCode, list] = {}
    for comp in components(H):
        code = canonical_form(comp)
        if code not in class_mult:
            class_mult[code] = [comp, 0]
        class_mult[code][1] += 1
    value = Fraction(1)
    for code, (comp, mu) in class_mult.items():
        table = _infragraph_classes_raw(host, comp.edge_count)
        hit = table.get(code)
        n_comp = hit[1] if hit is not None else 0
        if n_comp == 0:
            return OccurrenceCount(Fraction(0))
        value *= Fraction(n_comp) ** mu / factorial(mu)
    return OccurrenceCount(value)


def clear_caches() -> None:
    _infra_memo.clear()
    _free_memo.clear()
