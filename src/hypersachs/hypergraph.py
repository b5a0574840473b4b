"""k-uniform multi-hypergraph values and their structural predicates.

Vertices are the contiguous integers 1..n; n is stored explicitly so that
isolated vertices survive round-trips (they matter for the ambient factor
(k-1)^n in the coefficient formula).  Edges are sorted k-tuples of distinct
vertices with a positive multiplicity; the edge map is kept sorted so values
hash and compare deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

Edge = tuple[int, ...]
EdgeMultiset = tuple[tuple[Edge, int], ...]


@dataclass(frozen=True)
class MultiHypergraph:
    k: int
    n: int
    edges: EdgeMultiset

    @classmethod
    def build(cls, k: int, n: int, edges=()) -> "MultiHypergraph":
        """Normalize and validate an edge collection.

        Each item of `edges` is either an iterable of vertices (multiplicity
        1, repeats accumulate) or a pair (vertices, multiplicity).
        """
        if k < 2:
            raise DomainError(f"uniformity k must be >= 2, got {k}")
        if n < 0:
            raise DomainError(f"vertex count n must be >= 0, got {n}")
        acc: dict[Edge, int] = {}
        for item in edges:
            if (
                isinstance(item, tuple)
                and len(item) == 2
                and not isinstance(item[0], int)
            ):
                verts, mult = item
            else:
                verts, mult = item, 1
            edge = tuple(sorted(verts))
            if len(edge) != k or len(set(edge)) != k:
                raise DomainError(
                    f"edge {tuple(verts)} must have exactly {k} distinct vertices"
                )
            if edge[0] < 1 or edge[-1] > n:
                raise DomainError(f"edge {edge} has a vertex outside 1..{n}")
            if mult < 1:
                raise DomainError(f"edge {edge} has nonpositive multiplicity {mult}")
            acc[edge] = acc.get(edge, 0) + mult
        return cls(k=k, n=n, edges=tuple(sorted(acc.items())))

    # ------------------------------------------------------------------
    # basic views

    @property
    def edge_count(self) -> int:
        """Total number of edges counted with multiplicity."""
        return sum(m for _, m in self.edges)

    @property
    def support(self) -> tuple[Edge, ...]:
        return tuple(e for e, _ in self.edges)

    def degrees(self) -> dict[int, int]:
        """Degree (with multiplicity) of every vertex 1..n, zeros included."""
        deg = {v: 0 for v in range(1, self.n + 1)}
        for e, m in self.edges:
            for v in e:
                deg[v] += m
        return deg

    @property
    def non_isolated(self) -> tuple[int, ...]:
        return tuple(sorted({v for e, _ in self.edges for v in e}))

    @property
    def is_simple(self) -> bool:
        return all(m == 1 for _, m in self.edges)

    def relabeled(self, mapping: dict[int, int], n: int) -> "MultiHypergraph":
        """Apply an injective vertex relabeling; vertices outside `mapping` are dropped
        only if no edge touches them."""
        return MultiHypergraph.build(self.k, n, [(tuple(mapping[v] for v in e), m) for e, m in self.edges])


def _compositions(total: int, parts: int, lo=None, hi=None):
    """Every tuple t of `parts` nonnegative integers summing to `total`, in lex order,
    with lo[i] <= t[i] <= hi[i] if bounds are given (lo >= 0).  A part takes only values
    the later parts' bounds can complete, so the work is proportional to the output."""
    lo, hi = lo or [0] * parts, hi or [total] * parts
    least, most = [0] * (parts + 1), [0] * (parts + 1)  # what parts i.. can sum to
    for i in reversed(range(parts)):
        least[i], most[i] = least[i + 1] + lo[i], most[i + 1] + hi[i]

    def rec(i: int, left: int):
        if i == parts - 1:
            yield (left,)
            return
        for first in range(max(lo[i], left - most[i + 1]), min(hi[i], left - least[i + 1]) + 1):
            for rest in rec(i + 1, left - first):
                yield (first,) + rest

    if least[0] <= total <= most[0]:
        yield from rec(0, total) if parts else [()]


def require_simple(H: MultiHypergraph) -> None:
    if not H.is_simple:
        raise DomainError("operation requires a simple hypergraph (all multiplicities 1)")


def flatten(H: MultiHypergraph) -> MultiHypergraph:
    """Forget multiplicities: the simple hypergraph on the same support."""
    return MultiHypergraph(H.k, H.n, tuple((e, 1) for e, _ in H.edges))


def component_supports(H: MultiHypergraph) -> list[frozenset[int]]:
    """Vertex sets of the connected components (isolated vertices dropped),
    ordered by smallest member."""
    parent: dict[int, int] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e, _ in H.edges:
        for v in e:
            parent.setdefault(v, v)
        r = find(e[0])
        for v in e[1:]:
            parent[find(v)] = r
    groups: dict[int, set[int]] = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def components(H: MultiHypergraph) -> list[MultiHypergraph]:
    """Connected components as standalone hypergraphs.

    Each component is relabeled order-preservingly onto 1..m so the value is
    well-formed on its own; isolated vertices of the input do not appear.
    """
    out = []
    for verts in component_supports(H):
        ordered = sorted(verts)
        mapping = {v: i + 1 for i, v in enumerate(ordered)}
        edges = [
            (tuple(mapping[v] for v in e), m)
            for e, m in H.edges
            if e[0] in verts
        ]
        out.append(MultiHypergraph.build(H.k, len(ordered), edges))
    return out


def is_connected(H: MultiHypergraph) -> bool:
    return len(component_supports(H)) == 1


def is_veblen(H: MultiHypergraph) -> bool:
    """True iff every positive vertex degree is divisible by k."""
    return all(d % H.k == 0 for d in H.degrees().values())
