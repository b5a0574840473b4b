"""Builders and the test-only oracles shared across test modules: Euler
circuits by brute force, the walk expansion, class weights over listed
orientations, the simplex recurrence, the composition scan and the
exhaustive canonical-labeling search."""

from fractions import Fraction
from itertools import combinations, product
from math import factorial, prod

from hypersachs.canon import canonical_form
from hypersachs.digraph import arborescence_count, is_eulerian
from hypersachs.errors import NotEulerian, SizeExceeded
from hypersachs.hypergraph import MultiHypergraph, components, is_connected, is_veblen
from hypersachs.rooting import euler_orientations
from hypersachs.simplex import cycle_factor


def graph2(n, edges):
    """Ordinary graph as a 2-uniform multi-hypergraph."""
    return MultiHypergraph.build(2, n, edges)


def all_labeled_graphs(n):
    """Every simple graph on the labeled vertex set 1..n."""
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield graph2(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def random_graph(rng, n, p):
    pairs = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
    return graph2(n, pairs)


def random_3graph(rng, n, p):
    triples = [e for e in combinations(range(1, n + 1), 3) if rng.random() < p]
    return MultiHypergraph.build(3, n, triples)


def all_simple_3graphs(n):
    """Every simple 3-uniform hypergraph on the labeled vertex set 1..n."""
    triples = list(combinations(range(1, n + 1), 3))
    for mask in range(1 << len(triples)):
        yield MultiHypergraph.build(
            3, n, [t for i, t in enumerate(triples) if mask >> i & 1]
        )


def disjoint_union(H1, H2):
    """Vertex-disjoint union, H2 shifted past H1's vertex range."""
    assert H1.k == H2.k
    shift = H1.n
    edges = list(H1.edges)
    for e, m in H2.edges:
        edges.append((tuple(v + shift for v in e), m))
    return MultiHypergraph.build(H1.k, H1.n + H2.n, edges)


def euler_circuit_count_bruteforce(D, max_arcs=10):
    """Oracle: exhaustively enumerate Euler tours (distinguishable arc copies)
    and divide by the tour length to collapse rotations."""
    if not is_eulerian(D):
        raise NotEulerian("Euler circuit count requires a balanced, connected digraph")
    total_arcs = D.arc_count
    if total_arcs > max_arcs:
        raise SizeExceeded(f"brute-force circuit count limited to {max_arcs} arcs")
    support = D.non_isolated
    out_by_vertex = {v: [] for v in support}
    for (u, v), _ in D.arcs:
        out_by_vertex[u].append((u, v))
    remaining = {arc: m for arc, m in D.arcs}

    def walks(current, left, start):
        if left == 0:
            return 1 if current == start else 0
        total = 0
        for arc in out_by_vertex[current]:
            if remaining[arc] > 0:
                remaining[arc] -= 1
                total += walks(arc[1], left - 1, start)
                remaining[arc] += 1
        return total

    pointed = sum(walks(s, total_arcs, s) for s in support)
    for _, m in D.arcs:
        pointed *= factorial(m)
    circuits, rem = divmod(pointed, total_arcs)
    assert rem == 0, "pointed tour count must be divisible by the tour length"
    return circuits


def orientation_weight(H):
    """Oracle for rooting.assoc_coeff_connected: the weight summed over the
    distinct orientations that euler_orientations lists, each carrying its
    rooting multiplicity times an arborescence count from digraph, over the
    product of in-degrees.  It shares the root-count walk and the star-union
    construction with the package; the walk expansion below shares neither."""
    orientations = euler_orientations(H)
    if not orientations:
        return Fraction(0)
    denom = prod(orientations[0].digraph.in_degrees().values())
    total = 0
    for orient in orientations:
        root = orient.digraph.non_isolated[0]
        total += orient.multiplicity * arborescence_count(orient.digraph, root)
    return Fraction(total, denom)


def derangement_cycle_sum_recurrence(k):
    """Oracle for simplex._derangement_cycle_sum: the sum over derangements
    of [k+1] of prod_cycles cycle_factor, by the O(k^2) exponential-formula
    recurrence Q_d = sum_j f(j) (d-1)!/(d-j)! Q_{d-j}."""
    m = k + 1
    Q = [0] * (m + 1)
    Q[0] = 1
    fact = [factorial(i) for i in range(m + 1)]
    for d in range(2, m + 1):
        acc = 0
        for j in range(2, d + 1):
            acc += cycle_factor(k, j) * (fact[d - 1] // fact[d - j]) * Q[d - j]
        Q[d] = acc
    return Q[m]


# ----------------------------------------------------------------------
# Walk-expansion oracle for power sums and class weights.
#
# This evaluates the defining trace formula of the adjacency tensor
# (Morozov & Shakirov 2011; Shao, Qi & Hu, Linear Multilinear Algebra 63,
# 2015) directly, with Z the n x n matrix of variables z_vw:
#
#   Tr_d = (k-1)^(n-1) * sum over d_1 + ... + d_n = d of
#          prod_v [(sum_{e ∋ v} m_e prod_{w ∈ e∖v} ∂/∂z_vw)^(d_v) / ((k-1) d_v)!]
#          applied to tr(Z^((k-1) d)).
#
# Expanding each vertex's operator gives "star" multiplicities s[v, e]: the
# number of times edge e is rooted at v.  Together they fix an arc profile c
# (the multiset of arcs v -> w) and an edge multiset mu (mu_e = sum_v s[v, e]).
# Differentiating tr(Z^L) by the monomial of c gives W(c) * prod_a c_a!, where
# W(c) counts the pointed closed walks whose arc multiset is c; it vanishes
# unless c is in/out-balanced.  Grouping the star terms by mu gives the
# class weights: a connected class G with d edges contributes
# d * (k-1)^n * weight(G) to Tr_d.
#
# Nothing here uses the package's class weights, enumerators, rootings,
# digraphs or linear algebra; MultiHypergraph is only read as input.


def _compositions(total, parts):
    """Every tuple of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class WalkExpansion:
    """Walk-expansion evaluation of the trace formula on one host.

    The closed-walk memo is keyed by arc counts over the host's full arc
    list, so it is shared by every profile and every order on the host.
    """

    def __init__(self, host):
        self.k, self.n, self.edges = host.k, host.n, host.edges
        self.arcs = sorted(
            {(v, w) for e, _ in host.edges for v in e for w in e if v != w}
        )
        self.arc_index = {a: i for i, a in enumerate(self.arcs)}
        self.out_arcs = {}
        for i, (v, _) in enumerate(self.arcs):
            self.out_arcs.setdefault(v, []).append(i)
        self._trail_memo = {}

    def _trails(self, cur, rem):
        """Arc sequences from `cur` that use every remaining arc exactly once."""
        if not any(rem):
            return 1
        key = (cur, rem)
        hit = self._trail_memo.get(key)
        if hit is not None:
            return hit
        total = 0
        for i in self.out_arcs.get(cur, ()):
            if rem[i]:
                nxt = rem[:i] + (rem[i] - 1,) + rem[i + 1:]
                total += self._trails(self.arcs[i][1], nxt)
        self._trail_memo[key] = total
        return total

    def closed_walks(self, profile):
        """W(c): pointed closed walks with arc multiset `profile` (counts
        aligned with self.arcs, balanced, not all zero).

        A trail that uses every arc of a balanced profile ends where it
        started.  Rotating a closed walk of length L through its L start
        positions visits a vertex v0 as often as v0 has out-arcs, so
        W(c) * out(v0) = L * (closed walks starting at v0)."""
        out = {}
        for (v, _), c in zip(self.arcs, profile):
            out[v] = out.get(v, 0) + c
        v0 = max(out, key=out.get)
        rotations = sum(profile) * self._trails(v0, profile)
        assert rotations % out[v0] == 0
        return rotations // out[v0]

    def _star_term(self, stars):
        """Contribution of one choice of star multiplicities, given as
        (vertex, edge index, s) triples; 0 unless the arc profile is
        balanced."""
        k = self.k
        counts = [0] * len(self.arcs)
        d_at = {}
        factor = Fraction(1)
        for v, i, s in stars:
            edge, mult = self.edges[i]
            d_at[v] = d_at.get(v, 0) + s
            factor *= Fraction(mult**s, factorial(s))
            for w in edge:
                if w != v:
                    counts[self.arc_index[(v, w)]] += s
        balance = {}
        for (v, w), c in zip(self.arcs, counts):
            balance[v] = balance.get(v, 0) + c
            balance[w] = balance.get(w, 0) - c
        if any(balance.values()):
            return Fraction(0)
        for dv in d_at.values():
            factor *= Fraction(factorial(dv), factorial((k - 1) * dv))
        for c in counts:
            factor *= factorial(c)
        return factor * self.closed_walks(tuple(counts))

    def edge_multiset_sum(self, mu):
        """Sum of the star terms whose edge multiset is `mu` (aligned with
        the host's edges), including the (k-1)^(n-1) prefactor."""
        per_edge = [
            [
                [(v, i, s) for v, s in zip(edge, split) if s]
                for split in _compositions(m, self.k)
            ]
            for i, ((edge, _), m) in enumerate(zip(self.edges, mu))
        ]
        total = Fraction(0)
        for choice in product(*per_edge):
            total += self._star_term([t for part in choice for t in part])
        return Fraction(self.k - 1) ** (self.n - 1) * total

    def trace(self, d):
        """Tr_d, the power sum of order d."""
        total = Fraction(0)
        for mu in _compositions(d, len(self.edges)):
            # a balanced profile has in-degree = out-degree at v, i.e. the
            # degree of mu at v is k * d_v; skip mu that cannot satisfy it
            deg = {}
            for (edge, _), m in zip(self.edges, mu):
                for v in edge:
                    deg[v] = deg.get(v, 0) + m
            if any(x % self.k for x in deg.values()):
                continue
            total += self.edge_multiset_sum(mu)
        return total


def walk_traces(host, max_order):
    """Tr_1..Tr_max_order of `host` by the walk expansion."""
    oracle = WalkExpansion(host)
    return [oracle.trace(d) for d in range(1, max_order + 1)]


def walk_weight(G):
    """Weight of the connected Veblen class G, read off its own support host:
    the star terms whose edge multiset is G's, over d * (k-1)^n."""
    support = MultiHypergraph.build(G.k, G.n, G.support)
    mu = [m for _, m in G.edges]
    return WalkExpansion(support).edge_multiset_sum(mu) / (
        sum(mu) * Fraction(G.k - 1) ** G.n
    )


def newton_coefficients(traces):
    """Characteristic-polynomial coefficients c_0..c_D from power sums
    Tr_1..Tr_D by Newton's identities: c_d = -(1/d) sum_j Tr_j c_(d-j)."""
    coeffs = [Fraction(1)]
    for d in range(1, len(traces) + 1):
        acc = sum(traces[j - 1] * coeffs[d - j] for j in range(1, d + 1))
        coeffs.append(-Fraction(acc) / d)
    return coeffs


def exponential_formula_coefficients(terms, max_d):
    """Coefficients c_0..c_max_d of prod_G exp(x_G z^(d_G)), truncated at
    z^max_d, for class terms given as (edge count d_G, additive weight x_G)
    pairs.  This assembles the same class terms as the package's power-sum
    route by a different arithmetic, so agreement checks the assembly only."""
    poly = [Fraction(1)] + [Fraction(0)] * max_d
    for dd, x in terms:
        nxt = [Fraction(0)] * (max_d + 1)
        for t in range(max_d + 1):
            if poly[t] == 0:
                continue
            mu = 0
            power = Fraction(1)
            while t + dd * mu <= max_d:
                nxt[t + dd * mu] += poly[t] * power / factorial(mu)
                mu += 1
                power *= x
        poly = nxt
    return poly


# ----------------------------------------------------------------------
# Composition-scan oracle for host-relative enumeration.


def scan_infragraph_classes(host, d):
    """{code: [representative, labeled count]} of the connected Veblen graphs
    with d edges on the host, by scanning every composition of d over the
    host edges in lexicographic order; a class's representative is the first
    component of its first vector.  Oracle for the pruned host walk."""
    edges = [e for e, _ in host.edges]
    out = {}
    for mu in _compositions(d, len(edges)):
        G = MultiHypergraph.build(host.k, host.n, [(e, m) for e, m in zip(edges, mu) if m])
        if not is_veblen(G) or not is_connected(G):
            continue
        rep = components(G)[0]
        hit = out.setdefault(canonical_form(rep), [rep, 0])
        hit[1] += 1
    return out


# ----------------------------------------------------------------------
# Exhaustive canonical-labeling oracle.
#
# The single-refinement search the package used before individualization-
# refinement: colours are refined once at the root, and every relabeling
# compatible with them is tried, with prefix pruning against the least
# encoding.  It counts |Aut| by visiting every leaf that attains the minimum,
# so it is limited to ORACLE_VERTICES vertices.  Its codes are whole-graph
# encodings (components are not split), so tests compare the partition into
# classes it induces, not its bytes.

ORACLE_VERTICES = 8


def _oracle_refine_colors(verts, edge_items):
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


def oracle_canon(H):
    """(code, |Aut|) of H on its non-isolated vertices: the minimal
    position-blocked edge encoding and the number of relabelings attaining it."""
    code, labelings = _oracle_search(H)
    return code, len(labelings)


def oracle_orbits(H):
    """The vertex orbits of Aut(H), as a set of frozensets: two relabelings
    attaining the minimal encoding differ by an automorphism."""
    _, labelings = _oracle_search(H)
    first = labelings[0]
    return {frozenset(w for lab in labelings for w in lab if lab[w] == first[v]) for v in first}


def _oracle_search(H):
    """The minimal encoding of oracle_canon and every relabeling attaining it."""
    verts = H.non_isolated
    m = len(verts)
    if m > ORACLE_VERTICES:
        raise ValueError(f"the oracle is limited to {ORACLE_VERTICES} vertices, got {m}")
    if m == 0:
        return ((H.k, ()), [{}])
    edge_items = [(frozenset(e), mult) for e, mult in H.edges]
    colors = _oracle_refine_colors(verts, edge_items)
    cell_map = {}
    for v in verts:
        cell_map.setdefault(colors[v], []).append(v)
    cells = [sorted(cell_map[c]) for c in sorted(cell_map)]

    # per-edge count of still-unlabeled endpoints; an edge joins the encoding
    # at the position that drops its count to zero
    need = [len(e) for e, _ in edge_items]
    incident_idx = {v: [] for v in verts}
    for idx, (e, _) in enumerate(edge_items):
        for v in e:
            incident_idx[v].append(idx)

    best = None
    leaves = []
    label = {}
    used = set()

    def rec(ci, left_in_cell, pos, blocks, tied):
        nonlocal best, leaves
        if left_in_cell == 0:
            ci += 1
            if ci == len(cells):
                if best is None or blocks < best:
                    best = blocks[:]
                    leaves = [dict(label)]
                elif blocks == best:
                    leaves.append(dict(label))
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
    return ((H.k, m, tuple(best)), leaves)
