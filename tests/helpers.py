"""Builders and the test-only oracles shared across test modules: Euler
circuits by brute force, power sums by walk enumeration, class weights over
listed orientations and (at k=2) over closed trails, Veblen edge partitions
and the k=2 alternating partition sum, the simplex recurrence, cycle-type sum
and spectrum predictions, the composition scan, labeled counts by injection
counting, the exhaustive canonical-labeling search, a colour refinement
that re-keys every vertex, and the host writer."""

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, prod

from hypersachs.canon import canon_and_aut, canonical_form
from hypersachs.digraph import arborescence_count, is_eulerian
from hypersachs.errors import DomainError, NormalizationFailure, NotConnected, NotEulerian, NotVeblen, SizeExceeded
from hypersachs.hypergraph import MultiHypergraph, _compositions, components, is_connected, is_veblen
from hypersachs.rooting import assoc_coeff, euler_orientations
from hypersachs.traces import _WalkExpansion


# three triple edges through vertex 1: the simple support of v9_4
STAR_HOST = MultiHypergraph.build(3, 7, [(1, 2, 3), (1, 4, 5), (1, 6, 7)])


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


def serialize_hypergraph(H, format="line", name=None):
    """H as a document that `formats.parse_document` reads back: the line
    format, or the structured one with an optional name."""
    if format == "line":
        lines = [f"k={H.k} n={H.n}"]
        for verts, mult in H.edges:
            suffix = f" x{mult}" if mult != 1 else ""
            lines.append(" ".join(map(str, verts)) + suffix)
        return "\n".join(lines) + "\n"
    if format == "structured":
        obj = {"k": H.k, "n": H.n}
        if name is not None:
            obj["name"] = name
        obj["edges"] = [
            {"vertices": list(verts), "mult": mult} for verts, mult in H.edges
        ]
        return json.dumps(obj, indent=2) + "\n"
    raise ValueError(f"unknown serialization format {format!r}")


def euler_circuit_count_bruteforce(D, max_arcs=10):
    """Oracle: exhaustively enumerate Euler tours (distinguishable arc copies)
    and divide by the tour length to collapse rotations."""
    if not is_eulerian(D):
        raise NotEulerian("Euler circuit count requires a balanced, connected digraph")
    total_arcs = sum(m for _, m in D.arcs)
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
    denom = prod(orientations[0][0].in_degrees().values())
    total = 0
    for D, multiplicity in orientations:
        total += multiplicity * arborescence_count(D, D.non_isolated[0])
    return Fraction(total, denom)


MAX_TRAIL_EDGES = 12


def graph_assoc_coeff(G):
    """Associated coefficient of a connected even multigraph, from first
    principles: closed trails through every edge copy, over rotations and
    copy relabelings.  Oracle for the class weights at k=2.

    Counts pointed closed trails T over distinguishable edge copies; every
    circular trail is aperiodic in the copies, so T / (#copies) is the
    circuit count and C = T / (#copies * prod_e m(e)!).
    """
    if G.k != 2:
        raise DomainError(f"expected an ordinary graph (k=2), got k={G.k}")
    if not is_veblen(G):
        raise NotVeblen("trail counting needs every degree even")
    if not is_connected(G):
        raise NotConnected("trail counting needs a connected multigraph")
    copies = []
    for (u, v), m in G.edges:
        copies.extend([(u, v)] * m)
    L = len(copies)
    if L == 0:
        raise DomainError("empty multigraph has no circuits")
    if L > MAX_TRAIL_EDGES:
        raise SizeExceeded(f"trail counting bounded at {MAX_TRAIL_EDGES} edge copies")
    touch = {}
    for i, (u, v) in enumerate(copies):
        touch.setdefault(u, []).append(i)
        touch.setdefault(v, []).append(i)
    full = (1 << L) - 1

    def walks(cur, used, home):
        if used == full:
            return 1 if cur == home else 0
        t = 0
        for i in touch[cur]:
            bit = 1 << i
            if not used & bit:
                u, v = copies[i]
                t += walks(v if cur == u else u, used | bit, home)
        return t

    T = sum(walks(s, 0, s) for s in touch)
    q, r = divmod(T, L)
    if r:
        raise NormalizationFailure(f"pointed trail count {T} does not split into rotation classes of {L}")
    return Fraction(q, prod(factorial(m) for _, m in G.edges))


# ----------------------------------------------------------------------
# Veblen edge partitions and the alternating partition sum, by which the
# graph Harary-Sachs theorem is a special case of the main theorem: summed
# over the partitions of a connected even multigraph into connected even
# parts, the signed products of class weights are 1 on a doubled edge, 2 on
# a cycle and 0 on every other class.

MAX_PARTITION_EDGES = 8


def with_multiplicities(H, mults):
    """Sub-multigraph of H on the same vertex set given per-edge multiplicities
    aligned with `H.edges` (zero drops the edge)."""
    if len(mults) != len(H.edges):
        raise DomainError(f"{len(mults)} multiplicities for {len(H.edges)} edges")
    edges = [(e, c) for (e, _), c in zip(H.edges, mults) if c > 0]
    return MultiHypergraph(H.k, H.n, tuple(edges))


def _veblen_subvectors(H):
    """All nonzero multiplicity vectors mu <= m(H) (aligned with H.edges)
    whose sub-multigraph has every degree divisible by k."""
    combos = product(*(range(m + 1) for _, m in H.edges))
    return [c for c in combos if any(c) and is_veblen(with_multiplicities(H, c))]


def veblen_partitions(H, parts_connected=False):
    """All multisets of Veblen sub-multigraphs whose multiplicities sum to H's.

    Parts live on H's vertex set and need not be vertex-disjoint.  Each
    partition is reported once, parts in decreasing multiplicity-vector order
    (largest part first).  With parts_connected=True only connected parts are
    allowed.

    Precondition: is_veblen(H).
    """
    if not is_veblen(H):
        raise NotVeblen("edge partitions are defined for Veblen hypergraphs only")
    if not H.edges:
        return ((),)
    candidates = _veblen_subvectors(H)
    if parts_connected:
        candidates = [c for c in candidates if is_connected(with_multiplicities(H, c))]
    candidates.sort(reverse=True)
    total = tuple(m for _, m in H.edges)
    results = []

    def rec(remaining, start, chosen):
        if not any(remaining):
            results.append(tuple(chosen))
            return
        for i in range(start, len(candidates)):
            cand = candidates[i]
            if all(c <= r for c, r in zip(cand, remaining)):
                chosen.append(cand)
                rec(tuple(r - c for r, c in zip(remaining, cand)), i, chosen)
                chosen.pop()

    rec(total, 0, [])
    return tuple(
        tuple(with_multiplicities(H, vec) for vec in partition)
        for partition in results
    )


def partition_sum_check(G):
    """Signed sum over partitions of G's edge multiset into connected even
    parts: parts P get weight (-1)^{|P|+1} prod C(part), repeated parts
    divided out by their count factorial.

    Evaluates to 1 when G is a doubled edge, 2 when G is a simple cycle, and
    0 for every other connected even multigraph.
    """
    if G.k != 2:
        raise DomainError(f"expected an ordinary graph (k=2), got k={G.k}")
    if not is_veblen(G):
        raise NotVeblen("partition sum needs every degree even")
    if not is_connected(G):
        raise NotConnected("partition sum needs a connected multigraph")
    if G.edge_count > MAX_PARTITION_EDGES:
        raise SizeExceeded(f"partition sum bounded at {MAX_PARTITION_EDGES} edge copies")
    total = Fraction(0)
    for parts in veblen_partitions(G, parts_connected=True):
        term = Fraction((-1) ** (len(parts) + 1))
        seen = {}
        for part in parts:
            term *= assoc_coeff(part)
            seen[part] = seen.get(part, 0) + 1
        for cnt in seen.values():
            term /= factorial(cnt)
        total += term
    return total


def cycle_factor(k: int, length: int) -> int:
    """Per-cycle arborescence factor k^l + (-1)^{l+1} of a derangement
    orientation of the simplex."""
    return k**length + (-1) ** (length + 1)


def _cycles_of(sigma: tuple[int, ...]) -> list[list[int]]:
    """The cycles of a permutation of 1..m, each from its least element."""
    m = len(sigma)
    if sorted(sigma) != list(range(1, m + 1)):
        raise DomainError(f"not a permutation of 1..{m}: {sigma}")
    seen = [False] * (m + 1)
    cycles = []
    for start in range(1, m + 1):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = sigma[x - 1]
        cycles.append(cyc)
    return cycles


def partitions_min2(m: int, largest: int | None = None):
    """The partitions of m with every part >= 2 (the cycle types of the
    derangements of [m]) as non-increasing tuples with parts at most
    `largest` (default m), in descending lexicographic order."""
    if m == 0:
        yield ()
    for p in range(min(m, largest or m), 1, -1):
        if m - p != 1:
            for tail in partitions_min2(m - p, p):
                yield (p,) + tail


def derangements_by_type(parts: tuple[int, ...]) -> int:
    """Permutations of [sum(parts)] with cycle type parts:
    m! / (prod parts * prod over lengths of multiplicity!)."""
    denom = prod(parts) * prod(factorial(parts.count(p)) for p in set(parts))
    count, rem = divmod(factorial(sum(parts)), denom)
    if rem:
        raise NormalizationFailure(f"{sum(parts)}! is not divisible by the centralizer order {denom}")
    return count


def derangement_cycle_sum_by_type(k: int) -> int:
    """Oracle for simplex._derangement_cycle_sum as the paper states it: the
    sum over cycle types of [k+1]'s derangements of count * prod cycle_factor."""
    return sum(
        derangements_by_type(parts) * prod(cycle_factor(k, length) for length in parts)
        for parts in partitions_min2(k + 1)
    )


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
# Simplex oracles: the spectrum of M_sigma - J predicted from a derangement's
# cycle type, with the integer polynomial arithmetic it needs, and the
# arborescence count of a derangement orientation from its cycle type.


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer polynomials given as coefficient lists (leading first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_exact_div(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a / b for integer polynomials (leading coefficients first)."""
    a = a[:]
    out = []
    lead = b[0]
    for i in range(len(a) - len(b) + 1):
        q, r = divmod(a[i], lead)
        if r:
            raise NormalizationFailure("polynomial division must be exact")
        out.append(q)
        for j, y in enumerate(b):
            a[i + j] -= q * y
    if any(a):
        raise NormalizationFailure("polynomial division must be exact")
    return out


@dataclass(frozen=True)
class SpectrumPrediction:
    """Predicted eigenvalue multiset of M_sigma - J (permutation matrix minus
    all-ones) for a permutation of [size]: every l-th root of unity per
    l-cycle, with one eigenvalue 1 removed overall, plus the integer 1-size.

    Roots of unity are kept symbolic as (cycle_length, exponent) pairs.
    """

    size: int
    cycle_lengths: tuple[int, ...]
    unity_roots: tuple[tuple[int, int], ...]
    integer_eigenvalue: int

    def charpoly(self) -> tuple[int, ...]:
        """Predicted characteristic polynomial det(xI - (M_sigma - J)),
        leading coefficient first: (x + size - 1) * prod(x^l - 1) / (x - 1)."""
        poly = (1,)
        for length in self.cycle_lengths:
            poly = poly_mul(poly, (1,) + (0,) * (length - 1) + (-1,))
        poly = poly_exact_div(poly, (1, -1))
        return poly_mul(poly, (1, self.size - 1))


def predicted_spectrum_MJ(sigma) -> SpectrumPrediction:
    """Spectrum of M_sigma - J predicted from sigma's cycle type alone."""
    sigma = tuple(sigma)
    cycles = _cycles_of(sigma)
    lengths = tuple(len(c) for c in cycles)
    roots: list[tuple[int, int]] = []
    removed = False
    for length in lengths:
        for j in range(length):
            if j == 0 and not removed:
                removed = True
                continue
            roots.append((length, j))
    return SpectrumPrediction(
        size=len(sigma),
        cycle_lengths=lengths,
        unity_roots=tuple(roots),
        integer_eigenvalue=1 - len(sigma),
    )


def simplex_tau_formula(k: int, parts: tuple[int, ...]) -> int:
    """Arborescence count of a derangement orientation from its cycle type:
    prod of cycle factors divided by (k+1)^2, checked integral."""
    value = prod(cycle_factor(k, length) for length in parts)
    tau, rem = divmod(value, (k + 1) ** 2)
    if rem:
        raise NormalizationFailure(f"cycle-factor product {value} is not divisible by (k+1)^2")
    return tau


def single_edge_profile(v: int, t: int) -> int:
    """Codegree-3t coefficient of the single-edge host on v vertices:
    (-1)^t binom(3*2^{v-3}, t).  Zero once t passes the binomial width."""
    if v < 3:
        raise DomainError("a 3-uniform edge needs at least 3 ambient vertices")
    if t < 0:
        raise DomainError("t must be nonnegative")
    return (-1) ** t * comb(3 * 2 ** (v - 3), t)


# ----------------------------------------------------------------------
# Walk oracles for power sums and class weights.
#
# `walk_enumeration_trace` is the small-host brute force: it lists every
# pointed closed walk of length d(k-1) on the non-isolated vertices one by
# one (at most m^L of them) and weighs each arc profile by the ways to
# realize its out-arcs as a union of edge stars.  The package's walk
# expansion (`traces._WalkExpansion`, behind `trace_bruteforce`) evaluates
# the same trace formula grouped by star profile and is checked against it
# on small hosts; `star_profiles_by_product` is the reference for its
# balanced star profiles, and `trail_walk_count` for its per-profile
# closed-walk count, which it takes from the BEST theorem.  `walk_traces` and
# `walk_weight` read that expansion, which uses no class weight, enumerator,
# rooting, digraph or linear algebra, and a connected class G with d edges
# contributes d * (k-1)^n * weight(G) to Tr_d.


def _star_decomposition_count(arcs_out, stars, d_i):
    """Number of ordered length-d_i sequences of stars at a fixed root whose
    arc multiset equals arcs_out; stars are (other-endpoints, weight) pairs."""
    remaining = dict(arcs_out)

    def rec(idx):
        if idx == len(stars):
            return Fraction(1) if all(c == 0 for c in remaining.values()) else Fraction(0)
        heads, weight = stars[idx]
        cap = min(remaining[w] for w in heads) if all(w in remaining for w in heads) else 0
        total = Fraction(0)
        for m in range(cap + 1):
            if m:
                for w in heads:
                    remaining[w] -= m
            sub = rec(idx + 1)
            if m:
                for w in heads:
                    remaining[w] += m
            if sub:
                total += Fraction(weight**m, factorial(m)) * sub
        return total

    value = rec(0) * factorial(d_i)
    assert value.denominator == 1, value
    return value.numerator


def walk_enumeration_trace(host, d, max_walks=10_000_000):
    """Tr_d by enumerating every pointed closed walk of length d*(k-1) on
    the non-isolated vertices, grouped by arc profile; each profile is
    weighted by the per-vertex count of star sequences realizing its
    out-arcs, divided by out-degree factorials, times the profile
    factorials.  Raises SizeExceeded when m^L exceeds max_walks."""
    k = host.k
    L = d * (k - 1)
    support = host.non_isolated
    m = len(support)
    if m == 0:
        return Fraction(0)
    if m**L > max_walks:
        raise SizeExceeded(f"walk space {m}^{L} exceeds {max_walks}")
    nbrs = {v: set() for v in support}
    stars_at = {v: [] for v in support}
    for e, mult in host.edges:
        for v in e:
            others = tuple(sorted(w for w in e if w != v))
            nbrs[v].update(others)
            stars_at[v].append((others, mult))

    profiles = {}
    arc_counts = {}

    def walk(cur, left, start):
        if left == 0:
            if cur == start:
                key = tuple(sorted(arc_counts.items()))
                profiles[key] = profiles.get(key, 0) + 1
            return
        for nxt in nbrs[cur]:
            arc = (cur, nxt)
            arc_counts[arc] = arc_counts.get(arc, 0) + 1
            walk(nxt, left - 1, start)
            arc_counts[arc] -= 1
            if arc_counts[arc] == 0:
                del arc_counts[arc]

    for s in support:
        walk(s, L, s)

    total = Fraction(0)
    for key, walk_count in profiles.items():
        out = {}
        for (u, _), c in key:
            out[u] = out.get(u, 0) + c
        if any(o % (k - 1) != 0 for o in out.values()):
            continue
        factor = Fraction(1)
        for u, o in out.items():
            arcs_out = {v: c for (x, v), c in key if x == u}
            factor *= Fraction(_star_decomposition_count(arcs_out, stars_at[u], o // (k - 1)), factorial(o))
        for _, c in key:
            factor *= factorial(c)
        total += walk_count * factor
    return Fraction(k - 1) ** (host.n - 1) * total


def star_profiles_by_product(host, mu, quota):
    """({(v, w): count}, den) for every star choice under the edge multiset
    mu whose arc profile is balanced, den = prod s[v, e]!: the whole product
    of per-edge star splits, filtered at the end by the roots per vertex."""
    per_edge = [list(_compositions(m, host.k)) for m in mu]
    for splits in product(*per_edge):
        counts, rooted, den = {}, dict.fromkeys(quota, 0), 1
        for (edge, _), split in zip(host.edges, splits):
            for v, s in zip(edge, split):
                rooted[v], den = rooted[v] + s, den * factorial(s)
                for w in edge:
                    if w != v and s:
                        counts[v, w] = counts.get((v, w), 0) + s
        if rooted == quota:
            yield counts, den


def _trails(arcs, cur, left, memo):
    """Arc sequences from `cur` that use arcs[i] exactly left[i] times."""
    if not any(left):
        return 1
    if (cur, left) not in memo:
        memo[cur, left] = sum(_trails(arcs, w, left[:i] + (left[i] - 1,) + left[i + 1:], memo)
                              for i, (v, w) in enumerate(arcs) if v == cur and left[i])
    return memo[cur, left]


def trail_walk_count(profile):
    """W(c), the pointed closed walks whose arc multiset is the balanced
    profile c ({(v, w): count}), by a memoised trail walk from the vertex v0
    with the most out-arcs: every trail through all of c is closed, and a
    closed walk of length L passes v0 out(v0) times over its L rotations, so
    W(c) * out(v0) = L * trails(v0)."""
    arcs = sorted(a for a, c in profile.items() if c)
    left = tuple(profile[a] for a in arcs)
    out = {}
    for (v, _), c in zip(arcs, left):
        out[v] = out.get(v, 0) + c
    v0 = max(out, key=out.get)
    rotations = sum(left) * _trails(arcs, v0, left, {})
    if rotations % out[v0]:
        raise NormalizationFailure(f"{rotations} rotations do not split over {out[v0]} visits of {v0}")
    return rotations // out[v0]


def walk_traces(host, max_order):
    """Tr_1..Tr_max_order of `host` by the walk expansion."""
    expansion = _WalkExpansion(host)
    return [expansion.trace(d) for d in range(1, max_order + 1)]


def walk_weight(G):
    """Weight of the connected Veblen class G, read off its own support host:
    the star terms whose edge multiset is G's, over d * (k-1)^n."""
    support = MultiHypergraph.build(G.k, G.n, G.support)
    mu = [m for _, m in G.edges]
    return _WalkExpansion(support).edge_multiset_sum(mu) / (
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
# Composition-scan and injection-count oracles for host-relative enumeration.


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


def labeled_counts_by_injection(host, graphs):
    """Labeled count in the simple host of each connected graph's class: the
    injective maps of its vertices into the host's non-isolated vertices
    that send every support edge to a host edge, over |Aut| from
    `oracle_canon`.  Oracle for the host tables of either route; it uses
    neither the package's canonical search nor its enumerators."""
    host_edges = set(host.support)
    counts = []
    for G in graphs:
        verts = G.non_isolated
        maps = 0
        for image in permutations(host.non_isolated, len(verts)):
            at = dict(zip(verts, image))
            maps += all(tuple(sorted(at[v] for v in e)) in host_edges for e in G.support)
        count, rem = divmod(maps, oracle_canon(G)[1])
        assert rem == 0, (G.edges, maps)
        counts.append(count)
    return counts


# ----------------------------------------------------------------------
# Free-class oracle: the orderly walk with deduplication by canonical code
# that listed free classes before the canonical-augmentation tree.


def free_classes_by_dedup(k, d):
    """{code: |Aut|} of the connected Veblen classes with arity k and d edges.
    It walks the lexicographically non-decreasing edge sequences in which new
    vertices appear as consecutive integers and every edge touches a used
    vertex, pruned by the degree deficits, and collapses them by canonical
    code.  Oracle for the free atlas; it uses nothing from `veblen_enum`."""
    max_verts = min(d, 16)
    out = {}
    deg = {}
    seq = []

    def candidates(prev, maxu):
        for j in range(0, k):
            if maxu + j > max_verts:
                break
            new_run = tuple(range(maxu + 1, maxu + 1 + j))
            for old in combinations(range(1, maxu + 1), k - j):
                e = tuple(sorted(old + new_run))
                if e >= prev:
                    yield e

    def rec(prev, maxu, remaining):
        if remaining == 0:
            if all(dv % k == 0 for dv in deg.values()):
                H = MultiHypergraph.build(k, maxu, seq)
                assert is_connected(H), H.edges
                code, aut = canon_and_aut(H)
                out.setdefault(code, aut)
            return
        open_verts = [v for v, dv in deg.items() if dv % k]
        for e in candidates(prev, maxu):
            if open_verts and e[0] > min(open_verts):
                continue
            for v in e:
                deg[v] = deg.get(v, 0) + 1
            deficits = [-dv % k for dv in deg.values()]
            if sum(deficits) <= k * (remaining - 1) and max(deficits) <= remaining - 1:
                seq.append(e)
                rec(e, max(maxu, e[-1]), remaining - 1)
                seq.pop()
            for v in e:
                deg[v] -= 1
                if deg[v] == 0:
                    del deg[v]

    if d < 1:
        return out
    first = tuple(range(1, k + 1))
    deg.update(dict.fromkeys(first, 1))
    seq.append(first)
    rec(first, k, d - 1)
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


def refine_rekeying_every_vertex(col, ncells, edges, inc):
    """`canon._refine` as it was before it keyed only non-singleton cells:
    every round re-keys every vertex by (colour, sorted edge keys) and ranks
    the keys globally.  Both must give the same colouring."""
    while ncells < len(col):
        ekeys = [(mult, tuple(sorted(map(col.__getitem__, e)))) for e, mult in edges]
        keys = [(c, tuple(sorted(map(ekeys.__getitem__, inc[v])))) for v, c in enumerate(col)]
        distinct = sorted(set(keys))
        if len(distinct) == ncells:
            break
        rank = {key: r for r, key in enumerate(distinct)}
        col = [rank[key] for key in keys]
        ncells = len(distinct)
    return col, ncells


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
