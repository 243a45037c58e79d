"""Vertex-maximal matchings, active edges and the normality number.

A matching is a set of mutually nonadjacent edges; a loop occupies one vertex,
a true edge two. vm(G) is the maximum number of vertices touched. Given a
weak/normal edge labeling, the normality number nu(G) is the maximum, over
vertex-maximal matchings, of vertices touched by normal edges; both are solved
together through the lexicographic objective (touched, normal_touched).

Both solver paths answer best(free), the optimum over matchings inside a
vertex mask, and _solve picks one by the vertex count n. Up to 16 vertices,
a dynamic program over free-vertex masks keeps one memo per graph: at the
lowest free vertex v, either leave v unmatched or take an edge whose lowest
end is v and whose ends are both free. The memo never holds more than 2^n
masks. From the full mask it reaches at most the Fibonacci number F(n + 2),
2,584 at n = 16: a state with lowest free vertex v has lost at most v of the
vertices above v.
Past 16 vertices, a reduction to maximum-weight matching (loops become
pendant gadget edges of half the weight) runs once per mask asked, through
networkx, which is imported only then. The two agree where both run; the DP
is the faster up to about 18 vertices. Census graphs have at most 16 vertices
up to genus 18 and at most 20 at genus 22. Graphs over _MAX_EDGES = 100
edges, loops included, raise TooLarge (about a second of analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

from .errors import Infeasible, InvariantViolation, NotEdgeMaximal, TooLarge
from .loopy import LoopyGraph, _row_pairs, all_loopy_graphs

_DP_MAX_VERTICES = 16
_MAX_EDGES = 100


@dataclass(frozen=True)
class MatchingAnalysis:
    """Matching-side invariants of a loopy graph.

    The active edges are computed the first time they are read, by solving
    again on the graph and weak set kept for that: the memo is not kept.
    """

    vm: int
    nu: int
    witness_matching: tuple
    _graph: LoopyGraph = field(repr=False, compare=False)
    _weak: frozenset = field(repr=False, compare=False)

    @cached_property
    def active_edges(self) -> frozenset:
        """The edges in at least one vertex-maximal matching: e is one iff
        deleting its ends (with every incident edge) drops vm by exactly the
        number of vertices e touches. vm is the first objective whatever
        the bonuses, so one memo answers every query."""
        G = self._graph
        edges, triples = _edge_triples(G, self._weak)
        best, full = _solve(triples, G.n), (1 << G.n) - 1
        k = best(full)[0]
        return frozenset(e for e, (mask, touch, _) in zip(edges, triples)
                         if best(full & ~mask)[0] == k - touch)


def check_edge_count(edges: int) -> None:
    """Raise TooLarge if a graph with at least this many edges is over the cap."""
    if edges > _MAX_EDGES:
        raise TooLarge(f"matching supports at most {_MAX_EDGES} edges, "
                       f"got at least {edges}")


def _triples(pairs, weak=frozenset()):
    """(mask, touched, normal_touched) per position pair (i, j), i <= j, a
    loop when i == j; the pairs in weak get no normal bonus."""
    triples = []
    for pair in pairs:
        mask = 1 << pair[0] | 1 << pair[1]
        touch = mask.bit_count()        # a loop touches one vertex
        triples.append((mask, touch, 0 if pair in weak else touch))
    return triples


def _edge_triples(G: LoopyGraph, weak):
    """(mask, touched, normal_touched) per edge, plus the edge list, in the
    order of G.all_edges()."""
    check_edge_count(G.edge_count)
    pairs, verts, pos = G._pairs(), G.vertices, G._pos
    return ([(verts[i], verts[j]) for i, j in pairs],
            _triples(pairs, {(pos[a], pos[b]) for a, b in weak}))


def _solve_bb(triples, n):
    """best(free): the lexicographically best (touched, bonus, chosen
    indices) over matchings inside the vertex mask free, memoized on free."""
    starting_at = [[] for _ in range(n)]     # edges by their lowest end
    for i, (mask, touch, bonus) in enumerate(triples):
        starting_at[(mask & -mask).bit_length() - 1].append(
            (mask, touch, bonus, i))
    memo: dict[int, tuple[int, int, tuple[int, ...]]] = {0: (0, 0, ())}

    def best(free: int):
        hit = memo.get(free)
        if hit is not None:
            return hit
        low = free & -free
        t, b, chosen = best(free ^ low)         # leave the lowest unmatched
        for mask, touch, bonus, i in starting_at[low.bit_length() - 1]:
            if mask & free == mask:
                t2, b2, chosen2 = best(free ^ mask)
                if (t2 + touch, b2 + bonus) > (t, b):
                    t, b, chosen = t2 + touch, b2 + bonus, chosen2 + (i,)
        memo[free] = t, b, chosen
        return t, b, chosen

    return best


def _solve_blossom(triples, n):
    """Same objective via maximum-weight matching on the gadget graph.

    A loop at vertex v becomes a pendant edge (v, n + index); the combined
    weight touched * (2n + 1) + bonus is additive over edges, so a single
    max-weight matching realizes the lexicographic optimum. Integer weights
    keep the blossom computation exact.
    """
    import networkx as nx       # a 0.2 s import that only this path needs

    scale = 2 * n + 1
    graph = nx.Graph()
    for idx, (mask, touch, bonus) in enumerate(triples):
        bits = [i for i in range(n) if mask >> i & 1]
        if touch == 1:
            u, v = bits[0], n + idx
        else:
            u, v = bits
        graph.add_edge(u, v, weight=touch * scale + bonus, index=idx)
    mate = nx.max_weight_matching(graph, maxcardinality=False)
    chosen = tuple(sorted(graph.edges[u, v]["index"] for u, v in mate))
    touched = sum(triples[i][1] for i in chosen)
    bonus = sum(triples[i][2] for i in chosen)
    return touched, bonus, chosen


def _solve(triples, n):
    """best(free): one memoized DP up to _DP_MAX_VERTICES vertices; past
    them, one maximum-weight matching over the edges inside each mask."""
    if n <= _DP_MAX_VERTICES:
        return _solve_bb(triples, n)

    def best(free: int):
        inside = [i for i, t in enumerate(triples) if t[0] & free == t[0]]
        t, b, chosen = _solve_blossom([triples[i] for i in inside], n)
        return t, b, tuple(inside[i] for i in chosen)

    return best


def vm(G: LoopyGraph) -> int:
    """vm(G), the most vertices a matching of G touches."""
    _, triples = _edge_triples(G, frozenset())
    return _solve(triples, G.n)((1 << G.n) - 1)[0]


def analyze(G: LoopyGraph, weak_edges=frozenset()) -> MatchingAnalysis:
    """Full matching analysis; with no weak edges, nu equals vm. A weak pair
    may name its ends in either order; one that is no edge raises ValueError.
    """
    weak = set()
    for a, b in weak_edges:
        if not G.has_edge(a, b):
            raise ValueError(f"weak pair ({a!r}, {b!r}) is not an edge")
        weak.add((a, b) if a <= b else (b, a))
    weak = frozenset(weak)
    edges, triples = _edge_triples(G, weak)
    k, nu, chosen = _solve(triples, G.n)((1 << G.n) - 1)
    witness = tuple(edges[i] for i in sorted(chosen))
    if not G.loop_count <= k <= G.n:
        raise InvariantViolation(f"vm = {k} outside [{G.loop_count}, {G.n}]")
    if not 0 <= nu <= k:
        raise InvariantViolation(f"nu = {nu} outside [0, {k}]")
    # every vertex-maximal matching meets all loops
    covered = 0
    for i in chosen:
        covered |= triples[i][0]
    if G._loopmask & ~covered:
        raise InvariantViolation("a vertex-maximal matching misses a loop")
    return MatchingAnalysis(vm=k, nu=nu, witness_matching=witness,
                            _graph=G, _weak=weak)


def edge_maximal_check(G: LoopyGraph) -> None:
    """Raise NotEdgeMaximal if some edge or loop can still be added to G
    without raising vm(G).

    An edge-maximal graph's loopy vertices are pairwise adjacent, so there
    is nothing more to report: for loopy a != b with no edge ab, a matching
    of G + ab that uses ab can swap it for the loops at a and b, which touch
    the same vertices, so vm(G + ab) = vm(G) and the check raises at ab.
    """
    k, verts = vm(G), G.vertices
    for i, a in enumerate(verts):
        for b in verts[i:]:
            if not G.has_edge(a, b) and vm(G.with_edge(a, b)) == k:
                what = f"loop at {a!r}" if a == b else f"edge ({a!r}, {b!r})"
                raise NotEdgeMaximal(f"{what} keeps vm at {k}")


def _vm_at_most(k: int):
    """keep(rows, loopmask) for all_loopy_graphs: whether vm <= k on the
    positional form. A graph on at most k positions passes. One that a
    greedy matching (each free position takes its lowest free neighbor,
    else its loop) already touches on more than k fails, as the greedy count
    is a lower bound on vm. The DP decides the rest."""
    def keep(rows, loopmask):
        n = len(rows)
        if n <= k:
            return True
        free, touched = (1 << n) - 1, 0
        for i, row in enumerate(rows):
            if free >> i & 1:
                nbrs = row & free
                if nbrs:
                    free ^= 1 << i | nbrs & -nbrs
                    touched += 2
                elif loopmask >> i & 1:
                    free ^= 1 << i
                    touched += 1
        if touched > k:
            return False
        triples = _triples(_row_pairs(rows, loopmask))
        return _solve_bb(triples, n)((1 << n) - 1)[0] <= k
    return keep


def extremal_edge_search(n: int, k: int, loops: int | None = None
                         ) -> tuple[int, tuple[LoopyGraph, ...]]:
    """Maximum edge count over loopy graphs on n vertices with vm = k.

    Builds only the part of the isomorph-rejected catalog (n <= 6) with
    vm <= k, which all_loopy_graphs may prune as it grows, since deleting a
    vertex never raises vm; that part lists the full catalog's graphs with
    vm <= k in catalog order. Optionally restricted to a fixed number of
    loops, it is walked by decreasing edge count up to the first count with
    vm = k, which is returned with its witnesses in catalog order. Raises
    Infeasible when no graph matches. As vm <= n always, no graph has
    vm = k > n, so for k > n the build keeps nothing, not even the empty
    root, and labels no graph.
    """
    keep = _vm_at_most(k if k <= n else -1)
    graphs = [G for G in all_loopy_graphs(n, keep=keep)
              if loops is None or G.loop_count == loops]
    graphs.sort(key=lambda G: -G.edge_count)       # stable: catalog order
    for edges, group in groupby(graphs, key=lambda G: G.edge_count):
        witnesses = tuple(G for G in group if vm(G) == k)
        if witnesses:
            return edges, witnesses
    raise Infeasible(f"no loopy graph on {n} vertices has vm = {k}"
                     + (f" with {loops} loops" if loops is not None else ""))
