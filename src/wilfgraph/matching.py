"""Vertex-maximal matchings, active edges and the normality number.

A matching is a set of mutually nonadjacent edges; a loop occupies one vertex,
a true edge two. vm(G) is the maximum number of vertices touched. Given a
weak/normal edge labeling, the normality number nu(G) is the maximum, over
vertex-maximal matchings, of vertices touched by normal edges; both are solved
together through the lexicographic objective (touched, normal_touched).

Two solver paths: a memoized branch-and-bound over edge subsets for at most
24 edges, and a reduction to maximum-weight matching (loops become pendant
gadget edges of half the weight) beyond that. They agree on the overlap.
Graphs over _MAX_EDGES = 100 edges, loops included, raise TooLarge (about a
second of analysis); the census graphs to genus 20 have at most 22 edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .errors import Infeasible, InvariantViolation, NotEdgeMaximal, TooLarge
from .loopy import LoopyGraph, all_loopy_graphs

_BB_EDGE_LIMIT = 24
_MAX_EDGES = 100


@dataclass(frozen=True)
class MatchingAnalysis:
    """Matching-side invariants of a loopy graph."""

    vm: int
    loop_count: int
    nu: int
    weak_edges: frozenset
    active_edges: frozenset
    active_weak: frozenset
    active_normal: frozenset
    witness_matching: tuple


def check_edge_count(edges: int) -> None:
    """Raise TooLarge if a graph with at least this many edges is over the cap."""
    if edges > _MAX_EDGES:
        raise TooLarge(f"matching supports at most {_MAX_EDGES} edges, "
                       f"got at least {edges}")


def _edge_triples(G: LoopyGraph, weak):
    """(mask, touched, normal_touched) per edge, plus the edge list."""
    check_edge_count(G.edge_count)
    edges = G.all_edges()
    triples = []
    for a, b in edges:
        mask = 1 << G._pos[a]
        touch = 1
        if a != b:
            mask |= 1 << G._pos[b]
            touch = 2
        bonus = 0 if (a, b) in weak else touch
        triples.append((mask, touch, bonus))
    return edges, triples


def _solve_bb(triples):
    """Lexicographically best (touched, bonus, chosen indices) matching."""
    memo: dict[tuple[int, int], tuple[int, int, tuple[int, ...]]] = {}

    def best(i: int, used: int):
        if i == len(triples):
            return (0, 0, ())
        key = (i, used)
        hit = memo.get(key)
        if hit is not None:
            return hit
        t, b, chosen = best(i + 1, used)
        mask, touch, bonus = triples[i]
        if not mask & used:
            t2, b2, chosen2 = best(i + 1, used | mask)
            if (t2 + touch, b2 + bonus) > (t, b):
                t, b, chosen = t2 + touch, b2 + bonus, (i,) + chosen2
        memo[key] = (t, b, chosen)
        return memo[key]

    return best(0, 0)


def _solve_blossom(triples, n):
    """Same objective via maximum-weight matching on the gadget graph.

    A loop at vertex v becomes a pendant edge (v, n + index); the combined
    weight touched * (2n + 1) + bonus is additive over edges, so a single
    max-weight matching realizes the lexicographic optimum. Integer weights
    keep the blossom computation exact.
    """
    scale = 2 * n + 1
    graph = nx.Graph()
    ends = []
    for idx, (mask, touch, bonus) in enumerate(triples):
        bits = [i for i in range(n) if mask >> i & 1]
        if touch == 1:
            u, v = bits[0], n + idx
        else:
            u, v = bits
        ends.append((u, v))
        graph.add_edge(u, v, weight=touch * scale + bonus, index=idx)
    mate = nx.max_weight_matching(graph, maxcardinality=False)
    chosen = tuple(sorted(graph.edges[u, v]["index"] for u, v in mate))
    touched = sum(triples[i][1] for i in chosen)
    bonus = sum(triples[i][2] for i in chosen)
    return touched, bonus, chosen


def _solve(triples, n):
    if len(triples) <= _BB_EDGE_LIMIT:
        return _solve_bb(triples)
    return _solve_blossom(triples, n)


def vertex_maximal_matching(G: LoopyGraph) -> tuple[int, tuple]:
    """vm(G) together with one witness matching achieving it."""
    edges, triples = _edge_triples(G, frozenset())
    touched, _, chosen = _solve(triples, G.n)
    return touched, tuple(edges[i] for i in chosen)


def vm(G: LoopyGraph) -> int:
    return vertex_maximal_matching(G)[0]


def _active(edges, triples, k, n) -> frozenset:
    # vm is the first objective whatever the bonuses, so any triples will do
    out = set()
    for i, (mask, touch, _) in enumerate(triples):
        rest = [t for t in triples if not t[0] & mask]
        sub, _, _ = _solve(rest, n)
        if sub == k - touch:
            out.add(edges[i])
    return frozenset(out)


def active_edges(G: LoopyGraph) -> frozenset:
    """Edges contained in at least one vertex-maximal matching.

    An edge e is active iff deleting its endvertices (with every incident
    edge) drops vm by exactly the number of vertices e touches.
    """
    edges, triples = _edge_triples(G, frozenset())
    return _active(edges, triples, _solve(triples, G.n)[0], G.n)


def normality_number(G: LoopyGraph, weak_edges=frozenset()) -> int:
    """nu(G): most vertices touched by normal edges in a vertex-maximal matching."""
    _, triples = _edge_triples(G, frozenset(weak_edges))
    _, nu, _ = _solve(triples, G.n)
    return nu


def analyze(G: LoopyGraph, weak_edges=frozenset()) -> MatchingAnalysis:
    """Full matching analysis; with no weak edges, nu equals vm."""
    weak = frozenset(weak_edges)
    edges, triples = _edge_triples(G, weak)
    k, nu, chosen = _solve(triples, G.n)
    witness = tuple(edges[i] for i in chosen)
    active = _active(edges, triples, k, G.n)
    loop_count = G.loop_count
    if not loop_count <= k <= G.n:
        raise InvariantViolation(f"vm = {k} outside [{loop_count}, {G.n}]")
    if not 0 <= nu <= k:
        raise InvariantViolation(f"nu = {nu} outside [0, {k}]")
    # every vertex-maximal matching meets all loops
    if not G.loops <= {v for e in witness for v in e}:
        raise InvariantViolation("a vertex-maximal matching misses a loop")
    return MatchingAnalysis(
        vm=k,
        loop_count=loop_count,
        nu=nu,
        weak_edges=weak,
        active_edges=active,
        active_weak=active & weak,
        active_normal=active - weak,
        witness_matching=witness,
    )


def edge_maximal_check(G: LoopyGraph) -> bool:
    """For a graph edge-maximal for its vm: do the loopy vertices span a
    loopy-complete subgraph?

    Raises NotEdgeMaximal if some edge can still be added without raising vm.
    """
    k = vm(G)
    for i, a in enumerate(G.vertices):
        if a not in G.loops and vm(G.with_edge(a, a)) == k:
            raise NotEdgeMaximal(f"loop at {a!r} keeps vm at {k}")
        for b in G.vertices[i + 1:]:
            if not G.has_edge(a, b) and vm(G.with_edge(a, b)) == k:
                raise NotEdgeMaximal(f"edge ({a!r}, {b!r}) keeps vm at {k}")
    loopy = sorted(G.loops)
    return all(G.has_edge(a, b)
               for i, a in enumerate(loopy) for b in loopy[i + 1:])


def extremal_edge_search(n: int, k: int, loops: int | None = None
                         ) -> tuple[int, tuple[LoopyGraph, ...]]:
    """Maximum edge count over loopy graphs on n vertices with vm = k.

    Exhausts the isomorph-rejected catalog (n <= 6), optionally restricted to
    a fixed number of loops. Returns the maximum together with every witness
    attaining it. Raises Infeasible when no graph matches.
    """
    best = -1
    witnesses: list[LoopyGraph] = []
    for G in all_loopy_graphs(n):
        if loops is not None and G.loop_count != loops:
            continue
        if vm(G) != k:
            continue
        if G.edge_count > best:
            best = G.edge_count
            witnesses = [G]
        elif G.edge_count == best:
            witnesses.append(G)
    if best < 0:
        raise Infeasible(f"no loopy graph on {n} vertices has vm = {k}"
                         + (f" with {loops} loops" if loops is not None else ""))
    return best, tuple(witnesses)
