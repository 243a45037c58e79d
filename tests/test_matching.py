import os
import random
import subprocess
import sys

import pytest

import wilfgraph
from wilfgraph import (Infeasible, InvariantViolation, LoopyGraph,
                       NotEdgeMaximal, TooLarge, all_loopy_graphs,
                       analyze_matchings, edge_maximal_check,
                       extremal_edge_search, loopy_complete, vm)
from wilfgraph.matching import (_DP_MAX_VERTICES, _MAX_EDGES, _edge_triples,
                                _solve_bb, _solve_blossom)

from oracles import brute_matching_stats, extremal_plain, random_loopy_graph


def test_vm_basics():
    assert vm(loopy_complete(3)) == 3
    assert vm(loopy_complete(1)) == 1
    k5 = LoopyGraph(range(5), [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert vm(k5) == 4


def test_witness_is_matching():
    G = loopy_complete(4)
    ma = analyze_matchings(G)
    witness = ma.witness_matching
    assert ma.vm == vm(G) == 4
    used = [v for e in witness for v in set(e)]
    assert len(used) == len(set(used))
    assert G.loops <= {v for e in witness for v in e}


def test_active_edges_lk3():
    # every edge of the loopy triangle lies in some vertex-maximal matching
    lk3 = loopy_complete(3)
    assert analyze_matchings(lk3).active_edges == frozenset(lk3.all_edges())


def test_active_edges_star_with_far_loop():
    # loop at 0, star at 1 with legs 2,3,4: vm = 3 via the loop + one leg;
    # every leg is active, and the loop is active
    G = LoopyGraph(range(5), [(1, 2), (1, 3), (1, 4)], [0])
    assert vm(G) == 3
    k, nu, act = brute_matching_stats(G)
    assert analyze_matchings(G).active_edges == frozenset(act)


def test_normality_extremes():
    G = loopy_complete(3)
    assert analyze_matchings(G, frozenset()).nu == vm(G)
    assert analyze_matchings(G, frozenset(G.all_edges())).nu == 0


def test_empty_graph_analysis():
    G = LoopyGraph([])
    assert vm(G) == 0
    ma = analyze_matchings(G)
    assert ma.active_edges == frozenset()
    assert (ma.vm, ma.nu, ma.witness_matching) == (0, 0, ())


def test_mixed_weak_normal_instance():
    # two loops plus a path: vertex-maximal matchings must skip one path edge
    G = LoopyGraph(range(4), [(0, 1), (1, 2), (2, 3)], [0, 3])
    weak = frozenset({(1, 2)})
    k, nu, act = brute_matching_stats(G, weak)
    ma = analyze_matchings(G, weak)
    assert (ma.vm, ma.nu) == (k, nu)
    assert ma.active_edges == frozenset(act)


def test_weak_pairs_normalized_and_checked():
    G = LoopyGraph([1, 2], [(1, 2)])
    assert analyze_matchings(G, {(2, 1)}).nu == 0
    assert analyze_matchings(G, {(1, 2)}).nu == 0
    with pytest.raises(ValueError, match=r"\(1, 1\) is not an edge"):
        analyze_matchings(G, {(1, 2), (1, 1)})
    with pytest.raises(ValueError, match=r"\(3, 1\) is not an edge"):
        analyze_matchings(G, [(3, 1)])


def test_oracle_equivalence_catalogs():
    rng = random.Random(7)
    for n in range(1, 5):
        for G in all_loopy_graphs(n):
            weak = frozenset(e for e in G.all_edges() if rng.random() < 0.4)
            k, nu, act = brute_matching_stats(G, weak)
            ma = analyze_matchings(G, weak)
            assert ma.vm == k
            assert ma.nu == nu
            assert ma.active_edges == frozenset(act)


def test_oracle_equivalence_random():
    rng = random.Random(11)
    for _ in range(250):
        G = random_loopy_graph(rng, 2, 8, 12)
        weak = frozenset(e for e in G.all_edges() if rng.random() < 0.3)
        k, nu, act = brute_matching_stats(G, weak)
        ma = analyze_matchings(G, weak)
        assert (ma.vm, ma.nu) == (k, nu)
        assert ma.active_edges == frozenset(act)


def _graph_with_edges(rng, n, count):
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    rng.shuffle(pairs)
    chosen = pairs[:count]
    touched = sorted({v for e in chosen for v in e})
    relabel = {v: j for j, v in enumerate(touched)}
    return LoopyGraph(range(len(touched)),
                      [(relabel[a], relabel[b]) for a, b in chosen if a != b],
                      [relabel[a] for a, b in chosen if a == b])


def test_solver_paths_agree():
    # the vertex-mask DP and the blossom reduction agree on small graphs,
    # sparse and dense
    rng = random.Random(3)
    graphs = [random_loopy_graph(rng, 2, 8, 12) for _ in range(120)]
    graphs += [_graph_with_edges(rng, rng.randint(7, 10), count)
               for count in range(16, 41) for _ in range(5)]
    for G in graphs:
        weak = frozenset(e for e in G.all_edges() if rng.random() < 0.3)
        _, triples = _edge_triples(G, weak)
        bb = _solve_bb(triples, G.n)((1 << G.n) - 1)
        bl = _solve_blossom(triples, G.n)
        assert bb[:2] == bl[:2]


def _assert_witness_attains(G, weak, ma):
    used = [v for e in ma.witness_matching for v in set(e)]
    assert len(used) == len(set(used))
    assert all(G.has_edge(*e) for e in ma.witness_matching)
    assert len(used) == ma.vm
    assert sum(len(set(e)) for e in ma.witness_matching
               if e not in weak) == ma.nu


def test_blossom_path_on_large_graph():
    # a 17-cycle with one loop: past the DP's vertex limit
    G = LoopyGraph(range(17), [(i, (i + 1) % 17) for i in range(17)], [0])
    assert G.n > _DP_MAX_VERTICES
    assert vm(G) == 17
    ma = analyze_matchings(G)
    assert (ma.vm, ma.nu) == (17, 17)
    _assert_witness_attains(G, frozenset(), ma)


def test_graphs_past_the_vertex_limit_skip_the_dp(monkeypatch):
    from wilfgraph import matching

    def no_dp(triples, n):
        raise AssertionError(f"DP built on {n} vertices")

    monkeypatch.setattr(matching, "_solve_bb", no_dp)
    rng = random.Random(17)
    # 9 disjoint edges (i, i + 9), on which a DP over vertex masks would
    # reach about 2^9 masks
    graphs = [LoopyGraph(range(18), [(i, i + 9) for i in range(9)])]
    for n in range(17, 23):
        for _ in range(2):
            # a random tree on n vertices plus a few edges and loops
            pairs = {(rng.randrange(v), v) for v in range(1, n)}
            pairs |= {tuple(sorted(rng.sample(range(n), 2)))
                      for _ in range(rng.randint(0, 4))}
            loops = rng.sample(range(n), rng.randint(0, 3))
            graphs.append(LoopyGraph(range(n), pairs, loops))
    for G in graphs:
        weak = frozenset(e for e in G.all_edges() if rng.random() < 0.3)
        k, nu, act = brute_matching_stats(G, weak)
        ma = analyze_matchings(G, weak)
        assert (ma.vm, ma.nu) == (k, nu)
        assert ma.active_edges == frozenset(act)
        _assert_witness_attains(G, weak, ma)


def test_edge_maximal_check():
    edge_maximal_check(loopy_complete(3))
    k5 = LoopyGraph(range(5), [(i, j) for i in range(5) for j in range(i + 1, 5)])
    edge_maximal_check(k5)
    with pytest.raises(NotEdgeMaximal):
        edge_maximal_check(LoopyGraph(range(4), [(0, 1), (2, 3)], []))


def test_edge_maximal_catalog():
    # of the 543 graphs on 1..5 vertices, 17 are edge-maximal for their vm,
    # and in each of those the loopy vertices are pairwise adjacent
    maximal = []
    raised = 0
    for n in range(1, 6):
        for G in all_loopy_graphs(n):
            try:
                edge_maximal_check(G)
            except NotEdgeMaximal:
                raised += 1
            else:
                maximal.append(G)
    assert (raised, len(maximal)) == (526, 17)
    for G in maximal:
        loopy = sorted(G.loops)
        assert all(G.has_edge(a, b) for i, a in enumerate(loopy)
                   for b in loopy[i + 1:])


def test_extremal_five_four():
    best, witnesses = extremal_edge_search(5, 4)
    assert best == 10
    k5 = LoopyGraph(range(5), [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert k5.canonical_key() in {w.canonical_key() for w in witnesses}
    assert extremal_edge_search(5, 4, loops=3)[0] == 8
    assert extremal_edge_search(5, 4, loops=2)[0] == 9
    assert extremal_edge_search(5, 4, loops=1)[0] == 8


def test_extremal_witnesses_edge_maximal():
    best, witnesses = extremal_edge_search(4, 3)
    for w in witnesses:
        edge_maximal_check(w)


def test_extremal_join_lower_bound():
    # vm(LK_r join empty(n-r)) = 2r, with binom(r+1,2) + r(n-r) edges
    r, n = 1, 4
    best, _ = extremal_edge_search(n, 2 * r)
    join_edges = r * (r + 1) // 2 + r * (n - r)
    assert best >= join_edges


def test_extremal_infeasible():
    with pytest.raises(Infeasible):
        extremal_edge_search(3, 5)
    with pytest.raises(Infeasible):
        extremal_edge_search(2, 1)


def _extremal_or_message(search, n, k, loops):
    try:
        return search(n, k, loops)
    except Infeasible as exc:
        return str(exc)


def test_extremal_matches_plain_loop():
    # walking the catalog by decreasing edge count and stopping at the first
    # count with a witness gives the plain loop's maximum, witnesses in
    # catalog order, and Infeasible message
    cases = [(n, k, loops) for n in range(6) for k in range(n + 2)
             for loops in [None, *range(n + 1)]] + [(6, 4, None)]
    for n, k, loops in cases:
        assert _extremal_or_message(extremal_edge_search, n, k, loops) == \
            _extremal_or_message(extremal_plain, n, k, loops), (n, k, loops)


def test_analyze_builds_one_solver(monkeypatch):
    # vm, nu, the witness and every active-edge query share one memo
    from wilfgraph import matching
    builds = []
    real = matching._solve_bb
    monkeypatch.setattr(matching, "_solve_bb",
                        lambda triples, n: builds.append(1) or real(triples, n))
    G = loopy_complete(3)
    ma = analyze_matchings(G)
    assert len(builds) == 1
    assert ma.active_edges == brute_matching_stats(G)[2]


def test_matching_analyze_invariant_violation(monkeypatch):
    from wilfgraph import matching
    G = loopy_complete(3)
    monkeypatch.setattr(matching, "_solve",
                        lambda triples, n: lambda free: (n + 1, 0, ()))
    with pytest.raises(InvariantViolation):
        analyze_matchings(G)


def test_edge_cap():
    loops = LoopyGraph(range(_MAX_EDGES), (), range(_MAX_EDGES))
    edges, triples = _edge_triples(loops, frozenset())
    assert len(edges) == len(triples) == _MAX_EDGES
    over = loops.with_edge(0, 1)
    for solve in (vm, analyze_matchings):
        with pytest.raises(TooLarge):
            solve(over)


def test_import_leaves_networkx_unloaded():
    # networkx serves only the blossom path, past the DP's vertex limit
    code = ("import sys, wilfgraph\n"
            "wilfgraph.analyze_matchings(wilfgraph.loopy_complete(4))\n"
            "raise SystemExit('networkx' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(wilfgraph.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
