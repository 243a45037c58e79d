import json
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wilfgraph import (LoopyGraph, TooLarge, all_loopy_graphs, build_graph,
                       iter_semigroups, loopy_complete)
from wilfgraph.loopy import _canonical_key, _refine, _target, _twin_class

from oracles import _refine as plain_refine
from oracles import (brute_isomorphic, canonical_key_unpruned, catalog_unpruned,
                     random_loopy_graph, relabeled)


def _unpruned_key(G):
    return canonical_key_unpruned(G.n, G._adj, G._loopmask)


def _labeled_graphs(n):
    """Every labeled loopy graph on vertices 0..n-1 without isolated vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    graphs = []
    for emask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if emask >> i & 1]
        for lmask in range(1 << n):
            loops = [v for v in range(n) if lmask >> v & 1]
            touched = {v for e in edges for v in e} | set(loops)
            if len(touched) == n:
                graphs.append(LoopyGraph(range(n), edges, loops))
    return graphs


def test_constructor_rejects_isolated():
    with pytest.raises(ValueError, match="isolated"):
        LoopyGraph([0, 1, 2], [(0, 1)], [])
    with pytest.raises(ValueError, match="true edge"):
        LoopyGraph([0, 1], [(0, 0)], [])


def test_empty_graph():
    G = LoopyGraph([])
    assert G.n == 0
    assert G.edge_count == 0
    assert G.canonical_key() == LoopyGraph([]).canonical_key()


def test_degree_counts_loop_once():
    G = LoopyGraph([0, 1], [(0, 1)], [0])
    assert G.neighbors(0) == {0, 1}
    assert G.degree(0) == 2
    assert G.degree(1) == 1


def test_one_edge_graphs_distinct():
    loop = LoopyGraph([0], [], [0])
    edge = LoopyGraph([0, 1], [(0, 1)], [])
    assert loop.canonical_key() != edge.canonical_key()


def test_two_edge_graphs_five_classes():
    keys = {g.canonical_key(): g for n in (2, 3, 4)
            for g in all_loopy_graphs(n) if g.edge_count == 2}
    assert len(keys) == 5


def test_lk3_relabel_invariance():
    lk3 = loopy_complete(3)
    for perm in [(1, 2, 0), (2, 0, 1), (0, 2, 1)]:
        H = relabeled(lk3, dict(zip(range(3), perm)))
        assert H.canonical_key() == lk3.canonical_key()


def test_canonical_oracle_small():
    # key equality must coincide with brute-force isomorphism on all labeled
    # loopy graphs with up to 4 vertices, and every key with the unpruned one
    for n in range(5):
        graphs = _labeled_graphs(n)
        by_key = {}
        for g in graphs:
            key = g.canonical_key()
            assert key == _unpruned_key(g)
            by_key.setdefault(key, []).append(g)
        reps = [gs[0] for gs in by_key.values()]
        # same key: isomorphic to the representative
        for gs in by_key.values():
            for g in gs[1:5]:
                assert brute_isomorphic(gs[0], g)
        # distinct keys: not isomorphic
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                assert not brute_isomorphic(a, b)
        assert len(reps) == len(all_loopy_graphs(n))


def test_canonical_oracle_all_pairs_five_vertices():
    # distinct canonical keys on the full 5-vertex catalog must mean
    # non-isomorphic; cheap invariants prune the trivially different pairs
    catalog = all_loopy_graphs(5)
    assert len({g.canonical_key() for g in catalog}) == len(catalog)
    buckets = {}
    for g in catalog:
        sig = (len(g.true_edges), len(g.loops),
               tuple(sorted(g.degree(v) for v in g.vertices)))
        buckets.setdefault(sig, []).append(g)
    for group in buckets.values():
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                assert not brute_isomorphic(a, b)
    # and equal keys mean isomorphic: every random graph lands on the key of
    # exactly one catalog entry of its size
    rng = random.Random(5)
    keys = {g.canonical_key() for n in range(1, 6)
            for g in all_loopy_graphs(n)}
    for g in [random_loopy_graph(rng, 5, 5, 9) for _ in range(60)]:
        assert g.canonical_key() in keys


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 10 - 1),
       st.integers(min_value=0, max_value=31),
       st.randoms(use_true_random=False))
def test_canonical_relabel_property(emask, lmask, rng):
    n = 5
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [pairs[i] for i in range(len(pairs)) if emask >> i & 1]
    loops = [v for v in range(n) if lmask >> v & 1]
    touched = sorted({v for e in edges for v in e} | set(loops))
    if not touched:
        return
    relabel = {v: i for i, v in enumerate(touched)}
    G = LoopyGraph(range(len(touched)),
                   [(relabel[a], relabel[b]) for a, b in edges],
                   [relabel[v] for v in loops])
    perm = list(range(G.n))
    rng.shuffle(perm)
    H = relabeled(G, {v: perm[i] for i, v in enumerate(G.vertices)})
    assert G.canonical_key() == H.canonical_key()


def test_catalog_counts_match_labeled_dedup():
    # the augmentation catalog agrees with canonicalizing every labeled graph
    for n in range(5):
        labeled_classes = {g.canonical_key() for g in _labeled_graphs(n)}
        catalog = all_loopy_graphs(n)
        assert {g.canonical_key() for g in catalog} == labeled_classes
        assert len(catalog) == len(labeled_classes)


def test_keys_match_unpruned_on_semigroup_graphs():
    # twin pruning leaves the census keys as they were, genus <= 15
    count = 0
    for S in iter_semigroups(15):
        G = build_graph(S)
        assert G.canonical_key() == _unpruned_key(G), S
        count += 1
    assert count == 6964


@st.composite
def _twin_heavy_graphs(draw):
    """Disjoint unions of stars, matchings, complete bipartite graphs and
    cliques on at most 18 vertices, random loops, randomly relabeled."""
    parts = draw(st.lists(st.tuples(
        st.sampled_from(("star", "matching", "biclique", "clique")),
        st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=6))
    n, edges = 0, []
    for kind, a, b in parts:
        size = {"star": a + 1, "matching": 2 * a, "biclique": a + b,
                "clique": a + 1}[kind]
        if n + size > 18:       # the first part always fits
            continue
        if kind == "star":
            edges += [(n, n + i) for i in range(1, a + 1)]
        elif kind == "matching":
            edges += [(n + 2 * i, n + 2 * i + 1) for i in range(a)]
        elif kind == "biclique":
            edges += [(n + i, n + a + j) for i in range(a) for j in range(b)]
        else:
            edges += [(n + i, n + j) for j in range(size) for i in range(j)]
        n += size
    lmask = draw(st.integers(0, (1 << n) - 1))
    G = LoopyGraph(range(n), edges, [v for v in range(n) if lmask >> v & 1])
    return G, draw(st.permutations(range(n)))


@settings(max_examples=150, deadline=None)
@given(_twin_heavy_graphs())
def test_keys_match_unpruned_on_twin_heavy_graphs(case):
    G, perm = case
    key = G.canonical_key()
    assert key == _unpruned_key(G)
    assert relabeled(G, dict(zip(G.vertices, perm))).canonical_key() == key


@st.composite
def _partitioned_graphs(draw):
    """A random loopy graph on 1-14 vertices, as rows without the loops, and
    an ordered partition of its vertices: discrete, one cell, cut at random
    points of a random order, or the (loop, degree) coloring of the
    labeling."""
    n = draw(st.integers(1, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    emask = draw(st.integers(0, (1 << len(pairs)) - 1))
    adj = [0] * n
    for bit, (i, j) in enumerate(pairs):
        if emask >> bit & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    order = draw(st.permutations(range(n)))
    shape = draw(st.sampled_from(("discrete", "one", "cut", "colored")))
    if shape == "discrete":
        return adj, [[v] for v in order]
    if shape == "one":
        return adj, [list(order)]
    if shape == "cut":
        cuts = sorted(draw(st.sets(st.integers(1, n - 1))) if n > 1 else ())
        return adj, [list(order[a:b])
                     for a, b in zip([0] + cuts, cuts + [n])]
    loopmask = draw(st.integers(0, (1 << n) - 1))
    colors: dict = {}
    for v in order:
        colors.setdefault((loopmask >> v & 1, adj[v].bit_count()),
                          []).append(v)
    return adj, [colors[k] for k in sorted(colors)]


@settings(max_examples=400, deadline=None)
@given(_partitioned_graphs())
def test_refine_matches_oracle(case):
    # the shortcuts return the very partition of the plain refinement
    adj, cells = case
    expected = plain_refine([list(c) for c in cells], adj)
    assert _refine([list(c) for c in cells], adj) == expected


def test_keys_match_unpruned_on_regular_graphs():
    # equal degrees leave one cell that is seldom an orbit, so pruning a
    # vertex that is no twin of an explored one would show here
    rng = random.Random(9)
    for seed in range(60):
        d, n = rng.choice([(3, 8), (3, 10), (3, 12), (4, 9), (4, 11)])
        R = nx.random_regular_graph(d, n, seed=seed)
        G = LoopyGraph(range(n), R.edges(), rng.sample(range(n), seed % 3))
        key = G.canonical_key()
        assert key == _unpruned_key(G)
        perm = rng.sample(range(n), n)
        assert relabeled(G, dict(zip(G.vertices, perm))).canonical_key() == key


def _z4z4(offset, steps):
    """The Cayley graph of Z4 x Z4 with connection set +-steps, with (i, j)
    on offset + 4i + j."""
    return [(offset + 4 * i + j, offset + 4 * ((i + a) % 4) + (j + b) % 4)
            for i in range(4) for j in range(4) for a, b in steps]


def test_keys_match_unpruned_on_shrikhande_and_rook():
    # both halves are strongly regular (16, 6, 2, 2), so refinement tells
    # neither the halves apart nor the 9 non-neighbours of a Shrikhande
    # vertex, which its stabilizer splits into orbits of 3 and 6; pruning
    # with every discovered automorphism, base fixed or not, joins them and
    # changes the key on these labelings
    G = LoopyGraph(range(32), _z4z4(0, [(1, 0), (0, 1), (1, 1)])
                   + _z4z4(16, [(1, 0), (2, 0), (0, 1), (0, 2)]))
    key = G.canonical_key()
    for seed in (4, 5, 6):
        perm = random.Random(seed).sample(range(32), 32)
        H = relabeled(G, dict(enumerate(perm)))
        assert H.canonical_key() == _unpruned_key(H) == key


def test_twin_class():
    # a looped clique of twins and the leaves of a star are twin classes,
    # so a partition of them and singletons is a leaf; the 4-cycle's one
    # degree cell is not, though its first two vertices are twins
    lk4 = loopy_complete(4)
    star = LoopyGraph(range(4), [(0, 1), (0, 2), (0, 3)])
    c4 = LoopyGraph(range(4), [(0, 2), (2, 1), (1, 3), (3, 0)])
    assert _twin_class([0, 1, 2, 3], lk4._adj)
    assert _target(_refine([[0, 1, 2, 3]], lk4._adj), lk4._adj) is None
    assert _twin_class([1, 2, 3], star._adj)
    assert _target(_refine([[1, 2, 3], [0]], star._adj), star._adj) is None
    cells = _refine([[0, 1, 2, 3]], c4._adj)
    assert cells == [[0, 1, 2, 3]]
    assert not _twin_class(cells[0], c4._adj)
    assert _target(cells, c4._adj) == 0
    for G in (lk4, star, c4):
        assert G.canonical_key() == _unpruned_key(G)


def test_catalog_matches_unpruned():
    # same representatives, labels and order as trying every neighbor set
    for n in range(7):
        assert [g.to_json() for g in all_loopy_graphs(n)] == \
            catalog_unpruned(n)


def test_catalog_small_counts():
    assert [len(all_loopy_graphs(n)) for n in range(5)] == [1, 1, 4, 14, 70]


def test_catalog_rejects_large():
    for n in (7, 8):
        with pytest.raises(ValueError):
            all_loopy_graphs(n)


def test_too_large_guard():
    n = 33
    with pytest.raises(TooLarge):
        _canonical_key(n, tuple([0] * n), (1 << n) - 1)


def test_json_roundtrip():
    G = LoopyGraph([3, 5, 9], [(3, 5), (5, 9)], [3])
    data = json.loads(json.dumps(G.to_json()))
    assert LoopyGraph.from_json(data) == G


@st.composite
def _labeled_any(draw):
    """(vertices, true edges in either orientation, loops), no isolated
    vertex, the labels all ints, all strings or all tuples."""
    label = draw(st.sampled_from([
        st.integers(-20, 20), st.text(max_size=3),
        st.tuples(st.integers(0, 2), st.text("ab", max_size=2))]))
    verts = draw(st.lists(label, unique=True, max_size=8))
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]]
    edges = [(b, a) if draw(st.booleans()) else (a, b)
             for a, b in pairs if draw(st.booleans())]
    loops = [v for v in verts if draw(st.booleans())]
    touched = {v for e in edges for v in e} | set(loops)
    return [v for v in verts if v in touched], edges, loops


@settings(max_examples=200, deadline=None)
@given(_labeled_any())
def test_rows_are_the_stored_form(case):
    verts, edges, loops = case
    G = LoopyGraph(verts, edges, loops)
    H = LoopyGraph._from_rows(G.vertices, G._adj, G._loopmask)
    assert H == G and hash(H) == hash(G)
    true_edges = {(a, b) if a < b else (b, a) for a, b in edges}
    assert G.true_edges == true_edges and G.loops == set(loops)
    assert G.edge_count == len(edges) + len(loops)
    assert G.loop_count == len(loops)
    # matching's witness order and the battery's cache key rely on this
    assert G.all_edges() == (sorted(G.true_edges)
                             + sorted((v, v) for v in G.loops))
    assert LoopyGraph.from_json(G.to_json()) == G


def test_dot_output():
    G = LoopyGraph([1, 2], [(1, 2)], [1])
    dot = G.to_dot(weak={(1, 2)}, active={(1, 1)})
    assert '"1" -- "1"' in dot          # loop rendered as a self-edge
    assert "style=dashed" in dot
    assert "penwidth" in dot


def test_random_generator_bounds():
    rng = random.Random(0)
    sizes = Counter()
    for _ in range(200):
        G = random_loopy_graph(rng, 2, 8, 12)
        assert 1 <= G.edge_count <= 12
        assert G.n <= 8
        sizes[G.n] += 1
    assert len(sizes) > 3       # spread over several vertex counts


@pytest.mark.parametrize("data, message", [
    ([[0, 1]], "object"),
    ({"edges": [[0, 1]]}, "vertices"),
    ({"vertices": 3}, "list"),
    ({"vertices": [0, 1], "edges": [[0, 1, 1]]}, "pair"),
    ({"vertices": [0, 1], "edges": [0]}, "pair"),
    ({"vertices": [0, 1], "edges": [[0, 1]], "loops": "0"}, "list"),
    ({"vertices": [[0], 1], "edges": [[0, 1]]}, "labels"),
    ({"vertices": [0, "a"], "edges": [[0, "a"]]}, "labels"),
])
def test_from_json_rejects_malformed(data, message):
    with pytest.raises(ValueError, match=message):
        LoopyGraph.from_json(data)
