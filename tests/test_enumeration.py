from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wilfgraph import (BUCKETS, build_graph, enumeration, from_generators,
                       iter_semigroups, run_census, verify_wilf_range)
from wilfgraph.errors import WilfCounterexample
from wilfgraph.semigroup import _minimal_generators, bit_positions

from oracles import brute_minimal_generators, gaps, sieve_members

# first twenty terms of the genus census; the tree must reproduce them exactly
NG = [1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857,
      4806, 8045, 13467, 22464, 37396]
GAMMA = [1, 1, 2, 3, 4, 6, 11, 15, 27, 41, 66, 115, 190, 322, 569, 1014,
         1761, 3107, 5475, 9621]


def test_counts_small():
    res = run_census(10)
    assert [res[g].count_ng for g in range(1, 11)] == NG[:10]
    assert res[0].count_ng == 1


def test_genus_one_is_two_three():
    found = [S for S in iter_semigroups(1) if S.genus == 1]
    assert len(found) == 1
    assert found[0] == from_generators([2, 3])


def test_genus_seven_count():
    assert sum(S.genus == 7 for S in iter_semigroups(7)) == 39


def test_each_semigroup_visited_once():
    seen = set()
    total = 0
    for S in iter_semigroups(12):
        total += 1
        assert S.min_generators not in seen
        seen.add(S.min_generators)
    assert total == 1 + sum(NG[:12])


def test_stream_consistency():
    # each node's mask, multiplicity, conductor and genus come from its
    # parent's; sieving its generators again must give the same values
    for S in iter_semigroups(10):
        assert S.genus == len(gaps(S))
        T = from_generators(S.min_generators)
        assert S == T
        assert (S.mask, S.multiplicity, S.conductor, S.genus) == \
            (T.mask, T.multiplicity, T.conductor, T.genus)


def test_node_generators_match_oracle():
    # test_stream_consistency sieves through the same _add_generators as the
    # child step; the oracles share no package code
    count = 0
    for S in iter_semigroups(11):
        # one past c + m, so that the root's generator 1 = c + m is in range
        c, horizon = S.conductor, S.conductor + S.multiplicity + 1
        members = {x for x in range(horizon) if x >= c or S.mask >> x & 1}
        assert sieve_members(S.min_generators, horizon) == members
        assert list(S.min_generators) == brute_minimal_generators(members)
        count += 1
    assert count == 1 + sum(NG[:11])


def _node(mask, m, c, g, gens):
    """The walk's node (mask, m, c, g, P, R) of a generator tuple."""
    return (mask, m, c, g, sum(1 << q for q in gens),
            sum(1 << (enumeration._K - q) for q in gens))


def test_raw_nodes_are_consistent():
    # iter_semigroups recomputes the genus from the mask; the walk's own
    # tuple (mask, m, c, g, P, R) must already agree with it, P must be the
    # mask of the generators the sieve's pass reads off the members, and R
    # that set reversed below _K
    count = 0
    for node in enumeration._descend(enumeration._ROOT, 16):
        mask, m, c, g, P, R = node
        gens = _minimal_generators(mask, m, c)
        assert node == _node(mask, m, c, g, gens), gens
        assert g == c - (mask & ((1 << c) - 1)).bit_count(), gens
        # every bit in [c, c + m) is set, and none at or above c + m
        assert mask >> c == (1 << m) - 1, gens
        assert P & -P == 1 << m, gens
        # the largest p + m a child may form is below _K (the root, whose
        # generator is c + m = 1, has only the ordinary child)
        assert g == 0 or P.bit_length() - 1 + m <= 4 * g + 1, gens
        count += 1
    assert count == 1 + sum(NG[:16])


def test_stream_order_pinned():
    # children by increasing removed generator, as iter_semigroups states
    assert [S.min_generators for S in iter_semigroups(4)] == [
        (1,), (2, 3), (3, 4, 5), (4, 5, 6, 7), (5, 6, 7, 8, 9), (4, 6, 7, 9),
        (4, 5, 7), (4, 5, 6), (3, 5, 7), (3, 7, 8), (3, 5), (3, 4), (2, 5),
        (2, 7), (2, 9)]


def test_gamma_small():
    res = run_census(8, classes=True)
    assert [res[g].class_count_gamma for g in range(1, 9)] == GAMMA[:8]


def test_genus_seven_class_structure():
    # 11 classes: the empty graph, both 1-edge graphs, all five 2-edge graphs,
    # and three specific 3-edge graphs
    from wilfgraph import LoopyGraph
    stats = run_census(7, classes=True)[7]
    assert stats.class_count_gamma == 11
    sizes = {}
    for key, gens in stats.class_representatives.items():
        G = build_graph(from_generators(gens))
        sizes.setdefault(G.edge_count, set()).add(key)
    assert {e: len(ks) for e, ks in sizes.items()} == {0: 1, 1: 2, 2: 5, 3: 3}
    # the three 3-edge shapes: two loops plus a pendant edge at a loopy
    # vertex; a loop at the end of a two-edge path; a loop plus two disjoint
    # true edges
    expected = {
        LoopyGraph([0, 1, 2], [(0, 2)], [0, 1]).canonical_key(),
        LoopyGraph([0, 1, 2], [(0, 1), (1, 2)], [0]).canonical_key(),
        LoopyGraph(range(5), [(1, 2), (3, 4)], [0]).canonical_key(),
    }
    assert sizes[3] == expected


def test_census_representatives_are_members():
    stats = run_census(6, classes=True)[6]
    for key, gens in stats.class_representatives.items():
        S = from_generators(gens)
        assert S.genus == 6
        assert build_graph(S).canonical_key() == key
    assert sum(stats.class_keys.values()) == stats.count_ng


_BY_GENUS = {}
for node in enumeration._descend(enumeration._ROOT, 14):
    _BY_GENUS.setdefault(node[3], []).append(node)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_tuple_least_is_largest_reversed_mask(data):
    # within a genus no generator set is a prefix of another, so the class
    # census keeps the member of largest R as the tuple-least one
    nodes = _BY_GENUS[data.draw(st.integers(0, 14))]
    a, b = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
    gens_a, gens_b = bit_positions(a[4]), bit_positions(b[4])
    assert (a[5] > b[5]) == (gens_a < gens_b)
    assert enumeration._gens(a[5]) == tuple(gens_a)


def test_tuple_least_class_representatives():
    # each class's representative is the min over the tuples of its members
    least = {}
    for S in iter_semigroups(11):
        reps = least.setdefault(S.genus, {})
        key = build_graph(S).canonical_key()
        reps[key] = min(reps.get(key, S.min_generators), S.min_generators)
    res = run_census(11, classes=True)
    assert {g: stats.class_representatives for g, stats in res.items()} == \
        least


def test_walk_bound_raises(monkeypatch):
    # a walk to genus g forms p + m <= 4g - 3 < _K; every walk entry raises
    # ValueError past the bound, before any node or pool exists
    assert 4 * enumeration.GENUS_HARD_CAP + 1 < enumeration._K
    with pytest.raises(ValueError, match="genus 30 at most, got 31"):
        iter_semigroups(31)

    def no_pool(*args):
        raise AssertionError("a process pool was requested")

    monkeypatch.setattr(enumeration, "get_context", no_pool)
    monkeypatch.setattr(enumeration, "_K", 4 * 6 + 2)
    iter_semigroups(6)
    for entry in (iter_semigroups, run_census, verify_wilf_range):
        with pytest.raises(ValueError, match="genus 6 at most, got 7"):
            entry(7)
    with pytest.raises(ValueError, match="genus 6 at most, got 7"):
        run_census(7, workers=2)


def test_worker_determinism():
    a = run_census(11, workers=1, classes=True)
    b = run_census(11, workers=3, classes=True)
    for g in range(12):
        assert a[g].count_ng == b[g].count_ng
        assert a[g].class_keys == b[g].class_keys
        assert a[g].class_representatives == b[g].class_representatives
        assert a[g].buckets["p_ge_third_m"] == b[g].buckets["p_ge_third_m"]
        assert a[g].buckets == b[g].buckets
        assert a[g].wilf_violations == b[g].wilf_violations


def test_worker_determinism_deep_split():
    # at g_max = 16 the frontier is at genus 10, one deeper than the split
    # of the genus-11 test above
    a = run_census(16, workers=1, classes=True)
    for workers in (2, 3):
        b = run_census(16, workers=workers, classes=True)
        for g in range(17):
            assert vars(a[g]) == vars(b[g])


def test_batches_balanced():
    # no batch of the pool carries half the nodes below the frontier
    g_max = 18
    split = max(g_max - enumeration._SPLIT_DEPTH, enumeration._SPLIT_FLOOR)
    frontier = []
    above = sum(1 for _ in enumeration._above(split, frontier))
    assert above == 1 + sum(NG[:split - 1])
    assert len(frontier) == NG[split - 1]
    sizes = [sum(1 for root in batch
                 for _ in enumeration._descend(root, g_max))
             for batch in enumeration._deal(frontier, 2)]
    assert len(sizes) == 2 * enumeration._BATCHES_PER_WORKER
    assert sum(sizes) == sum(NG[split - 1:g_max])
    assert 2 * max(sizes) <= sum(sizes)


def test_worker_cap_before_pool(monkeypatch):
    def no_pool(*args):
        raise AssertionError("a process pool was requested")

    monkeypatch.setattr(enumeration, "get_context", no_pool)
    for workers in (0, enumeration.MAX_WORKERS + 1, 100_000):
        with pytest.raises(ValueError):
            run_census(12, workers=workers)


@pytest.mark.parametrize("g_max", [0, 1, 2, 10, 11, 12, 16, 18])
def test_walk_only_census_matches_class_census(g_max):
    # the class census builds every node; the walk-only census counts the
    # last two genera from the nodes of genus g_max - 2, also when the pool's
    # frontier sits on genus g_max - 1 (g_max = 10) or g_max - 2 (g_max = 11)
    full = run_census(g_max, classes=True)
    for workers in (1, 2, 3):
        res = run_census(g_max, workers=workers)
        for g in range(g_max + 1):
            assert res[g].count_ng == full[g].count_ng, (g, workers)
            assert res[g].buckets == full[g].buckets, (g, workers)
            assert Counter(res[g].wilf_violations) == \
                Counter(full[g].wilf_violations), (g, workers)


def test_walk_only_census_stops_a_genus_short(monkeypatch):
    # the serial walk builds the 4,107 nodes of genus < g_max - 1; of the
    # 1,693 nodes of genus 14, the 286 that are not counted in bulk stream
    # again through _descend with their 463 children, and of those children
    # the 85 that are not counted in bulk either stream again with their 131
    # children
    built = 0
    descend = enumeration._descend

    def counted(node, cut):
        nonlocal built
        for node in descend(node, cut):
            built += 1
            yield node

    monkeypatch.setattr(enumeration, "_descend", counted)
    res = run_census(16)
    assert built == 1 + sum(NG[:14]) + 286 + 463 + 85 + 131
    assert res[15].count_ng == NG[14]
    assert res[16].count_ng == NG[15]


def _inject(monkeypatch, bad):
    """Append the node ``bad`` to the walk from the root, as if a broken
    tree step had produced it; the census's other walks stay as they are."""
    descend = enumeration._descend
    monkeypatch.setattr(
        enumeration, "_descend",
        lambda node, cut: chain(descend(node, cut), [bad])
        if node == enumeration._ROOT else descend(node, cut))


def test_fused_leaf_wilf_counterexample(monkeypatch):
    # {0, 4, 5} u [6, 10) read with m = 4, c = 6, genus 4 and P = (4, 5, 6):
    # |P||L| = 6 >= c passes, but its child S minus 6 keeps two generators
    # (10 = 5 + 5 is a sum), c' = 7 and |L'| = 2, and 2 * 2 < 7 fails
    bad = _node(0b1111110001, 4, 6, 4, (4, 5, 6))
    child = [tuple(bit_positions(node[4]))
             for node in enumeration._descend(bad, 5) if node[3] == 5]
    assert child == [(4, 5)]
    _inject(monkeypatch, bad)
    res = run_census(5)
    assert res[4].wilf_violations == []
    assert res[5].wilf_violations == child
    with pytest.raises(WilfCounterexample, match=r"failed for \[\(4, 5\)\]"):
        verify_wilf_range(5)


def test_grandchild_wilf_counterexample(monkeypatch):
    # <7, 9, 10, 12, 13, 15> (genus 8, c = 12, m = 7) read with genus 9
    # passes, 6 * 3 >= 12, and so do its children S minus 12, 13 and 15; its
    # grandchild S minus 12 minus 13 = <7, 9, 10, 15> has c'' = 14 and
    # |L''| = 3, and 4 * 3 < 14 fails. At g_max = 11 the node sits at genus
    # g_max - 2, where the census counts two genera from one node, and at two
    # workers it is a batch root
    gens = (7, 9, 10, 12, 13, 15)
    S = from_generators(gens)
    assert (S.genus, S.conductor, S.multiplicity) == (8, 12, 7)
    bad = _node(S.mask, 7, 12, 9, gens)
    children = [node for node in enumeration._descend(bad, 10)
                if node[3] == 10]
    assert len(children) == 3
    assert all(P.bit_count() * (c - g) >= c
               for _, _, c, g, P, _ in children)
    _inject(monkeypatch, bad)
    for workers in (1, 2):
        res = run_census(11, workers=workers)
        assert res[9].wilf_violations == []
        assert res[10].wilf_violations == []
        assert res[11].wilf_violations == [(7, 9, 10, 15)]
        with pytest.raises(WilfCounterexample,
                           match=r"failed for \[\(7, 9, 10, 15\)\]"):
            verify_wilf_range(11, workers=workers)


def _read(cases):
    """Counts by (genus, |P| <= 3, c <= 3m, 2|P| >= m, 3|P| >= m), the
    census's bucket tests: the bulk rule may file a node under another |P|
    with the same tests."""
    out = Counter()
    for (g, n_p, m, low), n in cases.items():
        out[g, n_p <= 3, low, 2 * n_p >= m, 3 * n_p >= m] += n
    return +out


def _walk_below(node, depth):
    """The (genus, |P|, m, c <= 3m) counts of the descendants of ``node`` down
    to ``depth`` genera below it, and those that fail Wilf as (genus,
    generators), read off the walk of its subtree."""
    cases, bad = Counter(), []
    for _, m, c, g, P, _ in enumeration._descend(node, node[3] + depth):
        if g > node[3]:
            n_p = P.bit_count()
            cases[g, n_p, m, c <= 3 * m] += 1
            if n_p * (c - g) < c:
                bad.append((g, tuple(bit_positions(P))))
    return cases, sorted(bad)


def test_count_below_matches_walk():
    # node by node, not summed over a genus, so that two errors of the bulk
    # rule cannot cancel: every node of genus <= 12, the doctored nodes of
    # the two tests above, and two semigroups read with a larger genus that
    # sit on the Wilf bound, (n_p - d)(p0 - g) = p0 + d - 1, with a
    # descendant d genera down that fails Wilf: <9, ..., 12, 14, ..., 17>
    # (genus 9 read as 12, d = 1) and <7, 10, 11, 12, 15, 16> (genus 9 read
    # as 11, d = 2); and the ordinary nodes <m, ..., 2m - 1> up to m = 30,
    # which only the Wilf bound keeps out of the bulk count
    doctored = [_node(0b1111110001, 4, 6, 4, (4, 5, 6))]
    doctored += [_node(1 | (1 << 2 * m) - (1 << m), m, m, m - 1,
                       range(m, 2 * m)) for m in range(2, 31)]
    for gens, g in [((7, 9, 10, 12, 13, 15), 9),
                    ((9, 10, 11, 12, 14, 15, 16, 17), 12),
                    ((7, 10, 11, 12, 15, 16), 11)]:
        S = from_generators(gens)
        doctored.append(_node(S.mask, S.multiplicity, S.conductor, g, gens))
    failures = 0
    for node in chain(enumeration._descend(enumeration._ROOT, 12), doctored):
        g = node[3]
        for depth in (1, 2):
            cases = {}
            acc = {h: enumeration.GenusCensus(h)
                   for h in range(g + 1, g + depth + 1)}
            enumeration._count_below(node, node[4].bit_count(), depth, cases,
                                     acc)
            want, bad = _walk_below(node, depth)
            assert min(cases.values(), default=0) >= 0
            assert _read(cases) == _read(want), (bit_positions(node[4]), depth)
            assert sorted((h, gens) for h, stats in acc.items()
                          for gens in stats.wilf_violations) == bad, \
                (bit_positions(node[4]), depth)
            failures += len(bad)
    # (4, 5) and (9, 10, 11, 12, 15, 16, 17) at depth 1 and 2, and at depth
    # 2 (7, 9, 10, 15), (9, 10, 11, 12, 16, 17) and (7, 10, 11, 12)
    assert failures == 7


def test_wilf_verification_small():
    report = verify_wilf_range(10)
    assert report.total == 1 + sum(NG[:10])
    # every bucket is a subset of the covered tally
    assert report.buckets["covered"] <= report.total
    assert report.buckets["p_le_3"] <= report.buckets["covered"]
    assert report.buckets["p_ge_half_m"] <= report.buckets["p_ge_third_m"]


def test_hypothesis_bucket_consistency():
    # |P| >= 4 together with m <= 12 forces |P| >= m/3
    for S in iter_semigroups(8):
        n_p, m = len(S.min_generators), S.multiplicity
        if n_p >= 4 and m <= 12:
            assert 3 * n_p >= m


def test_hypothesis_first_failures_beyond_twenty():
    # every semigroup of genus <= 20 satisfies |P| >= m/3; the first three
    # failures appear at genus 21
    from fractions import Fraction
    res = run_census(21)
    assert all(res[g].p_ge_third_fraction == 1 for g in range(21))
    assert res[21].count_ng == 62194
    assert res[21].p_ge_third_fraction == Fraction(62191, 62194)
    for gens in [(7, 8), (10, 11, 13), (10, 11, 14)]:
        S = from_generators(gens)
        assert S.genus == 21
        assert 3 * len(S.min_generators) < S.multiplicity


def test_genus_bounds():
    with pytest.raises(ValueError):
        run_census(31)
    with pytest.raises(ValueError):
        run_census(-1)


def test_bucket_totals_pinned():
    # exact known-case bucket totals over genus 0..12, and at genus 12 alone
    report = verify_wilf_range(12)
    assert report.total == 1413
    assert report.buckets == Counter(p_ge_third_m=1413, p_le_3=124,
                                     q_le_3=1176, p_ge_half_m=1407,
                                     covered=1413)
    g12 = report.per_genus[12].buckets
    assert (g12["p_le_3"], g12["q_le_3"], g12["p_ge_half_m"]) == (27, 487, 588)
    assert set(report.buckets) == set(BUCKETS)


def test_census_key_matches_build_graph():
    # the census builds G(S) straight from the node's bitmask
    keys = Counter(build_graph(S).canonical_key()
                   for S in iter_semigroups(9) if S.genus == 9)
    assert run_census(9, classes=True)[9].class_keys == keys


def test_census_entry_grows_from_parent():
    # every tree step to genus 16: the entry built from the parent's equals
    # the one built from scratch, signature and key; the parent's entry is
    # kept exactly when p + m is a minimal generator of the child
    path, cache, grown_cache = {}, {}, {}
    steps = kept = empty_fibers = 0
    for mask, m, c, g, P, _ in enumeration._descend(enumeration._ROOT, 16):
        scratch = enumeration._graph_entry(mask, m, c, None, cache)
        parent = path.get(g - 1)
        if parent is not None:
            entry = enumeration._graph_entry(mask, m, c, parent, grown_cache)
            assert entry == scratch, bit_positions(P)
            steps += 1
            kept += entry[3] is parent[3]
            empty_fibers += parent[0] == m and P >> (c - 1 + m) & 1
        path[g] = scratch
    assert steps == sum(NG[:16])
    assert kept == empty_fibers > 0
