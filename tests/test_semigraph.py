from dataclasses import replace

import pytest

from wilfgraph import (AperyAnalysis, InconsistentDepths, InvariantViolation,
                       analyze, analyze_matchings, build_graph, classify_edges,
                       from_generators, invariant_report, iter_semigroups,
                       structural_lemma_suite, tau_bound_holds,
                       tau_lower_bound, weight_analysis)


def test_figure_graph(fig_semigroup):
    G = build_graph(fig_semigroup)
    assert G.vertices == (13, 14, 15, 17, 19, 20, 21)
    assert sorted(G.loops) == [14, 15, 17]
    assert len(G.true_edges) == 7
    assert G.edge_count == 10


def test_figure_weights(fig_semigroup):
    ap = analyze(fig_semigroup)
    G = build_graph(fig_semigroup)
    wa = weight_analysis(fig_semigroup, G, ap)
    assert {z: len(es) for z, es in wa.fibers.items()} == \
        {28: 2, 30: 2, 34: 4, 35: 2}
    assert sum(len(es) for es in wa.fibers.values()) == G.edge_count
    # rho = 0, so no depth-deficit targets
    assert wa.x0_set == frozenset()


def test_figure_all_normal(fig_semigroup):
    ap = analyze(fig_semigroup)
    G = build_graph(fig_semigroup)
    weak, normal = classify_edges(G, ap)
    assert weak == frozenset()
    assert normal == frozenset(G.all_edges())


def test_empty_graphs():
    # X = {3} for <2,3>: no pair sums stay in X
    assert build_graph(from_generators([2, 3])).n == 0
    # maximal embedding dimension: |P| = m forces an empty graph
    med = from_generators([4, 5, 6, 7])
    assert len(med.min_generators) == med.multiplicity
    assert build_graph(med).n == 0


def test_weak_edges_instance():
    # q = 3, rho = 4; two weak edges, nu strictly between 0 and vm
    S = from_generators([8, 10, 12, 13, 14, 15, 17])
    ap = analyze(S)
    assert (ap.depth_q, ap.rho) == (3, 4)
    G = build_graph(S)
    weak, normal = classify_edges(G, ap)
    assert weak == frozenset({(12, 15), (13, 14)})
    for a, b in weak:
        assert ap.depth_of[a] + ap.depth_of[b] == ap.depth_q - 1
        # weak edge targets sit at depth zero
        assert ap.depth_of[a + b] == 0
    ma = analyze_matchings(G, weak)
    assert (ma.vm, ma.nu) == (6, 2)
    assert 0 < ma.nu < ma.vm


def test_all_weak_instance():
    S = from_generators([9, 11, 12, 13, 14, 15, 16, 17])
    ap = analyze(S)
    G = build_graph(S)
    weak, normal = classify_edges(G, ap)
    assert normal == frozenset()
    ma = analyze_matchings(G, weak)
    assert ma.nu == 0
    # rho bounds the number of distinct weak-edge weights
    assert ap.rho >= len({a + b for a, b in weak})


def test_classify_rejects_inconsistent_depths(fig_semigroup):
    ap = analyze(fig_semigroup)
    G = build_graph(fig_semigroup)
    doctored = AperyAnalysis(ap.apery_x, {x: 0 for x in ap.depth_of},
                             ap.depth_q, ap.rho, ap.tau_x, ap.x_primitive,
                             ap.x_decomposable, ap.wilf_w)
    with pytest.raises(InconsistentDepths):
        classify_edges(G, doctored)


def test_weight_analysis_rejects_inconsistent_depths(fig_semigroup):
    # weight_analysis makes the depth-sum check itself, with the message of
    # classify_edges, when no classify_edges call came first
    ap = analyze(fig_semigroup)
    G = build_graph(fig_semigroup)
    doctored = replace(ap, depth_of={x: 0 for x in ap.depth_of})
    with pytest.raises(InconsistentDepths) as classified:
        classify_edges(G, doctored)
    with pytest.raises(InconsistentDepths) as weighed:
        weight_analysis(fig_semigroup, G, doctored)
    assert str(weighed.value) == str(classified.value)


def test_weight_analysis_invariant_violation(fig_semigroup):
    # the edge weights of G(S) cover X n D; an emptied X n D cannot match
    ap = analyze(fig_semigroup)
    G = build_graph(fig_semigroup)
    doctored = replace(ap, x_decomposable=frozenset())
    with pytest.raises(InvariantViolation):
        weight_analysis(fig_semigroup, G, doctored)


def test_tau_bound():
    from fractions import Fraction
    assert tau_lower_bound(3, 0, 0, 0) == 0
    assert tau_lower_bound(4, 2, 5, 3) == Fraction(15, 2)  # (3*3 + 2)/2 + 2
    assert tau_bound_holds(8, 4, 2, 5, 3)
    assert not tau_bound_holds(7, 4, 2, 5, 3)


def test_tau_bound_figure(fig_semigroup):
    ap = analyze(fig_semigroup)
    G = build_graph(fig_semigroup)
    weak, _ = classify_edges(G, ap)
    ma = analyze_matchings(G, weak)
    assert tau_bound_holds(ap.tau_x, ap.depth_q, ma.nu, G.n, ma.vm)


def test_structural_suite_figure(fig_semigroup):
    suite = structural_lemma_suite(fig_semigroup)
    assert all(suite.values()), suite
    # N(15) = {13, 15, 19, 20}, the unique maximal degree; 15 is primitive
    G = build_graph(fig_semigroup)
    degrees = {v: G.degree(v) for v in G.vertices}
    assert degrees[15] == 4
    assert max(degrees, key=degrees.get) == 15
    assert 15 in fig_semigroup.primitives()


def test_invariant_report_exhaustive_small():
    for S in iter_semigroups(9):
        rep = invariant_report(S)
        bad = [k for k, ok in rep.items() if not ok]
        assert not bad, (S.min_generators, bad)


def test_unique_loopy_vertex_primitive():
    for S in iter_semigroups(9):
        G = build_graph(S)
        if G.loop_count == 1:
            assert next(iter(G.loops)) in S.primitives()


def test_build_graph_matches_definition():
    # {a, b} (a = b allowed) is an edge iff a + b is a nonzero Apery element
    for S in iter_semigroups(10):
        x = analyze(S).apery_x
        pairs = [(a, b) for i, a in enumerate(x) for b in x[i:]
                 if a + b in x]
        G = build_graph(S)
        assert sorted(G.true_edges) == [(a, b) for a, b in pairs if a != b]
        assert sorted(G.loops) == [a for a, b in pairs if a == b]
        assert set(G.vertices) == {v for e in pairs for v in e}
