"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the full class census up to genus 20 is shared by several criteria.
"""

import random

import pytest

from wilfgraph import (LoopyGraph, all_loopy_graphs, analyze, analyze_matchings,
                       build_graph, extremal_edge_search, from_generators,
                       invariant_report, iter_semigroups, loopy_complete,
                       plan_with_offsets, realize,
                       run_census, verify_realization, verify_wilf_range,
                       weight_analysis)
from wilfgraph.cli import main

from oracles import brute_matching_stats, random_loopy_graph

NG_TABLE = [1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693,
            2857, 4806, 8045, 13467, 22464, 37396]
GAMMA_TABLE = [1, 1, 2, 3, 4, 6, 11, 15, 27, 41, 66, 115, 190, 322, 569,
               1014, 1761, 3107, 5475, 9621]


@pytest.fixture(scope="module")
def census20():
    return run_census(20, workers=1, classes=True)


def test_criterion_1_census_counts(census20, capsys):
    counts = [census20[g].count_ng for g in range(1, 21)]
    assert counts == NG_TABLE
    # the CLI surface reproduces the same rows
    code = main(["enumerate", "--genus-max", "6", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert "6,23" in out
    print("PASS criterion 1: n_g for g <= 20 matches the census table exactly")


def test_criterion_2_census_classes(census20):
    gammas = [census20[g].class_count_gamma for g in range(1, 21)]
    assert gammas == GAMMA_TABLE
    print("PASS criterion 2: gamma_g for g <= 20 matches the class table "
          "exactly")


def test_criterion_3_wilf_holds(census20):
    violations = [v for g in range(21)
                  for v in census20[g].wilf_violations]
    assert violations == []
    print("PASS criterion 3: zero Wilf violations across genus <= 20")


def test_criterion_4_invariant_suite():
    checked = 0
    for S in iter_semigroups(15):
        bad = [k for k, ok in invariant_report(S).items() if not ok]
        assert not bad, (S.min_generators, bad)
        checked += 1
    assert checked == 1 + sum(NG_TABLE[:15]) == 6964
    # verify's rule: every genus <= 12, and the three with 3|P| < m at 21
    per_genus = verify_wilf_range(21, battery=True).per_genus.values()
    assert sum(stats.invariants_checked for stats in per_genus) == 1416
    assert [stats.invariant_failures for stats in per_genus] == [[]] * 22
    print(f"PASS criterion 4: invariant suite on all {checked} semigroups "
          "of genus <= 15, and on the 1416 verify checks to genus 21")


def test_criterion_5_matching_oracle():
    rng = random.Random(2024)
    graphs = [random_loopy_graph(rng, 2, 8, 12) for _ in range(1000)]
    for n in range(1, 5):
        graphs.extend(all_loopy_graphs(n))
    for G in graphs:
        weak = frozenset(e for e in G.all_edges() if rng.random() < 0.35)
        k, nu, _ = brute_matching_stats(G, weak)
        ma = analyze_matchings(G, weak)
        assert (ma.vm, ma.nu) == (k, nu), G
    print(f"PASS criterion 5: vm and nu match exhaustive enumeration on "
          f"{len(graphs)} graphs")


def test_criterion_6_extremal():
    best, witnesses = extremal_edge_search(5, 4)
    assert best == 10
    k5 = LoopyGraph(range(5),
                    [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert k5.canonical_key() in {w.canonical_key() for w in witnesses}
    restricted = {lam: extremal_edge_search(5, 4, loops=lam)[0]
                  for lam in (3, 2, 1)}
    assert restricted == {3: 8, 2: 9, 1: 8}
    print("PASS criterion 6: extremal(5,4) = 10 via K5; lambda 3/2/1 give "
          "8/9/8")


def test_criterion_7_realizability():
    total = 0
    for n in range(1, 5):
        for G in all_loopy_graphs(n):
            assert verify_realization(realize(G)), G
            total += 1
    rng = random.Random(99)
    for _ in range(100):
        G = random_loopy_graph(rng, 5, 6, 12)
        assert verify_realization(realize(G)), G
        total += 1
    p63 = plan_with_offsets(loopy_complete(3), 15, (1, 3, 7))
    assert verify_realization(p63)
    assert p63.result.min_generators[:4] == (15, 16, 18, 22)
    p64 = plan_with_offsets(loopy_complete(4), 31, (1, 3, 7, 15))
    assert verify_realization(p64)
    print(f"PASS criterion 7: {total} realizations verified, plus both "
          f"explicit certificates")


def test_criterion_8_figure_regression():
    S = from_generators([12, 13, 14, 15, 17, 19, 20, 21])
    ap = analyze(S)
    assert ap.apery_x == (13, 14, 15, 17, 19, 20, 21, 28, 30, 34, 35)
    G = build_graph(S)
    assert G.n == 7
    assert G.edge_count == 10
    assert sorted(G.loops) == [14, 15, 17]
    assert ap.rho == 0
    assert weight_analysis(G, ap).weak == frozenset()
    print("PASS criterion 8: figure regression (X, loops, 7 vertices, 10 "
          "edges, rho = 0, no weak edges)")


def test_criterion_9_med_characterization():
    for S in iter_semigroups(12):
        med = len(S.min_generators) == S.multiplicity
        empty = build_graph(S).n == 0
        assert med == empty, S.min_generators
    print("PASS criterion 9: G(S) empty iff |P| = m across genus <= 12")
