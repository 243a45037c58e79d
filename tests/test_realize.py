import random
import time

import pytest

from wilfgraph import (LoopyGraph, WindowTooSmall, all_loopy_graphs,
                       build_graph, from_generators, from_generators_truncated,
                       loopy_complete, plan_with_offsets, realize,
                       run_census, sidon_offsets, verify_realization)

from oracles import (random_loopy_graph, sidon_offsets_per_m,
                     smallest_multiplicity_per_m)


def test_sidon_offsets_window():
    xs = sidon_offsets(3, 24)
    assert len(xs) == 3
    assert all(-(-24 // 3) <= x <= (24 - 2) // 2 for x in xs)
    sums = [xs[i] + xs[j] for i in range(3) for j in range(i, 3)]
    assert len(set(sums)) == len(sums)


def test_sidon_offsets_failure():
    with pytest.raises(WindowTooSmall):
        sidon_offsets(3, 12)


def test_sidon_offsets_match_per_m_search():
    # one greedy sequence from 0, translated into each window
    for n in range(12):
        for m in range(400):
            try:
                got = sidon_offsets(n, m)
            except WindowTooSmall:
                got = None
            assert got == sidon_offsets_per_m(n, m), (n, m)


def test_realize_multiplicity_matches_per_m_search():
    # the window width is 0 at m = 6 and -1 at m = 7: n = 1 fits at 6, not 7
    assert realize(loopy_complete(1), 7).multiplicity == 8
    for n in range(12):
        for low in (0, 2, 6, 7, 50, 1000):
            plan = realize(loopy_complete(n), low)
            assert (plan.multiplicity
                    == smallest_multiplicity_per_m(n, low)), (n, low)


def test_realize_path_at_labeling_cap():
    # the largest graph the labeling cap allows: one Sidon pass, not one per m
    G = LoopyGraph(range(32), [(i, i + 1) for i in range(31)])
    start = time.perf_counter()
    plan = realize(G)
    assert time.perf_counter() - start < 5
    assert plan.multiplicity == 9138
    assert plan.offsets == sidon_offsets_per_m(32, 9138)
    assert plan.certificate()["verified"]


def test_sidon_powers_of_two_pattern():
    # the classic offsets 1, 3, 7, ..., 2^n - 1 are Sidon for any n
    xs = [2 ** i - 1 for i in range(1, 6)]
    sums = [xs[i] + xs[j] for i in range(5) for j in range(i, 5)]
    assert len(set(sums)) == len(sums)


def test_realize_lk3():
    plan = realize(loopy_complete(3))
    assert verify_realization(plan)
    rebuilt = build_graph(plan.result)
    assert rebuilt.canonical_key() == loopy_complete(3).canonical_key()
    assert plan.result.conductor == 2 * plan.multiplicity


def test_realize_empty_graph_gives_med():
    plan = realize(LoopyGraph([]))
    S = plan.result
    assert len(S.min_generators) == S.multiplicity
    assert build_graph(S).n == 0
    assert verify_realization(plan)


def test_realize_catalog_up_to_four_vertices():
    for n in range(1, 5):
        for G in all_loopy_graphs(n):
            plan = realize(G)
            assert verify_realization(plan), G


def test_realize_random_five_six():
    rng = random.Random(17)
    for _ in range(25):
        G = random_loopy_graph(rng, 5, 6, 12)
        plan = realize(G)
        assert verify_realization(plan), G


def test_realize_genus_seven_classes():
    # the eleven graph-equivalence classes at genus 7 all realize and rebuild
    stats = run_census(7, classes=True)[7]
    assert stats.class_count_gamma == 11
    for key, gens in stats.class_representatives.items():
        G = build_graph(from_generators(gens))
        if G.n == 0:
            continue
        plan = realize(G)
        assert verify_realization(plan)
        assert build_graph(plan.result).canonical_key() == key


def test_two_distinct_realizations():
    # larger multiplicities keep working: the same graph has infinitely many
    # realizations, of which we exhibit two
    for G in list(all_loopy_graphs(3))[:10]:
        first = realize(G)
        second = realize(G, min_multiplicity=first.multiplicity + 1)
        assert first.result != second.result
        assert verify_realization(first) and verify_realization(second)


def test_example_six_three():
    lk3 = loopy_complete(3)
    plan = plan_with_offsets(lk3, 15, (1, 3, 7))
    assert plan.result == from_generators_truncated([15, 16, 18, 22], 30)
    assert verify_realization(plan)
    # the 9 modular values {x_i} u {x_i + x_j} are nonzero, distinct mod 15
    values = [1, 3, 7, 2, 4, 8, 6, 10, 14]
    assert len({v % 15 for v in values}) == 9
    assert 0 not in {v % 15 for v in values}


def test_example_six_four():
    lk4 = loopy_complete(4)
    plan = plan_with_offsets(lk4, 31, (1, 3, 7, 15))
    assert verify_realization(plan)
    rebuilt = build_graph(plan.result)
    assert rebuilt.canonical_key() == lk4.canonical_key()


def test_undersized_multiplicity_fails_certificate():
    lk3 = loopy_complete(3)
    plan = plan_with_offsets(lk3, 13, (1, 3, 7))   # needs m >= 15
    assert not verify_realization(plan)


def test_certificate_payload():
    plan = realize(loopy_complete(2))
    cert = plan.certificate()
    assert cert["verified"] is True
    assert cert["m"] == plan.multiplicity
    assert cert["truncation"] == 2 * plan.multiplicity
    assert len(cert["offsets"]) == 2


def test_erase_generators_listed():
    # a single true edge on two vertices erases both loops
    G = LoopyGraph([0, 1], [(0, 1)], [])
    plan = realize(G)
    assert len(plan.erase_generators) == 2
    assert verify_realization(plan)
