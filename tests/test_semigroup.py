import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wilfgraph import (EmptyGenerators, InvalidTruncation,
                       NonCoprimeGenerators, NumericalSemigroup, TooLarge,
                       analyze, apery_set, from_generators,
                       from_generators_truncated, parse_generators)
from wilfgraph.semigroup import MAX_CLOSURE_WORK, MAX_MULTIPLICITY, MAX_TABLE

from oracles import (brute_apery, brute_minimal_generators,
                     decomposables_below, factors, gaps, members_below,
                     sieve_members, small_elements)


def _assert_matches_oracles(S, members, horizon):
    # members: every member below horizon, sieved by the oracle; the horizon
    # must exceed c + m, which bounds every minimal generator and X
    gaps = set(range(horizon)) - members
    c = max(gaps, default=-1) + 1
    assert S.conductor == c
    assert S.genus == len(gaps)
    assert len(small_elements(S)) == sum(1 for x in members if x < c)
    assert list(S.min_generators) == brute_minimal_generators(members)
    m = min(members - {0})
    assert list(apery_set(S)) == brute_apery(members, m)


def _assert_matches_oracles_schur(S, gens):
    # Schur: c <= (a_1 - 1)(a_n - 1), so this horizon exceeds c + m
    a = sorted(set(gens))
    horizon = (a[0] - 1) * (a[-1] - 1) + a[0] + 1
    _assert_matches_oracles(S, sieve_members(gens, horizon), horizon)


def test_natural_numbers():
    S = from_generators([1])
    assert (S.multiplicity, S.conductor, S.genus) == (1, 0, 0)
    assert S.min_generators == (1,)
    assert small_elements(S) == set()


def test_two_three():
    # brute-force sieve over [0, 10): members {0,2,3,4,...}, single gap 1
    S = from_generators([2, 3])
    assert (S.multiplicity, S.frobenius, S.conductor, S.genus) == (2, 1, 2, 1)
    assert S.min_generators == (2, 3)
    assert not S.is_member(1)
    assert S.is_member(0)
    assert small_elements(S) == {0}
    assert gaps(S) == [1]


def test_figure_example_basics(fig_semigroup):
    S = fig_semigroup
    assert S.multiplicity == 12
    assert len(S.min_generators) == 8
    assert not S.is_member(16)
    assert S.is_member(0)
    assert S.divides(13, 28)        # 28 - 13 = 15 is a member
    assert S.divides(2 * 12, 2 * 12)


def test_membership_closed_under_addition(fig_semigroup):
    S = fig_semigroup
    members = members_below(S, 2 * (S.conductor + S.multiplicity))
    mset = set(members)
    for a in members:
        for b in members:
            if a + b < members[-1]:
                assert a + b in mset


def test_redundant_generators_reduced():
    S = from_generators([4, 6, 9, 10, 13, 8, 12])
    assert S.min_generators == (4, 6, 9)
    assert S == from_generators([4, 6, 9])


def test_redundant_generators_reduced_exhaustive():
    # the tree carries each node's minimal generators; sieving them again
    # with 2m and the sum of two generators added must give them back
    from wilfgraph import iter_semigroups
    for S in iter_semigroups(12):
        gens = S.min_generators
        padded = gens + (2 * gens[0], gens[0] + gens[-1])
        assert from_generators(padded).min_generators == gens


def test_primitive_decomposable_partition():
    S = from_generators([5, 7, 9])
    bound = S.conductor + S.multiplicity
    prim = S.primitives()
    dec = decomposables_below(S, bound)
    assert prim & dec == set()
    assert prim | dec == set(members_below(S, bound)) - {0}
    assert prim == {5, 7, 9}


def test_primitives_two_three():
    S = from_generators([2, 3])
    assert S.primitives() == {2, 3}
    assert decomposables_below(S, 10) == {4, 5, 6, 7, 8, 9}


def test_partition_exhaustive_low_genus():
    from wilfgraph import iter_semigroups
    for S in iter_semigroups(10):
        # the window covering P even in the degenerate case S = N
        bound = max(S.conductor + S.multiplicity, S.multiplicity + 1)
        prim, dec = S.primitives(), decomposables_below(S, bound)
        assert prim & dec == set()
        assert prim | dec == set(members_below(S, bound)) - {0}


def test_factors_match_pair_list():
    from wilfgraph import iter_semigroups
    for S in iter_semigroups(10):
        bound = S.conductor + 2 * S.multiplicity
        nonzero = members_below(S, bound)[1:]
        pairs = {}
        for a in nonzero:
            for b in nonzero:
                pairs.setdefault(a + b, []).append(a)
        for z in range(bound):
            assert factors(S, z) == pairs.get(z, []), (S, z)


def test_errors():
    with pytest.raises(EmptyGenerators):
        from_generators([])
    with pytest.raises(EmptyGenerators):
        from_generators([0, 3])
    with pytest.raises(NonCoprimeGenerators):
        from_generators([4, 6])
    with pytest.raises(InvalidTruncation):
        from_generators_truncated([2], 0)
    with pytest.raises(EmptyGenerators):
        from_generators_truncated([], 5)


def test_truncated_even_powers():
    # hand sieve: {0,2,4} u [5,oo) has gaps {1,3}, so c = 4 <= t = 5
    S = from_generators_truncated([2], 5)
    assert S.multiplicity == 2
    assert S.conductor == 4
    assert gaps(S) == [1, 3]
    assert S.min_generators == (2, 5)


def test_truncated_lk3_realization():
    S = from_generators_truncated([15, 16, 18, 22], 30)
    assert S.multiplicity == 15
    assert S.conductor == 30
    assert not S.is_member(29)


def test_truncated_absorbed():
    S = from_generators_truncated([1], 1)
    assert S == from_generators([1])


def test_truncated_non_coprime_allowed():
    S = from_generators_truncated([4, 6], 21)
    assert S.conductor <= 21
    assert set(members_below(S, 21)) == sieve_members([4, 6], 21)


def test_two_generator_frobenius_formula():
    # classical: f(<a,b>) = ab - a - b for coprime a, b
    for a, b in [(2, 3), (3, 5), (5, 7), (7, 8), (11, 13), (101, 103)]:
        S = from_generators([a, b])
        assert S.frobenius == a * b - a - b
        assert S.genus == (a - 1) * (b - 1) // 2


def test_two_generator_wilf_tight():
    # <a,b> is symmetric: exactly half of [0, c) are members, so W(S) = 0
    from wilfgraph import wilf_w
    for a, b in [(2, 5), (3, 7), (4, 9), (7, 8)]:
        S = from_generators([a, b])
        assert 2 * len(small_elements(S)) == S.conductor
        assert wilf_w(S) == 0


def test_parse_generators():
    assert parse_generators("12,13,14") == ((12, 13, 14), None)
    assert parse_generators("12, 13 | t=30") == ((12, 13), 30)
    with pytest.raises(ValueError, match="position"):
        parse_generators("12,x,14")
    with pytest.raises(ValueError):
        parse_generators("12,13|u=30")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=5))
def test_random_generators_roundtrip(gens):
    try:
        S = from_generators(gens)
    except NonCoprimeGenerators:
        return
    horizon = S.conductor + S.multiplicity
    assert set(members_below(S, horizon)) == sieve_members(gens, horizon)
    # round trip: reconstructing from the minimal system reproduces S
    T = from_generators(S.min_generators)
    assert T.min_generators == S.min_generators
    assert T.conductor == S.conductor
    assert T.genus == S.genus
    _assert_matches_oracles_schur(S, gens)


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=200), min_size=1,
                max_size=3))
@example([197, 199])
def test_large_generators_against_oracles(gens):
    # two consecutive generators make the set coprime; tables this long
    # outgrow the first sieve horizon, 2(a_n + a_1) + 2, so the doubling runs
    gens = gens + [gens[0] + 1]
    _assert_matches_oracles_schur(from_generators(gens), gens)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=4),
       st.integers(min_value=1, max_value=40))
# cut off at t, most Apery elements are primitive, and each one is tested
# against every generator found below it
@example([60, 61], 2700)
@example([40], 1600)
@example([25, 31], 700)
@example([30, 45, 47], 900)
def test_random_truncations(gens, t):
    S = from_generators_truncated(gens, t)
    assert S.conductor <= t
    horizon = S.conductor + S.multiplicity
    expected = {x for x in sieve_members(gens, horizon) if x < horizon}
    expected |= set(range(t, horizon))
    assert set(members_below(S, horizon)) == expected
    # c <= t and m <= a_1, so this horizon exceeds c + m
    horizon = t + min(gens) + 1
    members = sieve_members(gens, horizon) | set(range(t, horizon))
    _assert_matches_oracles(S, members, horizon)


def test_table_cap():
    # Schur: c <= (a_1 - 1)(a_n - 1), so the table [0, c + a_1) is bounded
    with pytest.raises(TooLarge):
        from_generators([100003, 100004])
    with pytest.raises(TooLarge):
        from_generators([3, MAX_TABLE // 2 + 2])
    with pytest.raises(TooLarge):
        from_generators_truncated([2, 3], MAX_TABLE + 1)
    # the multiplicity of a truncated semigroup is capped before any pass
    assert from_generators_truncated(
        [MAX_MULTIPLICITY], 2 * MAX_MULTIPLICITY).multiplicity \
        == MAX_MULTIPLICITY
    with pytest.raises(TooLarge):
        from_generators_truncated([MAX_MULTIPLICITY + 1], MAX_TABLE)
    # the gcd is checked first
    with pytest.raises(NonCoprimeGenerators):
        from_generators([2 * MAX_TABLE, 4 * MAX_TABLE])


def test_many_generator_truncation():
    # 1000 generators, each a new one, cut at MAX_TABLE: the doubling passes
    # shrink to the last gap, 5999, once the run fills [4000, 6000)
    start = time.perf_counter()
    S = from_generators_truncated(range(2000, 3000), MAX_TABLE)
    assert time.perf_counter() - start < 5
    assert S.min_generators == tuple(range(2000, 3000))
    assert (S.frobenius, S.genus) == (5999, 3000)
    # members below c + m = 8000: 0, [2000, 3000), [4000, 5999), [6000, 8000)
    expected = 1
    for lo, hi in ((2000, 3000), (4000, 5999), (6000, 8000)):
        expected |= (1 << hi) - (1 << lo)
    assert S.mask == expected


def test_closure_work_cap():
    # even generators have no conductor, so every doubling pass stays
    # MAX_TABLE long: 10^4 of them would shift some 3e11 bits
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=f"limit of {MAX_CLOSURE_WORK} bits"):
        from_generators_truncated(range(20000, 40000, 2), MAX_TABLE)
    assert time.perf_counter() - start < 5


def test_sieve_and_apery_read_the_mask(monkeypatch):
    # the sieve and the Apery analysis read membership off the bitmask; one
    # is_member call per element of [0, c + m) would be about 10^6 calls on
    # <700, 701>, and one per integer below each of the 99 primitive Apery
    # elements of <100> cut at 10^4 about as many
    calls = 0
    is_member = NumericalSemigroup.is_member

    def counted(self, x):
        nonlocal calls
        calls += 1
        return is_member(self, x)

    monkeypatch.setattr(NumericalSemigroup, "is_member", counted)
    monkeypatch.setattr(NumericalSemigroup, "__contains__", counted)
    for build in (lambda: from_generators([700, 701]),
                  lambda: from_generators_truncated([100], 10_000)):
        calls = 0
        S = build()
        analyze(S)
        assert calls <= 10 * S.multiplicity, S
