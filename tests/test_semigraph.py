from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from wilfgraph import (AperyAnalysis, InconsistentDepths, InvariantViolation,
                       LoopyGraph, NumericalSemigroup, WilfgraphError, analyze,
                       analyze_matchings, build_graph, from_generators,
                       invariant_report, iter_semigroups, matching,
                       semigraph, structural_lemma_suite, tau_bound_holds,
                       weight_analysis)


def test_figure_graph(fig_semigroup):
    G = build_graph(fig_semigroup)
    assert G.vertices == (13, 14, 15, 17, 19, 20, 21)
    assert sorted(G.loops) == [14, 15, 17]
    assert len(G.true_edges) == 7
    assert G.edge_count == 10


def test_figure_weights(fig_semigroup):
    ap = analyze(fig_semigroup)
    G = build_graph(fig_semigroup)
    wa = weight_analysis(G, ap)
    assert {z: len(es) for z, es in wa.fibers.items()} == \
        {28: 2, 30: 2, 34: 4, 35: 2}
    assert sum(len(es) for es in wa.fibers.values()) == G.edge_count
    # rho = 0, so no depth-deficit targets
    assert wa.x0_set == frozenset()


def test_figure_all_normal(fig_semigroup):
    ap = analyze(fig_semigroup)
    G = build_graph(fig_semigroup)
    assert weight_analysis(G, ap).weak == frozenset()


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
    weak = weight_analysis(G, ap).weak
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
    weak = weight_analysis(G, ap).weak
    assert weak == frozenset(G.all_edges())
    ma = analyze_matchings(G, weak)
    assert ma.nu == 0
    # rho bounds the number of distinct weak-edge weights
    assert ap.rho >= len({a + b for a, b in weak})


def test_classify_rejects_inconsistent_depths(fig_semigroup):
    # the edge classification inside weight_analysis checks every edge, not
    # only the first: zeroing the depth of 19 breaks only (15, 19), sum 1 < 2
    ap = analyze(fig_semigroup)
    G = build_graph(fig_semigroup)
    doctored = replace(ap, depth_of={**ap.depth_of, 19: 0})
    with pytest.raises(InconsistentDepths) as raised:
        weight_analysis(G, doctored)
    assert str(raised.value) == "edge (15, 19) has depth sum 1 < 2"


def test_weight_analysis_rejects_inconsistent_depths(fig_semigroup):
    # rho = 0, so every edge needs depth sum >= q = 2; the first edge fails
    ap = analyze(fig_semigroup)
    G = build_graph(fig_semigroup)
    doctored = AperyAnalysis(ap.apery_x, {x: 0 for x in ap.depth_of},
                             ap.depth_q, ap.rho, ap.tau_x,
                             ap.x_decomposable, ap.wilf_w)
    with pytest.raises(InconsistentDepths) as raised:
        weight_analysis(G, doctored)
    assert str(raised.value) == "edge (13, 15) has depth sum 0 < 2"


def test_weight_analysis_invariant_violation(fig_semigroup):
    # the edge weights of G(S) cover X n D; an emptied X n D cannot match
    ap = analyze(fig_semigroup)
    G = build_graph(fig_semigroup)
    doctored = replace(ap, x_decomposable=frozenset())
    with pytest.raises(InvariantViolation):
        weight_analysis(G, doctored)


def test_tau_bound():
    # (3*3 + 2)/2 + (5 - 3) = 7.5
    assert tau_bound_holds(0, 3, 0, 0, 0)
    assert tau_bound_holds(8, 4, 2, 5, 3)
    assert not tau_bound_holds(7, 4, 2, 5, 3)


def test_tau_bound_figure(fig_semigroup):
    ap = analyze(fig_semigroup)
    G = build_graph(fig_semigroup)
    ma = analyze_matchings(G, weight_analysis(G, ap).weak)
    assert tau_bound_holds(ap.tau_x, ap.depth_q, ma.nu, G.n, ma.vm)


def test_structural_suite_figure(fig_semigroup):
    suite = structural_lemma_suite(fig_semigroup, build_graph(fig_semigroup),
                                   analyze(fig_semigroup))
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


def test_loopy_decomposable_vertex_below_max_length():
    # 18 = 9 + 9 is a loopy vertex of G(<8, 9, 15, 21, 22>), but 27 is longer
    # and nonloopy: max_length_nonloopy holds only if it compares lengths
    S = from_generators([8, 9, 15, 21, 22])
    G = build_graph(S)
    assert 18 in G.loops and 18 not in S.primitives()
    assert 27 in G.vertices and 27 not in G.loops
    assert invariant_report(S)["max_length_nonloopy"]


def test_build_graph_matches_definition():
    # {a, b} (a = b allowed) is an edge iff a + b is a nonzero Apery element;
    # build_graph fills the positional form directly, and the validating
    # constructor, given those edges, must build the same graph
    for S in iter_semigroups(14):
        x = analyze(S).apery_x
        pairs = [(a, b) for i, a in enumerate(x) for b in x[i:]
                 if a + b in x]
        G = build_graph(S)
        assert sorted(G.true_edges) == [(a, b) for a, b in pairs if a != b]
        assert sorted(G.loops) == [a for a, b in pairs if a == b]
        assert set(G.vertices) == {v for e in pairs for v in e}
        H = LoopyGraph({v for e in pairs for v in e},
                       [(a, b) for a, b in pairs if a != b],
                       [a for a, b in pairs if a == b])
        assert G == H and hash(G) == hash(H), S
        assert (G._pos, G._adj, G._loopmask) == (H._pos, H._adj, H._loopmask)


def test_invariant_report_never_reads_active_edges(monkeypatch):
    def unread(self):
        raise AssertionError("active_edges read")

    monkeypatch.setattr(matching.MatchingAnalysis, "active_edges",
                        property(unread))
    for S in iter_semigroups(12):
        invariant_report(S)


# -- kill table ---------------------------------------------------------------
#
# For every key of invariant_report, one input that turns it False through
# the real invariant_report call. Most are pseudo-semigroups, given as the
# members below c (all of [c, c + m) is added), m, c and a generator tuple,
# found by random search among doctored masks that get past the raises of
# apery_analyze, weight_analysis and matching.analyze. Other keys may fail on
# the same input.
_DOCTORED = {
    "apery_max": ([0, 2], 2, 3, (2, 3)),
    "apery_one_per_class": ([0, 1], 3, 5, (5, 6, 7)),
    "x_is_downset": ([0, 2, 5, 6], 3, 8, (3, 6, 10)),
    "v_is_downset": ([0, 6, 7, 9, 12, 13, 15, 18, 19, 20, 21], 6, 24,
                     (6, 7, 9, 20, 28)),
    "neighborhoods_are_downsets": (
        [0, 8, 10, 11, 12, 16, 18, 19, 20, 22, 23, 24], 8, 26,
        (8, 10, 11, 12, 29)),
    "factor_degrees_decrease": ([0, 8, 9, 11, 13, 16, 17, 18, 19, 21, 22], 8,
                                24, (8, 9, 11, 13, 28)),
    "max_length_nonloopy": ([0, 8, 9, 16, 17, 18, 21, 24, 25, 26, 29, 30], 8,
                            32, (8, 9, 21, 35)),
    "nonloopy_divides_no_neighbor": ([0, 1, 8, 9, 10], 6, 12,
                                     (8, 9, 10, 12, 13)),
    "factor_of_loopy_is_loopy": (
        [0, 9, 10, 11, 18, 19, 20, 21, 22, 27, 28, 29, 30, 31, 34], 9, 36,
        (9, 10, 11, 34, 41)),
    "v_cap_d_degree_bound": ([0, 9, 10, 12, 15, 17, 18, 19, 20, 21], 9, 24,
                             (9, 10, 12, 15, 17, 31)),
    "large_difference_bound": ([0, 8, 9, 11, 16, 17, 19, 20, 22], 8, 24,
                               (8, 9, 11, 26)),
    "leaf_structure": ([0, 8, 9, 11, 16, 17, 18, 19, 22], 8, 24,
                       (8, 9, 11, 28)),
}

# Six statements that were keys until a proof showed that another key implies
# them on every input past the raises; the invariant_report docstring gives
# each proof. Their old kill inputs stay as evidence: each turns the implying
# key False.
_IMPLIED = {
    "equal_degree_antichain": ("factor_degrees_decrease",
                               _DOCTORED["factor_degrees_decrease"]),
    "all_loopy_forces_v_primitive": ("max_length_nonloopy", (
        [0, 9, 11, 16, 18, 20, 21, 22, 25, 27, 29, 30, 31, 32, 34], 9, 36,
        (9, 11, 16, 21))),
    "max_degree_primitive": ("factor_degrees_decrease", (
        [0, 7, 8, 10, 13, 14, 15, 16, 17], 7, 20, (7, 8, 10, 13, 25))),
    "unique_loopy_is_primitive": ("factor_of_loopy_is_loopy", (
        [0, 8, 9, 10, 16, 17, 18, 19, 24, 25, 26, 27, 29], 8, 32,
        (8, 9, 10, 36))),
    "p_exceeds_v_cap_p": ("apery_one_per_class",
                          ([0, 1, 4, 6, 7], 4, 10, (6, 7))),
    "v_equals_factors_of_xd": ("x_is_downset",
                               ([0, 4, 5, 7, 8, 9], 4, 11, (4, 5, 7))),
}

# No pseudo-semigroup searched turned this False. It is killed on <3, 7>
# (q = 4, tau = 2, vm = nu = 1) by changing the result of the matching layer.
_PATCHED = {
    "tau_lower_bound": (matching, "analyze",
                        lambda ma: replace(ma, vm=ma.vm + 2)),
}


def test_kill_table_covers_every_key(fig_semigroup):
    keys = set(invariant_report(fig_semigroup))
    assert len(keys) == 13
    assert keys == set(_DOCTORED) | set(_PATCHED)
    assert not keys & set(_IMPLIED)


def _doctored(small, m, c, gens):
    mask = sum(1 << x for x in small) | ((1 << (c + m)) - (1 << c))
    return NumericalSemigroup(mask, m, c, gens)


@pytest.mark.parametrize(
    "key", sorted(_DOCTORED) + sorted(_PATCHED) + sorted(_IMPLIED))
def test_kill_table(key, monkeypatch):
    if key in _DOCTORED:
        S = _doctored(*_DOCTORED[key])
    elif key in _IMPLIED:
        key, inputs = _IMPLIED[key]
        S = _doctored(*inputs)
    else:
        S = from_generators([3, 7])
        assert invariant_report(S)[key]     # False only through the change
        # that call cached <3, 7>'s matching numbers; an empty cache makes
        # the next call reach the changed layer
        monkeypatch.setattr(semigraph, "_matching_cache", {})
        module, name, change = _PATCHED[key]
        layer = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: change(layer(*args)))
    assert not invariant_report(S)[key]


# -- the bitmask suite against the frozen set-based one ----------------------


def test_lemma_suite_matches_oracle():
    for S in iter_semigroups(14):
        G, ap = build_graph(S), analyze(S)
        assert structural_lemma_suite(S, G, ap) == \
            oracles.structural_lemma_suite(S, G, ap), S


_SEEDS = list(iter_semigroups(12))


@st.composite
def _pseudo_semigroups(draw):
    """(small, m, c, gens) for _doctored: the members below c of a
    semigroup of genus <= 12 with up to three flipped and up to one added
    below m, and as generators the members from m on that are no sum of two
    such, with one dropped or one member added at random."""
    S = draw(st.sampled_from(_SEEDS))
    m, c = S.multiplicity, S.conductor
    flips = draw(st.sets(st.integers(min_value=1, max_value=max(c - 1, 1)),
                         max_size=3))
    low = draw(st.sets(st.integers(min_value=1, max_value=max(m - 1, 1)),
                       max_size=1))
    small = sorted(x for x in set(oracles.members_below(S, c)) ^ flips | low
                   if x < c)
    members = set(small) | set(range(c, c + m))
    big = sorted(x for x in members if x >= m)
    gens = [z for z in big if not any(z - a in big for a in big if a < z)]
    change = draw(st.sampled_from(["none", "drop", "add"]))
    if change == "drop" and len(gens) > 1:
        gens.remove(draw(st.sampled_from(gens)))
    elif change == "add" and len(members) > 1:    # <1> has none to add
        extra = draw(st.sampled_from(sorted(members - {0})))
        gens = sorted(set(gens) | {extra})
    return small, m, c, tuple(gens)


# Random search found these two, where a member m - 1 makes z - m + 1 a
# factor of an Apery element z if the window [m, z - m] is one too wide.
@settings(max_examples=300, deadline=None)
@given(_pseudo_semigroups())
@example(([0, 1], 2, 3, (3, 4)))
@example(([0, 3], 4, 7, (7, 8, 9, 10)))
def test_lemma_suite_matches_oracle_on_pseudo_semigroups(inputs):
    S = _doctored(*inputs)
    try:
        ap = analyze(S)
        G = build_graph(S)
        matching.analyze(G, weight_analysis(G, ap).weak)
    except WilfgraphError:
        return              # invariant_report raises before the suite
    assert structural_lemma_suite(S, G, ap) == \
        oracles.structural_lemma_suite(S, G, ap)


# -- the matching cache ---------------------------------------------------------


def _cached(G, weak):
    """semigraph._matching_numbers on G and the weak label pairs (a, b),
    a <= b, turned into position pairs in the order of _edge_pass."""
    pos = G._pos
    return semigraph._matching_numbers(
        G, [(pos[a], pos[b]) for a, b in G.all_edges() if (a, b) in weak])


def test_matching_cache_matches_fresh_solves(monkeypatch):
    # in stream order, so most lookups hit what earlier semigroups cached
    monkeypatch.setattr(semigraph, "_matching_cache", {})
    count = 0
    for S in iter_semigroups(15):
        G = build_graph(S)
        weak = weight_analysis(G, analyze(S)).weak
        ma = matching.analyze(G, weak)
        assert _cached(G, weak) == (ma.vm, ma.nu), S
        count += 1
    assert count == 6964
    assert len(semigraph._matching_cache) == 1569


def test_matching_cache_stays_bounded(monkeypatch):
    monkeypatch.setattr(semigraph, "_matching_cache", {})
    monkeypatch.setattr(semigraph, "_MATCHING_CACHE_MAX", 3)
    for S in iter_semigroups(8):
        G = build_graph(S)
        weak = weight_analysis(G, analyze(S)).weak
        ma = matching.analyze(G, weak)
        assert _cached(G, weak) == (ma.vm, ma.nu), S
        assert len(semigraph._matching_cache) <= 3


@settings(max_examples=300, deadline=None)
@given(_pseudo_semigroups())
def test_matching_cache_on_pseudo_semigroups(inputs):
    S = _doctored(*inputs)
    try:
        G = build_graph(S)
        weak = weight_analysis(G, analyze(S)).weak
    except WilfgraphError:
        return              # invariant_report raises before the matching
    try:
        ma = matching.analyze(G, weak)
    except WilfgraphError as exc:
        with pytest.raises(type(exc)):
            _cached(G, weak)
        return
    assert _cached(G, weak) == (ma.vm, ma.nu)


# -- the positional battery against the public layers -------------------------


def _outcome(run, S):
    """run(S), or the class and message of the library error it raises."""
    try:
        return run(S)
    except WilfgraphError as exc:
        return type(exc), str(exc)


def _layered(weigh, apery_of):
    """invariant_report composed from the public layers, with ``weigh`` as
    the weight layer and ``apery_of`` as the Apery layer."""
    def report(S):
        ap = apery_of(S)
        m, x = S.multiplicity, ap.apery_x
        checks = {"apery_one_per_class": (len(x) == m - 1 and
                                          len({v % m for v in x}) == m - 1),
                  "apery_max": not x or max(x) == S.conductor + m - 1}
        G = build_graph(S)
        ma = matching.analyze(G, weigh(G, ap).weak)
        checks["tau_lower_bound"] = tau_bound_holds(ap.tau_x, ap.depth_q,
                                                    ma.nu, G.n, ma.vm)
        checks.update(structural_lemma_suite(S, G, ap))
        return checks
    return report


def _check_positional_battery(S, apery_of=analyze):
    # the frozen label-set weights, the positional ones behind the public
    # wrapper, and the one positional pass of invariant_report, all on the
    # Apery analysis apery_of(S)
    want = _outcome(_layered(oracles.weight_analysis, apery_of), S)
    assert _outcome(_layered(weight_analysis, apery_of), S) == want, S
    with mock.patch.object(semigraph, "apery_analyze", apery_of):
        assert _outcome(invariant_report, S) == want, S


def test_positional_battery_matches_layers(monkeypatch):
    # in stream order from an empty cache, so hits and misses both occur
    monkeypatch.setattr(semigraph, "_matching_cache", {})
    for S in iter_semigroups(14):
        _check_positional_battery(S)


@settings(max_examples=300, deadline=None)
@given(_pseudo_semigroups())
@example(([0, 1], 2, 3, (3, 4)))
@example(([0, 3], 4, 7, (7, 8, 9, 10)))
def test_positional_battery_matches_layers_on_pseudo_semigroups(inputs):
    _check_positional_battery(_doctored(*inputs))


@st.composite
def _doctored_depths(draw):
    """A semigroup of genus <= 12 with a nonempty graph, and its Apery
    analysis with every depth moved by -2 to 1 and rho by -1 to 1. No
    semigroup has such depths, so this is where the edge pass raises: the
    depth floor (naming the first failing edge), X0 and the weak weights."""
    S = draw(st.sampled_from(_GRAPHED))
    ap = analyze(S)
    depth_of = {v: d + draw(st.integers(-2, 1))
                for v, d in ap.depth_of.items()}
    rho = ap.rho + draw(st.integers(-1 if ap.rho else 0, 1))
    return S, replace(ap, depth_of=depth_of, rho=rho)


_GRAPHED = [S for S in _SEEDS if build_graph(S).n]


@settings(max_examples=300, deadline=None)
@given(_doctored_depths())
def test_positional_battery_matches_layers_on_doctored_depths(inputs):
    S, ap = inputs
    _check_positional_battery(S, lambda _: ap)
