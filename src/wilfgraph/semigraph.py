"""The graph associated to a numerical semigroup, and its provable structure.

G(S) has the nonzero Apery elements as potential vertices, an edge {x, y}
(x = y allowed) whenever x + y is again a nonzero Apery element, and keeps
only vertices meeting an edge. Edge weights x + y map onto the decomposable
Apery elements; depths classify edges as weak (depth sum q - 1) or normal.
The provable inequalities and structural statements that a wrong mask, wrong
generators or a wrong layer can falsify are exposed here as checkable
predicates: each holds for every semigroup, so any False is a bug detector.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matching
from .apery import AperyAnalysis, analyze as apery_analyze
from .errors import InconsistentDepths, InvariantViolation
from .loopy import LoopyGraph
from .semigroup import NumericalSemigroup, apery_mask, bit_positions


def neighbor_masks(x: int) -> dict[int, int]:
    """The edge rule of G(S), on the bitmask x of the nonzero Apery elements.

    b is adjacent to a iff a + b is again in x, so the neighbors of a are
    x & (x >> a), with a itself among them iff a is loopy. Maps each vertex
    (each element with a neighbor), in increasing order, to that mask.
    """
    lowest = x & -x
    out = {}
    rest = x
    while rest:
        bit = rest & -rest
        a = bit.bit_length() - 1
        if x >> a < lowest:         # a + min(x) > max(x): no larger a pairs
            break
        row = x & (x >> a)
        if row:
            out[a] = row
        rest ^= bit
    return out


def build_graph(S: NumericalSemigroup) -> LoopyGraph:
    """G(S): edges are pairs of nonzero Apery elements summing into the set."""
    rows = neighbor_masks(apery_mask(S.mask, S.multiplicity, S.conductor))
    edges = [(a, b) for a, row in rows.items()
             for b in bit_positions(row >> (a + 1) << (a + 1))]
    loops = [a for a, row in rows.items() if row >> a & 1]
    return LoopyGraph(rows, edges, loops)


@dataclass(frozen=True)
class WeightAnalysis:
    """Fibers of the edge-weight map of G(S), the deficit set X0, and the
    weak edges (depth sum q - 1); every other edge is normal."""

    fibers: dict[int, frozenset]
    x0_set: frozenset
    weak: frozenset


def weight_analysis(G: LoopyGraph, apery: AperyAnalysis) -> WeightAnalysis:
    """Weights wt({x, y}) = x + y with fibers over the decomposable Apery set.

    X0 collects targets z reachable with depth deficit, i.e. members of some
    decomposition x + y = z with depth(x) + depth(y) = depth(z) + q - 1.
    Raises InconsistentDepths if any edge has depth sum below q - min(rho, 1),
    which no associated graph can exhibit.
    """
    fibers: dict[int, set] = {}
    x0, weak = set(), set()
    q, depth_of = apery.depth_q, apery.depth_of
    floor = q - min(apery.rho, 1)
    for a, b in G.all_edges():
        z = a + b
        fibers.setdefault(z, set()).add((a, b))
        s = depth_of[a] + depth_of[b]
        if s < floor:
            raise InconsistentDepths(
                f"edge ({a}, {b}) has depth sum {s} < {floor}")
        if s == q - 1:
            weak.add((a, b))
        if s == depth_of[z] + q - 1:
            x0.add(z)
    if set(fibers) != apery.x_decomposable:
        raise InvariantViolation("edge weights do not map onto X n D")
    if len(x0) > apery.rho:
        raise InvariantViolation(f"|X0| = {len(x0)} exceeds rho = {apery.rho}")
    if len({a + b for a, b in weak}) > apery.rho:
        raise InvariantViolation(f"weak edges have more than rho = "
                                 f"{apery.rho} weights")
    return WeightAnalysis({z: frozenset(es) for z, es in fibers.items()},
                          frozenset(x0), frozenset(weak))


def tau_bound_holds(tau_x: int, q: int, nu: int, n: int, k: int) -> bool:
    """tau(X) >= (k(q - 1) + nu)/2 + (n - k), compared in integers."""
    return 2 * tau_x >= k * (q - 1) + nu + 2 * (n - k)


# -- structural lemmas -------------------------------------------------------
#
# "v is a proper factor of u" means v in S.factors(u): v, u - v lie in S*.


def _lengths(S: NumericalSemigroup, top: int) -> dict[int, int]:
    """len(z) for every member in [m, top]: the largest t with z a sum of t
    elements of S*."""
    m = S.multiplicity
    out: dict[int, int] = {}
    for z in S.members_below(top + 1):
        if z >= m:
            out[z] = max((out[a] + out[z - a] for a in S.factors(z)),
                         default=1)
    return out


def structural_lemma_suite(S: NumericalSemigroup, G: LoopyGraph,
                           apery: AperyAnalysis) -> dict[str, bool]:
    """Instantiate every independent vertex/degree/factor statement on G(S).

    All entries are True for every numerical semigroup; a False exposes an
    implementation bug, not a mathematical discovery.
    """
    x = apery.apery_x
    xset = set(x)
    xd = apery.x_decomposable
    v_all = set(G.vertices)
    prim = set(S.min_generators)
    v_p = v_all & prim
    v_d = v_all - v_p
    factors_of = {u: list(S.factors(u)) for u in x}     # V is inside X
    nbrs = {u: G.neighbors(u) for u in v_all}

    checks: dict[str, bool] = {}

    checks["x_is_downset"] = all(v in xset
                                 for z in x for v in factors_of[z])

    checks["v_is_downset"] = all(v in v_all
                                 for u in v_all for v in factors_of[u])

    checks["neighborhoods_are_downsets"] = all(
        w in nbrs[u] for u in v_all for y in nbrs[u] for w in factors_of[y])

    checks["factor_degrees_decrease"] = all(
        G.degree(v) > G.degree(u)
        for u in v_all for v in factors_of[u] if v in v_all)

    lengths = _lengths(S, max(v_d, default=0))
    longest = max((lengths[u] for u in v_d), default=0)
    checks["max_length_nonloopy"] = all(
        u not in G.loops for u in v_d if lengths[u] == longest)

    # a nonloopy vertex never properly divides a neighbor (z - y in S* fails)
    checks["nonloopy_divides_no_neighbor"] = all(
        not S.is_member(z - y)
        for y in v_all if y not in G.loops
        for z in nbrs[y])

    checks["factor_of_loopy_is_loopy"] = all(
        v in G.loops
        for u in G.loops for v in factors_of[u] if v in v_all)

    ok = all(len(v_d) >= G.degree(u) for u in v_d)
    if len(v_d) == 1:       # then N(u) = {u / 2}, a primitive
        (u,) = v_d
        ok = ok and u % 2 == 0 and u // 2 in v_p and nbrs[u] == {u // 2}
    checks["v_cap_d_degree_bound"] = ok

    e_total = G.edge_count
    checks["large_difference_bound"] = all(
        len(xd) <= e_total - G.degree(u)
        for u in v_d if not any(2 * p == u for p in prim))

    # an edge (a, b), a <= b, joins two primitives or is a leaf b = 2a at a
    checks["leaf_structure"] = len(xd) != e_total or all(
        a in v_p and (b in v_p or b == 2 * a and nbrs[b] == {a})
        for a, b in G.all_edges())

    return checks


# -- combined per-semigroup verification -------------------------------------


def invariant_report(S: NumericalSemigroup) -> dict[str, bool]:
    """Depth, matching and structural invariants of one semigroup, by name.

    Raises where apery_analyze, weight_analysis or matching.analyze raise.
    Statements that hold on every input past those raises, or that another
    key implies, are not keys:
    - depth_window, layer_characterizations_agree: v + delta(v)m =
      c + (v - c) mod m and q - delta(v) = (v + rho) // m for every v;
    - depth_sum_inequality, addition_rule: delta(a) + delta(b) - delta(a + b)
      = q + ((a - c) mod m + (b - c) mod m - rho) // m, residues only;
    - apery_depths_nonnegative: apery_mask keeps X below c + m;
    - adjacent_weights_distinct: the edge at v of weight z is {v, z - v};
    - weak_targets_depth_zero: delta(a) + delta(b) = q - 1 gives a + b - c =
      m - rho + (a - c) mod m + (b - c) mod m > 0, and a + b < c + m;
    - rho_zero_forces_normal: weight_analysis raises below q when rho = 0;
    - xd_at_most_edges, fiber_identity: the fibers are exactly X n D;
    - med_iff_empty_graph: |P| = m iff X n D = {} (the m = |P| + |X n D|
      raise) iff E = {} (the fiber raise) iff G(S) has no vertex;
    - L_equals_q_plus_tau: with |X n D| = m - |P| and c = qm - rho, the W(S)
      raise reads |P|(q + tau) = |P||L| for a generator tuple without
      repeats, and |P| >= 1: with P empty, X n D = X, whose minimum is no
      edge weight (the fiber raise);
    - tau_small_forces_k_le_4: the tau_lower_bound key and the raises
      nu >= 0, n >= k give 2 tau >= k(q - 1), so k >= 5 and q >= 4 give
      tau >= 5(q - 1)/2 > 2q - 1;
    - equal_degree_antichain: factor_degrees_decrease, on the same pairs;
    - all_loopy_forces_v_primitive: max_length_nonloopy, since the longest
      element of V n D would be loopy;
    - max_degree_primitive: a vertex v outside P is in X n D, so an edge
      weight a + b (the fiber raise) with a in factors(v) n V, and
      factor_degrees_decrease gives deg a > deg v;
    - unique_loopy_is_primitive: for a loop u outside P that edge puts
      a < u in factors(u) n V, a second loop by factor_of_loopy_is_loopy;
    - p_exceeds_v_cap_p: P inside V inside X makes |X| = m by the raise
      m = |P| + |X n D|, so apery_one_per_class fails;
    - v_equals_factors_of_xd: V lies in factors(X n D) by the fiber raise;
      by x_is_downset a factor w of z in X n D and z - w lie in X, and
      w + (z - w) = z makes w a vertex.
    """
    ap = apery_analyze(S)
    m, q = S.multiplicity, ap.depth_q
    checks = {
        "apery_one_per_class": (len(ap.apery_x) == m - 1
                                and len({v % m for v in ap.apery_x}) == m - 1),
        "apery_max": not ap.apery_x or max(ap.apery_x) == S.conductor + m - 1,
    }

    G = build_graph(S)
    ma = matching.analyze(G, weight_analysis(G, ap).weak)
    checks["tau_lower_bound"] = tau_bound_holds(ap.tau_x, q, ma.nu, G.n, ma.vm)

    checks.update(structural_lemma_suite(S, G, ap))
    return checks
