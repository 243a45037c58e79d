"""The graph associated to a numerical semigroup, and its provable structure.

G(S) has the nonzero Apery elements as potential vertices, an edge {x, y}
(x = y allowed) whenever x + y is again a nonzero Apery element, and keeps
only vertices meeting an edge. Edge weights x + y map onto the decomposable
Apery elements; depths classify edges as weak (depth sum q - 1) or normal.
The provable inequalities and structural statements that a wrong mask, wrong
generators or a wrong layer can falsify are exposed here as checkable
predicates: each holds for every semigroup, so any False is a bug detector.
invariant_report builds G(S) with build_graph, checks them all in one pass
over its rows by vertex positions, and solves its matching only when the
matching cache misses.
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


def positional_rows(adjacency: dict[int, int]) -> tuple[list[int], int]:
    """The graph of ``neighbor_masks`` over vertex positions, the vertices
    in increasing order: row i holds the positions of the neighbors of the
    i-th vertex, loops apart, and the loop mask holds the loopy positions."""
    position = {1 << a: 1 << i for i, a in enumerate(adjacency)}
    rows = []
    loops = 0
    for i, (a, row) in enumerate(adjacency.items()):
        if row >> a & 1:
            loops |= 1 << i
            row ^= 1 << a
        out = 0
        while row:
            low = row & -row
            out |= position[low]
            row ^= low
        rows.append(out)
    return rows, loops


def build_graph(S: NumericalSemigroup) -> LoopyGraph:
    """G(S): edges are pairs of nonzero Apery elements summing into the set."""
    adjacency = neighbor_masks(apery_mask(S.mask, S.multiplicity, S.conductor))
    return LoopyGraph._from_rows(tuple(adjacency), *positional_rows(adjacency))


@dataclass(frozen=True)
class WeightAnalysis:
    """Fibers of the edge-weight map of G(S), the deficit set X0, and the
    weak edges (depth sum q - 1); every other edge is normal."""

    fibers: dict[int, frozenset]
    x0_set: frozenset
    weak: frozenset


def _edge_pass(G: LoopyGraph, apery: AperyAnalysis):
    """weight_analysis on G's rows: the bitmask of X0 and the weak edges as
    position pairs (i, j), i <= j. The edges go in the order of
    G.all_edges(), so a raise names the same first failing edge."""
    verts = G.vertices
    q, rho, depth_of = apery.depth_q, apery.rho, apery.depth_of
    floor = q - min(rho, 1)
    weights = x0 = 0
    weak = []
    for i, j in G._pairs():
        a, b = verts[i], verts[j]
        s = depth_of[a] + depth_of[b]
        if s < floor:
            raise InconsistentDepths(
                f"edge ({a}, {b}) has depth sum {s} < {floor}")
        z = a + b
        weights |= 1 << z
        if s == q - 1:
            weak.append((i, j))
        if s == depth_of[z] + q - 1:
            x0 |= 1 << z
    if weights != sum(1 << z for z in apery.x_decomposable):
        raise InvariantViolation("edge weights do not map onto X n D")
    if x0.bit_count() > rho:
        raise InvariantViolation(f"|X0| = {x0.bit_count()} exceeds rho = {rho}")
    if len({verts[i] + verts[j] for i, j in weak}) > rho:
        raise InvariantViolation(f"weak edges have more than rho = {rho} "
                                 f"weights")
    return x0, weak


def weight_analysis(G: LoopyGraph, apery: AperyAnalysis) -> WeightAnalysis:
    """Weights wt({x, y}) = x + y with fibers over the decomposable Apery set.

    X0 collects targets z reachable with depth deficit, i.e. members of some
    decomposition x + y = z with depth(x) + depth(y) = depth(z) + q - 1.
    Raises InconsistentDepths if any edge has depth sum below q - min(rho, 1),
    which no associated graph can exhibit.
    """
    verts = G.vertices
    x0, weak = _edge_pass(G, apery)
    fibers: dict[int, set] = {}
    for a, b in G.all_edges():
        fibers.setdefault(a + b, set()).add((a, b))
    return WeightAnalysis({z: frozenset(es) for z, es in fibers.items()},
                          frozenset(bit_positions(x0)),
                          frozenset((verts[i], verts[j]) for i, j in weak))


# (rows, loop mask, weak position pairs) -> (vm, nu), per process; cleared
# when full, so a long walk holds at most this many entries
_MATCHING_CACHE_MAX = 1 << 16
_matching_cache: dict[tuple, tuple[int, int]] = {}


def _matching_numbers(G: LoopyGraph, weak) -> tuple[int, int]:
    """(vm, nu) of G and the weak edges of _edge_pass, cached.

    The key is G's rows, its loop mask and the weak position pairs. The
    cached pair is what matching.analyze returns on G and the weak label
    pairs: the edge order of _edge_triples, G.all_edges(), is the order of
    the rows' position pairs, each triple's mask and touch come from
    positions and its bonus from the weak pairs. So the triples, the edge
    cap, the solver's optimum and chosen indices, and with them every raise
    of analyze, depend on the key alone. A miss that raises caches nothing.
    """
    key = G._adj, G._loopmask, tuple(weak)
    hit = _matching_cache.get(key)
    if hit is None:
        verts = G.vertices
        ma = matching.analyze(G, [(verts[i], verts[j]) for i, j in weak])
        if len(_matching_cache) >= _MATCHING_CACHE_MAX:
            _matching_cache.clear()
        hit = _matching_cache[key] = ma.vm, ma.nu
    return hit


def tau_bound_holds(tau_x: int, q: int, nu: int, n: int, k: int) -> bool:
    """tau(X) >= (k(q - 1) + nu)/2 + (n - k), compared in integers."""
    return 2 * tau_x >= k * (q - 1) + nu + 2 * (n - k)


# -- structural lemmas -------------------------------------------------------
#
# "v is a proper factor of u" means that v and u - v lie in S*.


def structural_lemma_suite(S: NumericalSemigroup, G: LoopyGraph,
                           apery: AperyAnalysis) -> dict[str, bool]:
    """Instantiate every independent vertex/degree/factor statement on G(S).

    All entries are True for every numerical semigroup; a False exposes an
    implementation bug, not a mathematical discovery.

    Every set is a bitmask over the integers, bit z for z. Let big be the
    members of S in [m, t), t = c + m, and rev its reversal over [0, t): bit
    i of rev is bit t - 1 - i of big. For 0 <= z < t, bit a of
    rev >> (t - 1 - z) is bit a + t - 1 - z of rev, so bit
    (t - 1) - (a + t - 1 - z) = z - a of big when a <= z, and 0 when a > z,
    past the top bit of rev. So the factors of z, the a >= m with a and
    z - a members from m on, are big & (rev >> (t - 1 - z)). X lies below
    t, and for z in X a factor and its cofactor lie in [m, z - m], below c,
    where the mask and is_member agree. V, the neighborhoods, the degrees,
    the loops and |E| are read from G's rows and loop mask, turned from
    vertex positions into such masks.
    """
    m, top = S.multiplicity, S.conductor + S.multiplicity - 1
    mem = S.mask
    big = mem >> m << m                         # the members from m on
    rev = int(bin(big)[:1:-1].ljust(top + 1, "0"), 2)
    factors = {}
    x = under = 0
    for z in apery.apery_x:
        f = factors[z] = big & rev >> top - z
        x |= 1 << z
        under |= f

    verts, loopmask = G.vertices, G._loopmask
    bits = [1 << v for v in verts]
    v_all = sum(bits)
    prim = 0
    for p in S.min_generators:      # twice the speed of a sum over a set
        prim |= 1 << p
    v_d = v_all & ~prim
    fac = [factors[v] for v in verts]           # V is inside X
    nbrs, degs = [], []
    nbhd_ok = divides_ok = True
    loops = under_v = under_loops = 0   # the loops, the factors of V, of loops
    for i, row in enumerate(G._adj):
        under_v |= fac[i]
        loopy = loopmask >> i & 1
        if loopy:
            loops |= bits[i]
            under_loops |= fac[i]
            row |= 1 << i
        degs.append(row.bit_count())
        nb = need = 0                   # N(u), and the factors of N(u)
        while row:
            low = row & -row
            j = low.bit_length() - 1
            nb |= bits[j]
            need |= fac[j]
            row ^= low
        nbrs.append(nb)
        if need & ~nb:
            nbhd_ok = False
        # a nonloopy vertex never properly divides a neighbor (z - y not in S*)
        if not loopy and nb & mem << verts[i]:
            divides_ok = False

    checks: dict[str, bool] = {}

    checks["x_is_downset"] = not under & ~x

    checks["v_is_downset"] = not under_v & ~v_all

    checks["neighborhoods_are_downsets"] = nbhd_ok

    # only the factors that are vertices can have a degree to compare
    ok = True
    if under_v & v_all:
        at_most = [0] * (max(degs) + 1)         # degree <= d, by d
        for b, d in zip(bits, degs):
            at_most[d] |= b
        for d in range(1, len(at_most)):
            at_most[d] |= at_most[d - 1]
        ok = not any(f & at_most[d] for f, d in zip(fac, degs))
    checks["factor_degrees_decrease"] = ok

    # len(z), for the members z in [m, max(V n D)], is the largest t with z
    # a sum of t elements of S*: 1, or len(a) + len(z - a) over the factors
    # a <= z / 2 of z; only a loopy vertex in V n D can make the key False
    ok = True
    if v_d & loops:
        lengths = [0] * v_d.bit_length()
        rest = big & (1 << v_d.bit_length()) - 1
        while rest:
            low = rest & -rest
            z = low.bit_length() - 1
            f = big & rev >> top - z & (1 << z // 2 + 1) - 1
            best = 1
            while f:
                a = (f & -f).bit_length() - 1
                best = max(best, lengths[a] + lengths[z - a])
                f &= f - 1
            lengths[z] = best
            rest ^= low
        longest = max(lengths[u] for u in bit_positions(v_d))
        ok = not any(lengths[u] == longest
                     for u in bit_positions(v_d & loops))
    checks["max_length_nonloopy"] = ok

    checks["nonloopy_divides_no_neighbor"] = divides_ok

    checks["factor_of_loopy_is_loopy"] = not under_loops & v_all & ~loops

    # the degrees count each true edge twice and each loop once
    slack = (sum(degs) + loops.bit_count()) // 2 - len(apery.x_decomposable)
    n_d = v_d.bit_count()
    deg_d = [(u, d, nb) for u, b, d, nb in zip(verts, bits, degs, nbrs)
             if b & v_d]
    ok = all(n_d >= d for _, d, _ in deg_d)
    if n_d == 1:            # then N(u) = {u / 2}, a primitive
        ((u, _, nb),) = deg_d
        # u / 2, in N(u), is a vertex: it is in V n P if it is in P
        ok = (ok and u % 2 == 0 and nb == 1 << u // 2
              and prim >> u // 2 & 1 == 1)
    checks["v_cap_d_degree_bound"] = ok

    # u = 2p for a primitive p iff u is even and u / 2 is in P
    checks["large_difference_bound"] = all(
        d <= slack or u % 2 == 0 and prim >> u // 2 & 1 == 1
        for u, d, _ in deg_d)

    # an edge (a, b), a <= b, joins two primitives or is a leaf b = 2a at a:
    # at each vertex b, the lower ends a <= b are primitives, and either b
    # is one or N(b) = {b / 2}
    checks["leaf_structure"] = slack != 0 or all(
        not nb & (b << 1) - 1 & ~prim
        and (b & prim or not nb & (b << 1) - 1
             or u % 2 == 0 and nb == 1 << u // 2)
        for u, b, nb in zip(verts, bits, nbrs))

    return checks


# -- combined per-semigroup verification -------------------------------------


def invariant_report(S: NumericalSemigroup) -> dict[str, bool]:
    """Depth, matching and structural invariants of one semigroup, by name,
    read off G(S) over vertex positions (see the module docstring).

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
    m, x = S.multiplicity, ap.apery_x
    G = build_graph(S)
    checks = {"apery_one_per_class": (len(x) == m - 1
                                      and len({v % m for v in x}) == m - 1),
              "apery_max": not x or max(x) == S.conductor + m - 1}
    _, weak = _edge_pass(G, ap)
    vm, nu = _matching_numbers(G, weak)
    checks["tau_lower_bound"] = tau_bound_holds(ap.tau_x, ap.depth_q, nu,
                                                G.n, vm)
    checks.update(structural_lemma_suite(S, G, ap))
    return checks
