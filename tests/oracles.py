"""Independent brute-force oracles the optimized code is checked against.

Everything here is deliberately naive: plain sieves, exhaustive enumeration
of matchings, and permutation search for isomorphism. None of it shares code
with the package internals it validates. The test-only helpers at the end
(gaps, L and D of a semigroup, relabeling, random graphs) read a semigroup
through is_member and build graphs through the public LoopyGraph.
"""

from itertools import islice, permutations

from wilfgraph import (InconsistentDepths, InvariantViolation, LoopyGraph,
                       WeightAnalysis)


def sieve_members(gens, horizon):
    """Additive closure of gens, as the set of members below horizon."""
    members = {0}
    frontier = [0]
    while frontier:
        base = frontier.pop()
        for a in gens:
            nxt = base + a
            if nxt < horizon and nxt not in members:
                members.add(nxt)
                frontier.append(nxt)
    return members


def brute_minimal_generators(members):
    """The nonzero members that are no sum of two nonzero members, trying
    every smaller nonzero member as a summand. ``members`` must hold every
    member below c + m."""
    nonzero = sorted(members - {0})
    return [x for i, x in enumerate(nonzero)
            if not any(x - a in members for a in islice(nonzero, i))]


def brute_apery(members, m):
    """The nonzero members x with x - m not a member, sorted. ``members``
    must hold every member below c + m."""
    return sorted(x for x in members if x and x - m not in members)


def all_matchings(edges):
    """Every matching (as a tuple of edges) over the given loopy edge list."""
    out = [()]

    def extend(i, used, acc):
        for j in range(i, len(edges)):
            a, b = edges[j]
            if a in used or b in used:
                continue
            picked = acc + (edges[j],)
            out.append(picked)
            extend(j + 1, used | {a, b}, picked)

    extend(0, set(), ())
    return out


def touched(matching):
    return len({v for e in matching for v in e})


def brute_matching_stats(graph, weak=frozenset()):
    """(vm, nu, active edge set) straight from the definitions."""
    edges = graph.all_edges()
    matchings = all_matchings(edges)
    k = max(touched(m) for m in matchings)
    maximal = [m for m in matchings if touched(m) == k]
    nu = max(touched([e for e in m if e not in weak]) for m in maximal)
    active = {e for m in maximal for e in m}
    return k, nu, active


def brute_isomorphic(g, h):
    """Loop-color-preserving isomorphism by trying every vertex bijection."""
    if g.n != h.n or len(g.true_edges) != len(h.true_edges) \
            or len(g.loops) != len(h.loops):
        return False
    gv, hv = list(g.vertices), list(h.vertices)
    for perm in permutations(hv):
        phi = dict(zip(gv, perm))
        if any((v in g.loops) != (phi[v] in h.loops) for v in gv):
            continue
        if all(h.has_edge(phi[a], phi[b]) for a, b in g.true_edges):
            return True
    return False


# -- canonical labeling and catalog without twin pruning ----------------------
#
# The labeling and the augmentation catalog as they were before the search
# skipped twin branches and the catalog skipped twin augmentations: the keys
# and the catalog must not change when those prunings are added. _refine is
# also the refinement as it was before its discrete and uniform-cell
# shortcuts, which must return the same partitions.


def _refine(cells, adj):
    while True:
        changed = False
        for splitter in cells:
            smask = 0
            for v in splitter:
                smask |= 1 << v
            new_cells = []
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                groups = {}
                for v in cell:
                    groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                if len(groups) == 1:
                    new_cells.append(cell)
                else:
                    changed = True
                    for count in sorted(groups):
                        new_cells.append(groups[count])
            cells = new_cells
            if changed:
                break
        if not changed:
            return cells


def _encode(order, adj, loopmask):
    n = len(order)
    loops_bits = 0
    adj_bits = 0
    bit = 0
    for i, v in enumerate(order):
        if loopmask >> v & 1:
            loops_bits |= 1 << i
        row = adj[v]
        for j in range(i + 1, n):
            if row >> order[j] & 1:
                adj_bits |= 1 << bit
            bit += 1
    return loops_bits, adj_bits


def _same_orbit(u, v, gens, n):
    if not gens:
        return False
    seen = {u}
    frontier = [u]
    while frontier:
        w = frontier.pop()
        for g in gens:
            img = g[w]
            if img not in seen:
                if img == v:
                    return True
                seen.add(img)
                frontier.append(img)
    return False


def canonical_key_unpruned(n, adj, loopmask):
    """The key as the minimum leaf encoding, with orbit pruning only."""
    if n == 0:
        return "0:0:0"

    by_color = {}
    for v in range(n):
        key = (loopmask >> v & 1, adj[v].bit_count())
        by_color.setdefault(key, []).append(v)
    initial = [by_color[k] for k in sorted(by_color)]

    best = None
    first = None
    aut_gens = []

    def visit_leaf(order):
        nonlocal best, first
        enc = _encode(order, adj, loopmask)
        if first is None:
            first = (order, enc)
        elif enc == first[1]:
            # order and first[0] induce the same labeled graph: automorphism
            perm = [0] * n
            for pos in range(n):
                perm[order[pos]] = first[0][pos]
            if perm not in aut_gens:
                aut_gens.append(perm)
        if best is None or enc < best:
            best = enc

    def search(cells, base):
        target = next((k for k, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            visit_leaf(tuple(v for cell in cells for v in cell))
            return
        cell = cells[target]
        explored = []
        for v in cell:
            applicable = [g for g in aut_gens if all(g[b] == b for b in base)]
            if any(_same_orbit(v, u, applicable, n) for u in explored):
                continue
            explored.append(v)
            rest = [u for u in cell if u != v]
            branched = cells[:target] + [[v], rest] + cells[target + 1:]
            search(_refine(branched, adj), base + (v,))

    search(_refine(initial, adj), ())
    return f"{n}:{best[0]:x}:{best[1]:x}"


def catalog_unpruned(n):
    """The loopy graphs on n vertices, one per class, as graph JSON, in the
    catalog's order: vertex augmentation trying every neighbor set, keeping
    the first-seen child of each key, then sorting by key."""
    level = {"0:0:0": ((), 0)}
    for k in range(1, n + 1):
        nxt = {}
        new_bit = 1 << (k - 1)
        for adj, loopmask in level.values():
            for nbrs in range(1 << (k - 1)):
                grown = [row | new_bit if nbrs >> i & 1 else row
                         for i, row in enumerate(adj)]
                grown.append(nbrs)
                grown = tuple(grown)
                for loop in (0, new_bit):
                    lm = loopmask | loop
                    key = canonical_key_unpruned(k, grown, lm)
                    if key not in nxt:
                        nxt[key] = (grown, lm)
        level = nxt

    graphs = []
    for key in sorted(level):
        adj, loopmask = level[key]
        if any(adj[v] == 0 and not loopmask >> v & 1 for v in range(n)):
            continue
        graphs.append({
            "vertices": list(range(n)),
            "edges": [[i, j] for i in range(n) for j in range(i + 1, n)
                      if adj[i] >> j & 1],
            "loops": [v for v in range(n) if loopmask >> v & 1]})
    return graphs


# -- extremal edge counts ----------------------------------------------------
#
# The extremal search as the plain loop over the whole catalog, before it
# walked the catalog by decreasing edge count and stopped at the first count
# with a witness. It takes the catalog and vm from the package, which the
# oracles above check; what it pins is the search order and the witnesses.


def extremal_plain(n, k, loops=None):
    """(best, witnesses) over the catalog on n vertices with vm = k."""
    from wilfgraph import Infeasible, all_loopy_graphs, vm

    best = -1
    witnesses = []
    for G in all_loopy_graphs(n):
        if loops is not None and G.loop_count != loops:
            continue
        if vm(G) != k:
            continue
        if G.edge_count > best:
            best = G.edge_count
            witnesses = [G]
        elif G.edge_count == best:
            witnesses.append(G)
    if best < 0:
        raise Infeasible(f"no loopy graph on {n} vertices has vm = {k}"
                         + (f" with {loops} loops" if loops is not None else ""))
    return best, tuple(witnesses)


# -- realization multiplicity -------------------------------------------------
#
# The greedy Sidon search as it was before it was computed once from 0 and
# translated: a fresh greedy pass over each window [ceil(m/3), (m - 2) // 2],
# and every m tried in turn.


def sidon_offsets_per_m(n, m):
    """The greedy Sidon sequence of length n inside the window of m, or None
    when the window is too small."""
    lo, hi = -(-m // 3), (m - 2) // 2
    chosen, sums = [], set()
    for x in range(lo, hi + 1):
        if len(chosen) == n:
            break
        candidate_sums = [x + y for y in chosen] + [2 * x]
        if all(s not in sums for s in candidate_sums):
            chosen.append(x)
            sums.update(candidate_sums)
    return tuple(chosen) if len(chosen) == n else None


def smallest_multiplicity_per_m(n, min_multiplicity):
    """The first m >= max(min_multiplicity, 2) whose window hosts n offsets."""
    m = max(min_multiplicity, 2)
    while sidon_offsets_per_m(n, m) is None:
        m += 1
    return m


# -- the structural lemma suite, on sets ------------------------------------
#
# The set-based suite as it stood before the bitmask rewrite, frozen: the
# factors of each element, the neighborhoods and the degrees as Python sets,
# read through the public methods of the semigroup and the graph.


def factors(S, z):
    """Each a in S* with z - a in S*, in increasing order."""
    m = S.multiplicity
    return [a for a in range(m, z - m + 1)
            if S.is_member(a) and S.is_member(z - a)]


def lengths(S, top):
    """len(z) for every member in [m, top]: the largest t with z a sum of t
    elements of S*."""
    m = S.multiplicity
    out = {}
    for z in members_below(S, top + 1):
        if z >= m:
            out[z] = max((out[a] + out[z - a] for a in factors(S, z)),
                         default=1)
    return out


def structural_lemma_suite(S, G, apery):
    """Every key of semigraph.structural_lemma_suite, from the definitions."""
    x = apery.apery_x
    xset = set(x)
    xd = apery.x_decomposable
    v_all = set(G.vertices)
    prim = set(S.min_generators)
    v_p = v_all & prim
    v_d = v_all - v_p
    factors_of = {u: factors(S, u) for u in x}     # V is inside X
    nbrs = {u: G.neighbors(u) for u in v_all}

    checks = {}

    checks["x_is_downset"] = all(v in xset
                                 for z in x for v in factors_of[z])

    checks["v_is_downset"] = all(v in v_all
                                 for u in v_all for v in factors_of[u])

    checks["neighborhoods_are_downsets"] = all(
        w in nbrs[u] for u in v_all for y in nbrs[u] for w in factors_of[y])

    checks["factor_degrees_decrease"] = all(
        G.degree(v) > G.degree(u)
        for u in v_all for v in factors_of[u] if v in v_all)

    length = lengths(S, max(v_d, default=0))
    longest = max((length[u] for u in v_d), default=0)
    checks["max_length_nonloopy"] = all(
        u not in G.loops for u in v_d if length[u] == longest)

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


# -- edge weights, on label sets ----------------------------------------------
#
# semigraph.weight_analysis as it stood before the positional edge pass,
# frozen: the same rules and raise messages, on G.all_edges() and sets of
# labels.


def weight_analysis(G, apery):
    """Every field of semigraph.weight_analysis, from the labeled edges."""
    fibers, x0, weak = {}, set(), set()
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


# -- test-only helpers ---------------------------------------------------------


def gaps(S):
    """The complement of S in the nonnegative integers, increasing."""
    return [x for x in range(S.conductor) if not S.is_member(x)]


def small_elements(S):
    """The set L of members smaller than the conductor."""
    return {x for x in range(S.conductor) if S.is_member(x)}


def members_below(S, bound):
    """The members of S in [0, bound), increasing."""
    return [x for x in range(bound) if S.is_member(x)]


def decomposables_below(S, bound):
    """The elements of D = S* + S* in [0, bound), by trying every split."""
    return {x for x in range(bound)
            if any(S.is_member(a) and S.is_member(x - a)
                   for a in range(1, x))}


def relabeled(G, mapping):
    """G with each vertex v renamed mapping[v]."""
    return LoopyGraph([mapping[v] for v in G.vertices],
                      [(mapping[a], mapping[b]) for a, b in G.true_edges],
                      [mapping[v] for v in G.loops])


def random_loopy_graph(rng, min_vertices=2, max_vertices=8, max_edges=12):
    """Seeded random loopy graph with at most ``max_edges`` edges."""
    while True:
        n = rng.randint(min_vertices, max_vertices)
        candidates = [(i, j) for i in range(n) for j in range(i, n)]
        rng.shuffle(candidates)
        count = rng.randint(1, max_edges)
        chosen = candidates[:count]
        edges = [(a, b) for a, b in chosen if a != b]
        loops = [a for a, b in chosen if a == b]
        touched = sorted({v for e in edges for v in e} | set(loops))
        if not touched:
            continue
        relabel = {v: i for i, v in enumerate(touched)}
        return LoopyGraph(range(len(touched)),
                          [(relabel[a], relabel[b]) for a, b in edges],
                          [relabel[v] for v in loops])
