"""Independent brute-force oracles the optimized code is checked against.

Everything here is deliberately naive: plain sieves, exhaustive enumeration
of matchings, and permutation search for isomorphism. None of it shares code
with the package internals it validates.
"""

from itertools import islice, permutations


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


def depth_sum_pairwise(S):
    """delta(a) + delta(b) - delta(a + b) in [q - min(rho, 1), q + 1] for
    every pair of members a <= b below c + 2m, pair by pair."""
    m, c = S.multiplicity, S.conductor
    q = -(-c // m)
    rho = q * m - c
    window = S.members_below(c + 2 * m)
    delta = {v: -((v - c) // m) for v in window}
    lo = q - min(rho, 1)
    return all(
        delta[a] + delta[b] - (-((a + b - c) // m)) in range(lo, q + 2)
        for i, a in enumerate(window) for b in window[i:])


def _layer(S, i, rho):
    m = S.multiplicity
    lo, hi = i * m - rho, i * m + m - rho
    return [v for v in range(max(lo, 0), hi) if S.is_member(v)]


def addition_rule_pairwise(S, i, j):
    """Whether every a in S_i and b in S_j give a + b in layer i + j - 1
    (only if rho != 0), i + j or i + j + 1, element by element."""
    m, c = S.multiplicity, S.conductor
    q = -(-c // m)
    rho = q * m - c
    allowed = {i + j, i + j + 1}
    if rho != 0:
        allowed.add(i + j - 1)
    si, sj = _layer(S, i, rho), _layer(S, j, rho)
    for a in si:
        for b in sj:
            if (a + b + rho) // m not in allowed:
                return False
    return True
