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
