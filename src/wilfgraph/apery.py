"""Apery set, depth function, layer partition and the Wilf quantity W(S).

For a semigroup of multiplicity m and conductor c, the depth of a member x is
the unique integer d with x + d*m in [c, c+m); the depth of S itself is
q = ceil(c/m) = depth(0), and rho = q*m - c lies in [0, m). The nonzero Apery
elements X (one per nonzero class mod m) carry the total depth tau(X), which
ties the count of small elements to q via |L| = q + tau(X) and gives the
second formula for W(S) = |P||L| - c, namely |P|*tau(X) - |X n D|*q + rho.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, NotAMember
from .semigroup import NumericalSemigroup, apery_mask, bit_positions


@dataclass(frozen=True)
class AperyAnalysis:
    """Apery-side invariants of one semigroup."""

    apery_x: tuple[int, ...]
    depth_of: dict[int, int]        # delta on X union {0}
    depth_q: int
    rho: int
    tau_x: int
    x_primitive: frozenset[int]
    x_decomposable: frozenset[int]
    wilf_w: int


def apery_set(S: NumericalSemigroup) -> tuple[int, ...]:
    """Nonzero Apery elements: members x with x - m not a member. Sorted."""
    return tuple(bit_positions(apery_mask(S.mask, S.multiplicity,
                                          S.conductor)))


def depth(S: NumericalSemigroup, x: int) -> int:
    """delta(x) = ceil((c - x)/m); requires x to be a member.

    Defined on all of S: elements in [c, c+m) have depth 0, elements beyond
    have negative depth, small elements have positive depth.
    """
    if not S.is_member(x):
        raise NotAMember(f"{x} is not in {S!r}")
    return -((x - S.conductor) // S.multiplicity)


def layer_index(S: NumericalSemigroup, x: int) -> int:
    """Index i of the layer S_i containing the member x; equals q - delta(x)."""
    q = -(-S.conductor // S.multiplicity)
    return q - depth(S, x)


def total_depth(S: NumericalSemigroup, elements) -> int:
    """tau(A): the sum of depths over a finite subset A of S."""
    return sum(depth(S, x) for x in elements)


def wilf_w(S: NumericalSemigroup) -> int:
    """W(S) = |P||L| - c; nonnegative iff S satisfies the Wilf inequality."""
    return len(S.min_generators) * (S.conductor - S.genus) - S.conductor


def analyze(S: NumericalSemigroup) -> AperyAnalysis:
    m, c = S.multiplicity, S.conductor
    q = -(-c // m)
    rho = q * m - c
    x = apery_set(S)
    depth_of = {0: q}
    for v in x:
        depth_of[v] = -((v - c) // m)
    tau = sum(depth_of[v] for v in x)
    prim = frozenset(S.min_generators)
    x_prim = frozenset(v for v in x if v in prim)
    x_dec = frozenset(x) - x_prim
    w = len(prim) * tau - len(x_dec) * q + rho
    if w != wilf_w(S):
        raise InvariantViolation(f"W(S) is {wilf_w(S)} but the Apery formula "
                                 f"gives {w} for {S!r}")
    if m != len(prim) + len(x_dec):
        raise InvariantViolation(f"m = {m} but |P| + |X n D| = "
                                 f"{len(prim) + len(x_dec)} for {S!r}")
    return AperyAnalysis(x, depth_of, q, rho, tau, x_prim, x_dec, w)


def depth_sum_inequality(S: NumericalSemigroup) -> bool:
    """q - min(rho, 1) <= delta(a) + delta(b) - delta(a + b) <= q + 1 for all
    members a <= b below c + 2m.

    Moving a or b by m moves delta(a + b) with it, so the expression depends
    only on the classes of a - c and b - c mod m: one representative pair per
    unordered pair of the classes met below c + 2m covers every pair.
    """
    m, c = S.multiplicity, S.conductor
    q = -(-c // m)
    bounds = range(q - min(q * m - c, 1), q + 2)
    reps = {(v - c) % m: v for v in S.members_below(c + 2 * m)}
    delta = [(a, -((a - c) // m)) for a in reps.values()]
    return all(da + db + (a + b - c) // m in bounds
               for i, (a, da) in enumerate(delta) for b, db in delta[i:])


def check_addition_rule(S: NumericalSemigroup, i: int, j: int) -> bool:
    """Whether S_i + S_j lands in layers {i+j-1, i+j, i+j+1}.

    When rho = 0 the lower layer i+j-1 is additionally excluded. Each layer
    is a width-m window, hence finite; sums beyond the table fall under the
    x >= c membership rule.
    """
    return addition_rule(S, [(i, j)])


def addition_rule(S: NumericalSemigroup, pairs) -> bool:
    """check_addition_rule on every layer pair (i, j) given, reading each
    layer once.

    (a + b + rho) // m grows with a + b and the allowed layers form an
    interval, so the least and the greatest sums decide a pair. Layer i is
    [i*m - rho, i*m + m - rho), read off the mask with every x >= c set.
    """
    m, c = S.multiplicity, S.conductor
    rho = -c % m
    top = max(max(pair) for pair in pairs)
    mask = S.mask | ((1 << max((top + 1) * m - rho, c)) - (1 << c))
    ends = []           # (min S_i, max S_i), or None for an empty layer
    for i in range(top + 1):
        lo = max(i * m - rho, 0)
        w = mask >> lo & ((1 << (i * m + m - rho - lo)) - 1)
        ends.append((lo + (w & -w).bit_length() - 1, lo + w.bit_length() - 1)
                    if w else None)
    return all(not ends[i] or not ends[j]
               or i + j - (rho != 0) <= (ends[i][0] + ends[j][0] + rho) // m
               and (ends[i][1] + ends[j][1] + rho) // m <= i + j + 1
               for i, j in pairs)


def summand_closure_check(S: NumericalSemigroup) -> bool:
    """Every summand of a nonzero Apery element is again one.

    Checks all decompositions z = a + b over S* for every decomposable z in X;
    b = z - a is itself a factor of z, so checking each factor a covers it.
    """
    x = set(apery_set(S))
    return all(a in x for z in x for a in S.factors(z))


def report(S: NumericalSemigroup) -> dict:
    """JSON-ready summary of the core and Apery invariants."""
    a = analyze(S)
    return {
        "gens": list(S.min_generators),
        "m": S.multiplicity,
        "f": S.frobenius,
        "c": S.conductor,
        "g": S.genus,
        "q": a.depth_q,
        "rho": a.rho,
        "P": list(S.min_generators),
        "X": list(a.apery_x),
        "X_cap_D": sorted(a.x_decomposable),
        "L_size": S.conductor - S.genus,
        "tau_X": a.tau_x,
        "W": a.wilf_w,
    }
