"""Apery set, depth function and the Wilf quantity W(S).

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


def wilf_w(S: NumericalSemigroup) -> int:
    """W(S) = |P||L| - c; nonnegative iff S satisfies the Wilf inequality."""
    return len(S.min_generators) * (S.conductor - S.genus) - S.conductor


def analyze(S: NumericalSemigroup) -> AperyAnalysis:
    m, c = S.multiplicity, S.conductor
    q = -(-c // m)
    rho = q * m - c
    x = apery_set(S)
    depth_of = {v: -((v - c) // m) for v in (0, *x)}     # depth(0) = q
    tau = sum(depth_of.values()) - q
    prim = frozenset(S.min_generators)
    x_dec = frozenset(x).difference(prim)
    w = len(prim) * tau - len(x_dec) * q + rho
    if w != wilf_w(S):
        raise InvariantViolation(f"W(S) is {wilf_w(S)} but the Apery formula "
                                 f"gives {w} for {S!r}")
    if m != len(prim) + len(x_dec):
        raise InvariantViolation(f"m = {m} but |P| + |X n D| = "
                                 f"{len(prim) + len(x_dec)} for {S!r}")
    # the same object as AperyAnalysis(...), whose frozen __init__ costs
    # one object.__setattr__ call per field, in about half the time
    a = object.__new__(AperyAnalysis)
    a.__dict__.update(apery_x=x, depth_of=depth_of, depth_q=q, rho=rho,
                      tau_x=tau, x_decomposable=x_dec, wilf_w=w)
    return a


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
