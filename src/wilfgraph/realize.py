"""Realizing an arbitrary loopy graph as the associated graph of a semigroup.

Pick a multiplicity m and offsets m/3 <= x_1 < ... < x_n < (m-1)/2 whose
pairwise sums are all distinct (a Sidon condition). The truncated semigroup
<m, m+x_1, ..., m+x_n> cut at 2m realizes the loopy-complete graph LK_n;
adding the generator m + x_i + x_j erases the edge between m + x_i and
m + x_j, so any target graph is reached by erasing the non-edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RealizationFailed, WindowTooSmall
from .loopy import LoopyGraph, check_vertex_count
from .semigroup import NumericalSemigroup, from_generators_truncated
from .semigraph import build_graph


def _greedy_sidon(n: int, limit: int | None = None) -> list[int]:
    """The first n terms (those up to limit) of the greedy Sidon sequence
    from 0: 0, 1, 3, 7, 12, 20, ..., the Mian-Chowla sequence minus one.
    Greedy selection commutes with translation, so the greedy sequence inside
    [lo, hi] is lo plus the terms up to hi - lo."""
    chosen, sums, x = [], set(), 0
    while len(chosen) < n and (limit is None or x <= limit):
        candidate_sums = [x + y for y in chosen] + [2 * x]
        if sums.isdisjoint(candidate_sums):
            chosen.append(x)
            sums.update(candidate_sums)
        x += 1
    return chosen


def sidon_offsets(n: int, m: int) -> tuple[int, ...]:
    """Greedy Sidon sequence of length n inside [ceil(m/3), (m-1)/2).

    Pairwise sums, doubles included, are distinct. Raises WindowTooSmall when
    the window cannot host n such values.
    """
    lo, hi = -(-m // 3), (m - 2) // 2      # hi: largest x with 2x < m - 1
    chosen = _greedy_sidon(n, hi - lo)
    if len(chosen) < n:
        raise WindowTooSmall(
            f"no {n}-term Sidon sequence in [{lo}, {hi}] for m = {m}")
    return tuple(lo + x for x in chosen)


@dataclass(frozen=True)
class RealizationPlan:
    """A constructed semigroup whose associated graph matches the target."""

    target: LoopyGraph
    multiplicity: int
    offsets: tuple[int, ...]
    erase_generators: tuple[int, ...]
    result: NumericalSemigroup

    def certificate(self) -> dict:
        return {
            "m": self.multiplicity,
            "offsets": list(self.offsets),
            "erased": list(self.erase_generators),
            "gens": list(self.result.min_generators),
            "truncation": 2 * self.multiplicity,
            "verified": verify_realization(self),
        }


def plan_with_offsets(G: LoopyGraph, m: int, offsets) -> RealizationPlan:
    """Build the construction for explicit m and offsets, without verifying.

    Use verify_realization to check the certificate; offsets outside the
    guaranteed window are allowed (their modular distinctness decides).
    """
    offsets = tuple(offsets)
    if len(offsets) != G.n:
        raise ValueError(f"need {G.n} offsets, got {len(offsets)}")
    verts = G.vertices
    erase = []
    for i in range(G.n):
        for j in range(i, G.n):
            if not G.has_edge(verts[i], verts[j]):
                erase.append(m + offsets[i] + offsets[j])
    gens = [m] + [m + x for x in offsets] + erase
    S = from_generators_truncated(gens, 2 * m)
    return RealizationPlan(G, m, offsets, tuple(sorted(erase)), S)


def _modular_certificate(plan: RealizationPlan) -> bool:
    """The offsets and their pairwise sums are nonzero, distinct mod m, and
    the doubled generator set lands in [c, c+m)."""
    m = plan.multiplicity
    xs = plan.offsets
    values = list(xs) + [xs[i] + xs[j]
                         for i in range(len(xs)) for j in range(i, len(xs))]
    residues = {v % m for v in values}
    if 0 in residues or len(residues) != len(values):
        return False
    c = plan.result.conductor
    return all(c <= 2 * m + xs[i] + xs[j] < c + m
               for i in range(len(xs)) for j in range(i, len(xs)))


def verify_realization(plan: RealizationPlan) -> bool:
    """Modular certificate first (cheap), then isomorphism of the rebuilt graph."""
    if plan.offsets and not _modular_certificate(plan):
        return False
    rebuilt = build_graph(plan.result)
    return rebuilt.canonical_key() == plan.target.canonical_key()


def realize(G: LoopyGraph, min_multiplicity: int = 2) -> RealizationPlan:
    """Smallest-multiplicity realization of G via the greedy Sidon offsets.

    Raises TooLarge over the canonical-labeling cap, before building anything,
    and RealizationFailed if the rebuilt graph is not isomorphic to the target
    (a construction bug, not a mathematical obstruction).
    """
    n = G.n
    check_vertex_count(n)
    m = max(min_multiplicity, 2)
    if n:
        # m fits iff ceil(m/3) + a_{n-1} <= (m - 2) // 2; that window is not
        # monotone in m (width 0 at m = 6, -1 at m = 7), so scan, not bisect
        top = _greedy_sidon(n)[-1]
        while -(-m // 3) + top > (m - 2) // 2:
            m += 1
    offsets = sidon_offsets(n, m)
    plan = plan_with_offsets(G, m, offsets)
    if not verify_realization(plan):
        raise RealizationFailed(
            f"rebuilt graph differs from target for m={m}, offsets={offsets}")
    return plan
