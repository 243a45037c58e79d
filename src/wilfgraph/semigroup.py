"""Numerical semigroups: cofinite additive submonoids of the nonnegative integers.

A semigroup is built from a generator list (optionally truncated, i.e. unioned
with a tail [t, oo)) and stores a membership sieve over [0, c + m) together
with the basic invariants: multiplicity m, Frobenius number f, conductor
c = f + 1 and genus g. Everything beyond the sieve follows from the rule
x >= c  =>  x is a member.
"""

from __future__ import annotations

from math import gcd

from .errors import (EmptyGenerators, InvalidTruncation, NonCoprimeGenerators,
                     TooLarge)

# Longest membership table sieved, about a second of work on a 2-core Xeon
# with CPython 3.11.
MAX_TABLE = 4_000_000


class NumericalSemigroup:
    """Immutable numerical semigroup with a finite membership table.

    Instances are canonical: ``min_generators`` is always the unique minimal
    system of generators, regardless of how redundant the construction input
    was. Safe to share across threads after construction.
    """

    __slots__ = ("min_generators", "multiplicity", "frobenius", "conductor",
                 "genus", "_table")

    def __init__(self, table, multiplicity, frobenius, conductor, genus,
                 min_generators):
        # Internal constructor; use from_generators / from_generators_truncated.
        self._table = bytes(table)
        self.multiplicity = multiplicity
        self.frobenius = frobenius
        self.conductor = conductor
        self.genus = genus
        self.min_generators = tuple(min_generators)

    # -- membership ------------------------------------------------------

    def is_member(self, x: int) -> bool:
        if x < 0:
            return False
        if x >= self.conductor:
            return True
        return bool(self._table[x])

    __contains__ = is_member

    def members_below(self, bound: int) -> list[int]:
        """All members of S in [0, bound), in increasing order."""
        c = self.conductor
        table = self._table
        out = [x for x in range(min(bound, c)) if table[x]]
        out.extend(range(c, bound))
        return out

    def gaps(self) -> list[int]:
        """The complement of S in the nonnegative integers."""
        table = self._table
        return [x for x in range(self.conductor) if not table[x]]

    def divides(self, a: int, b: int) -> bool:
        """The relation a <= b in S, i.e. b - a is a member."""
        return self.is_member(b - a)

    # -- the P / D / L split ---------------------------------------------

    def factors(self, z: int):
        """Each a in S* with z - a in S*, lazily and in increasing order."""
        member = self.is_member
        return (a for a in range(self.multiplicity, z - self.multiplicity + 1)
                if member(a) and member(z - a))

    def _decomposable(self, x: int) -> bool:
        return next(self.factors(x), None) is not None

    def primitives(self) -> set[int]:
        """The set P of minimal generators, equal to S* minus (S* + S*)."""
        return set(self.min_generators)

    def decomposables_below(self, bound: int) -> set[int]:
        """Elements of D = S* + S* lying in [0, bound)."""
        m = self.multiplicity
        return {x for x in range(2 * m, bound)
                if self.is_member(x) and self._decomposable(x)}

    def small_elements(self) -> set[int]:
        """The set L of members smaller than the conductor."""
        table = self._table
        return {x for x in range(self.conductor) if table[x]}

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.min_generators == other.min_generators

    def __hash__(self):
        return hash(self.min_generators)

    def __repr__(self):
        return f"NumericalSemigroup({', '.join(map(str, self.min_generators))})"


def _closure_table(gens: list[int], horizon: int) -> bytearray:
    """Sieve the additive closure of ``gens`` over [0, horizon)."""
    table = bytearray(horizon)
    table[0] = 1
    smallest = gens[0]
    for x in range(smallest, horizon):
        for a in gens:
            if a > x:
                break
            if table[x - a]:
                table[x] = 1
                break
    return table


def _find_conductor(table: bytearray, m: int) -> int | None:
    """Conductor of the sieved set, or None if no run of m members fits yet.

    Once m consecutive members appear, every larger integer is a member
    (keep adding m), so the conductor is one past the last gap before the run.
    """
    run = 0
    for x, bit in enumerate(table):
        run = run + 1 if bit else 0
        if run == m:
            start = x - m + 1
            for y in range(start - 1, -1, -1):
                if not table[y]:
                    return y + 1
            return 0
    return None


def _minimal_generators(S: NumericalSemigroup) -> list[int]:
    m = S.multiplicity
    # P is m and the Apery elements x in (m, c+m), x - m a gap, that are not
    # a sum of two nonzero members; any other x > m is m + (x - m).
    member = S.is_member
    return [m] + [x for x in range(m + 1, S.conductor + m)
                  if member(x) and not member(x - m)
                  and not S._decomposable(x)]


def _finalize(table: bytearray, conductor: int) -> NumericalSemigroup:
    m = next(x for x in range(1, len(table)) if table[x])
    genus = conductor - sum(table[:conductor])
    S = NumericalSemigroup(table[:conductor + m], m, conductor - 1, conductor,
                           genus, ())
    S.min_generators = tuple(_minimal_generators(S))
    return S


def _validated(gens) -> list[int]:
    gens = sorted(set(gens))
    if not gens:
        raise EmptyGenerators("need at least one generator")
    if gens[0] <= 0:
        raise EmptyGenerators(f"generators must be positive, got {gens[0]}")
    return gens


def from_generators(gens) -> NumericalSemigroup:
    """Additive closure of a coprime set of positive integers.

    Raises:
        EmptyGenerators: no generators, or a non-positive one.
        NonCoprimeGenerators: gcd of the generators exceeds 1.
        TooLarge: Schur's bound c <= (a_1 - 1)(a_n - 1) allows a table
            [0, c + a_1) longer than MAX_TABLE.
    """
    gens = _validated(gens)
    g = 0
    for a in gens:
        g = gcd(g, a)
    if g != 1:
        raise NonCoprimeGenerators(f"gcd of {gens} is {g}")
    m = gens[0]
    need = (m - 1) * (gens[-1] - 1) + m
    if need > MAX_TABLE:
        raise TooLarge(f"generators {m}, ..., {gens[-1]} may need a table of "
                       f"{need} entries; the limit is {MAX_TABLE}")
    limit = need + 1            # m itself must fit when c = 0
    horizon = min(2 * (gens[-1] + m) + 2, limit)
    while True:
        table = _closure_table(gens, horizon)
        conductor = _find_conductor(table, m)
        if conductor is not None:
            return _finalize(table, conductor)
        horizon = min(2 * horizon, limit)


def from_generators_truncated(gens, t: int) -> NumericalSemigroup:
    """The semigroup <gens> union [t, oo).

    The generators need not be coprime; the tail makes the complement finite.
    The conductor of the result never exceeds t.

    Raises:
        EmptyGenerators: no generators, or a non-positive one.
        InvalidTruncation: t <= 0.
        TooLarge: t > MAX_TABLE.
    """
    if t <= 0:
        raise InvalidTruncation(f"truncation point must be positive, got {t}")
    if t > MAX_TABLE:
        raise TooLarge(f"truncation point {t} exceeds the limit {MAX_TABLE}")
    gens = _validated(gens)
    m = min(gens[0], t)
    horizon = t + m + 1
    table = _closure_table(gens, horizon)
    for x in range(t, horizon):
        table[x] = 1
    conductor = _find_conductor(table, m)
    return _finalize(table, conductor)


# -- generator text format -------------------------------------------------
#
# "12,13,14,15,17,19,20,21"  plain generator list
# "12,13|t=30"               truncated form

def parse_generators(text: str) -> tuple[tuple[int, ...], int | None]:
    """Parse the generator text format, returning (gens, truncation or None).

    Raises ValueError with the character position of the offending token.
    """
    text = text.strip()
    trunc = None
    if "|" in text:
        body, _, tail = text.partition("|")
        tail = tail.strip()
        if not tail.startswith("t="):
            pos = text.index("|") + 1
            raise ValueError(f"expected 't=<int>' after '|' at position {pos}")
        try:
            trunc = int(tail[2:])
        except ValueError:
            pos = text.index("|") + 3
            raise ValueError(f"bad truncation value at position {pos}") from None
    else:
        body = text
    gens = []
    offset = 0
    for token in body.split(","):
        stripped = token.strip()
        try:
            gens.append(int(stripped))
        except ValueError:
            raise ValueError(
                f"bad generator {stripped!r} at position {offset}") from None
        offset += len(token) + 1
    return tuple(gens), trunc


def format_generators(S: NumericalSemigroup) -> str:
    return ",".join(map(str, S.min_generators))
