"""Numerical semigroups: cofinite additive submonoids of the nonnegative integers.

A semigroup is built from a generator list (optionally truncated, i.e. unioned
with a tail [t, oo)) and stores a membership bitmask over [0, c + m), bit x
set iff x is a member, together with the basic invariants: multiplicity m,
Frobenius number f, conductor c = f + 1 and genus g. Everything beyond the
mask follows from the rule x >= c  =>  x is a member.
"""

from __future__ import annotations

from math import gcd

from .errors import (EmptyGenerators, InvalidTruncation, NonCoprimeGenerators,
                     TooLarge)

# Longest membership mask sieved. On a 2-core Xeon with CPython 3.11 a sieve
# pass at this length takes about 20 ms, and the slowest from_generators
# input tried, [2000, 2001], about 0.07 s.
MAX_TABLE = 4_000_000
# Largest multiplicity of a truncated semigroup. The minimal-generator pass
# tests about m candidates against the generators below each, so its time
# grows with m^2: on a 2-core Xeon with CPython 3.11, [20000, 21000)
# truncated at MAX_TABLE spends 0.9 s in that pass and [100000, 101000)
# 15.5 s. realize needs m = 9138 at the canonical-labeling cap of 32
# vertices.
MAX_MULTIPLICITY = 20_000
# Most bits _closure may shift, about 2 s on that Xeon: [20000, 40000) cut at
# MAX_TABLE takes 1.3e10, and its even numbers (no conductor) about 3e11.
MAX_CLOSURE_WORK = 15_000_000_000


def bit_positions(mask: int) -> list[int]:
    """The set bits of a nonnegative mask, in increasing order."""
    out, at = [], -1    # the pieces are the runs of zeros from bit 0 up
    for zeros in bin(mask)[:1:-1].split("1")[:-1]:
        at += len(zeros) + 1
        out.append(at)
    return out


def apery_mask(mask: int, m: int, c: int) -> int:
    """The nonzero Apery elements X as a bitmask: the members x in
    [m + 1, c + m) with x - m a gap, read off a membership mask."""
    return (mask & ~(mask << m) & ((1 << (c + m)) - 1)) >> (m + 1) << (m + 1)


class NumericalSemigroup:
    """Immutable numerical semigroup with a finite membership bitmask.

    Instances are canonical: ``min_generators`` is always the unique minimal
    system of generators, regardless of how redundant the construction input
    was. Safe to share across threads after construction.
    """

    __slots__ = ("min_generators", "multiplicity", "frobenius", "conductor",
                 "genus", "mask")

    def __init__(self, mask, multiplicity, conductor, min_generators):
        # Internal constructor; use from_generators / from_generators_truncated.
        # Bits at and above c + m are dropped; below c they give the genus.
        self.mask = mask & ((1 << (conductor + multiplicity)) - 1)
        self.multiplicity = multiplicity
        self.frobenius = conductor - 1
        self.conductor = conductor
        self.genus = conductor - (mask & ((1 << conductor) - 1)).bit_count()
        self.min_generators = tuple(min_generators)

    # -- membership ------------------------------------------------------

    def is_member(self, x: int) -> bool:
        if x < 0:
            return False
        if x >= self.conductor:
            return True
        return bool(self.mask >> x & 1)

    __contains__ = is_member

    def divides(self, a: int, b: int) -> bool:
        """The relation a <= b in S, i.e. b - a is a member."""
        return self.is_member(b - a)

    # -- the P / D / L split ---------------------------------------------

    def primitives(self) -> set[int]:
        """The set P of minimal generators, equal to S* minus (S* + S*)."""
        return set(self.min_generators)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.min_generators == other.min_generators

    def __hash__(self):
        return hash(self.min_generators)

    def __repr__(self):
        return f"NumericalSemigroup({', '.join(map(str, self.min_generators))})"


def _closure(gens: list[int], horizon: int) -> int:
    """Bitmask of the additive closure of the increasing ``gens`` over
    [0, horizon); mask holds the members below top, and [top, horizon) are
    all members, so each pass stops at top."""
    mask, top, view, work = 1, horizon, None, 0
    for a in gens:
        if a >= top:
            break               # a and every later generator are members
        if view is None:        # bit x of mask is bit x & 7 of byte x >> 3
            view = mask.to_bytes((top + 7) >> 3, "little")
        if view[a >> 3] >> (a & 7) & 1:
            continue            # a is already a sum of earlier generators
        # <G, a> = <G> + aN by doubling: after the pass with shift s the
        # mask holds <G> + {0, a, ..., 2s - a}, cut at top
        low, shift = (1 << top) - 1, a
        while shift < top:
            mask |= (mask << shift) & low
            shift, work = shift << 1, work + top
        if work > MAX_CLOSURE_WORK:
            raise TooLarge(f"closure over the limit of {MAX_CLOSURE_WORK} bits")
        top = (~mask & low).bit_length()    # one past the last gap
        mask, view = mask & ((1 << top) - 1), None
    return mask | ((1 << horizon) - (1 << top))


def _find_conductor(mask: int, m: int) -> int | None:
    """Conductor of the sieved set, or None if no run of m members fits yet.

    Once m consecutive members appear, every larger integer is a member
    (keep adding m), so the conductor is one past the last gap before the run.
    """
    run, width = mask, 1        # bit x of run: [x, x + width) are members
    while width < m:
        step = min(width, m - width)
        run &= run >> step
        width += step
    if not run:
        return None
    start = (run & -run).bit_length() - 1
    return (~mask & ((1 << start) - 1)).bit_length()


def _add_generators(mask: int, m: int, gens: list[int],
                    candidates) -> list[int]:
    """Append to ``gens`` each candidate x, in increasing order, with no q in
    gens leaving x - q a member; return gens. Only the sieve calls it.

    x is a sum a + b of nonzero members iff some minimal generator q <= a
    leaves x - q = (a - q) + b a nonzero member, so ``gens`` must be the
    minimal generators below the candidates, in increasing order, and
    ``mask`` must hold the members below them; m is the multiplicity.
    """
    bits = bin(mask)[:1:-1]     # character x is bit x of mask
    for x in candidates:
        top = x - m
        for q in gens:
            if q > top:         # and so is every later q: x - q < m is a gap
                gens.append(x)
                break
            if bits[x - q] == "1":
                break
        else:
            gens.append(x)
    return gens


def _minimal_generators(mask: int, m: int, c: int) -> list[int]:
    # P is m and the Apery elements x in (m, c+m), x - m a gap, that are not
    # a sum of two nonzero members; any other x > m is m + (x - m).
    return _add_generators(mask, m, [m], bit_positions(apery_mask(mask, m, c)))


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
        TooLarge: Schur's bound c <= (a_1 - 1)(a_n - 1) allows a mask over
            [0, c + a_1) over MAX_TABLE, or a closure over MAX_CLOSURE_WORK.
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
        mask = _closure(gens, horizon)
        conductor = _find_conductor(mask, m)
        if conductor is not None:
            return NumericalSemigroup(
                mask, m, conductor, _minimal_generators(mask, m, conductor))
        horizon = min(2 * horizon, limit)


def from_generators_truncated(gens, t: int) -> NumericalSemigroup:
    """The semigroup <gens> union [t, oo).

    The generators need not be coprime; the tail makes the complement finite.
    The conductor of the result never exceeds t.

    Raises:
        EmptyGenerators: no generators, or a non-positive one.
        InvalidTruncation: t <= 0.
        TooLarge: t > MAX_TABLE, multiplicity min(gens[0], t) above
            MAX_MULTIPLICITY, or a closure over MAX_CLOSURE_WORK.
    """
    if t <= 0:
        raise InvalidTruncation(f"truncation point must be positive, got {t}")
    if t > MAX_TABLE:
        raise TooLarge(f"truncation point {t} exceeds the limit {MAX_TABLE}")
    gens = _validated(gens)
    m = min(gens[0], t)
    if m > MAX_MULTIPLICITY:
        raise TooLarge(f"multiplicity {m} exceeds the limit {MAX_MULTIPLICITY}")
    horizon = t + m + 1
    mask = _closure(gens, horizon) | ((1 << horizon) - (1 << t))
    c = _find_conductor(mask, m)
    return NumericalSemigroup(mask, m, c, _minimal_generators(mask, m, c))


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
