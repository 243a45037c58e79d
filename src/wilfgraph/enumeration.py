"""Exhaustive enumeration of numerical semigroups by genus.

The semigroup tree is rooted at the full set of nonnegative integers; the
children of S are S minus one minimal generator exceeding the Frobenius
number, which raises the genus by exactly one and reaches every semigroup
exactly once. Each node is a tuple (mask, m, c, g, P, R) of ints, built
from its parent's with a few int operations and no sieve: P holds the
minimal generators as a bitmask and R the same set reversed, so that one
mask test decides whether a child gains a generator. ``iter_semigroups``
wraps a node in a NumericalSemigroup. The census reads the tuples and builds
a generator tuple only where an output holds one. One loop, _count, counts
every node of a stream; the class keys and the battery are filters on the
stream in front of it. With neither, the walk stops two genera short, and
each node of genus g_max - 2 counts the last two genera below it with the
one bulk rule, _count_below: with popcounts where no per-node test could
tell its descendants apart, and otherwise by streaming its children
through _descend back into _count.

The walk powers the per-genus counts, the graph-equivalence class counts
(canonical keys of the associated graphs), the Wilf verification with its
known-case buckets, and the invariant battery: on every semigroup of genus
<= EXHAUSTIVE_GENUS, and beyond it on those with 3|P| < m, the only ones
the paper's theorem (Wilf holds when 3|P| >= m) leaves out.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, islice
from multiprocessing import get_context

from . import semigraph
from .errors import WilfCounterexample
from .loopy import _canonical_key
from .semigraph import neighbor_masks, positional_rows
from .semigroup import NumericalSemigroup, apery_mask

GENUS_HARD_CAP = 30
MAX_WORKERS = 64
# The parallel census splits the tree at genus max(g_max - _SPLIT_DEPTH,
# _SPLIT_FLOOR): the subtrees below a frontier that close to g_max stay small
# even along the ordinary chain <m, ..., 2m - 1>, whose subtree holds most of
# the tree.
_SPLIT_DEPTH = 6
_SPLIT_FLOOR = 9
_BATCHES_PER_WORKER = 8
# The battery checks every semigroup up to this genus, and beyond it those
# with 3|P| < m
EXHAUSTIVE_GENUS = 12
# A node's generators reversed below _K, see _descend. A parent of genus g
# has c <= 2g and m <= g + 1, so p + m < c + 2m <= 4g + 2 for each generator
# p != m that a child removes; _walk_bound keeps every walk's p + m below _K.
_K = 4 * GENUS_HARD_CAP + 2
_ROOT = (1, 1, 0, 0, 2, 1 << (_K - 1))  # the tree node of N itself


def _walk_bound(g_max):
    """Raise ValueError unless a walk to genus ``g_max`` keeps p + m < _K."""
    if 4 * g_max + 1 >= _K:
        raise ValueError(f"the tree walk reaches genus {(_K - 2) // 4} at "
                         f"most, got {g_max}")


def _gens(R):
    """The generator tuple of a node, read off its reversed generator mask
    R: the top bit of R is the least generator. R has few bits, and this
    loop over them beats bit_positions' scan of the whole bit string."""
    out = []
    while R:
        b = R.bit_length() - 1
        out.append(_K - b)
        R ^= 1 << b
    return tuple(out)


def _descend(node, cut):
    """Depth-first stream of the subtree at ``node``, children by increasing
    removed generator p > f; nodes of genus ``cut`` are yielded but not
    expanded. A node (mask, m, c, g, P, R) holds the members of S in
    [0, c + m), its multiplicity, conductor and genus, its minimal
    generators as the mask P, and R, with bit _K - q for each generator q.

    S' = S minus p has c' = p + 1 and g' = g + 1. If p = m, S = {0} u [m, oo)
    and S' = {0} u [m + 1, oo) is generated by m + 1, ..., 2m + 1. Else
    m' = m, and a new generator x = p + a (a in S*) is below c' + m, as
    x - m >= c' otherwise: x = p + m. It is a sum in S' iff a generator
    q of S' leaves x - q a member of S' (the least summand is q plus 0 or a
    member), i.e. iff child & (R' >> (_K - x)) != 0 with child the members
    of S' and R' = R minus bit _K - p: bit x - q of R' >> (_K - x) is set for
    each generator q != p of S, and its other bits drop out of the test.
    - q > p gives x - q in [1, m), where S' has no member;
    - q = m gives x - m = p, which is not in S';
    - q = p would give m, a member, and is why p leaves R'.
    So the test reads exactly the q in (m, p), as the sum requires.
    """
    stack = [node]
    push, pop = stack.append, stack.pop
    while stack:
        node = pop()
        yield node
        mask, m, c, g, P, R = node
        if g < cut:
            g += 1
            full = mask | -(1 << c)     # every bit from c up is set
            # the generators above f other than m, largest first
            high = P >> c << c
            if m >= c:
                high ^= 1 << m
            while high:
                p = high.bit_length() - 1
                high ^= 1 << p
                x = p + m
                child = (full ^ (1 << p)) & ((2 << x) - 1)
                P_, R_ = P ^ (1 << p), R ^ (1 << (_K - p))
                if child & (R_ >> (_K - x)):
                    push((child, m, p + 1, g, P_, R_))
                else:
                    push((child, m, p + 1, g, P_ | (1 << x),
                          R_ | (1 << (_K - x))))
            if m >= c:
                push(((full ^ (1 << m)) & ((1 << (2 * m + 2)) - 1),
                      m + 1, m + 1, g, P ^ (1 << m) | (3 << 2 * m),
                      R ^ (1 << (_K - m)) | (3 << (_K - 2 * m - 1))))


def iter_semigroups(g_max: int):
    """Depth-first stream of every semigroup of genus <= g_max.

    Deterministic order: children are visited by increasing removed generator.
    """
    _walk_bound(g_max)
    nodes = _descend(_ROOT, g_max) if g_max >= 0 else ()
    return (NumericalSemigroup(mask, m, c, _gens(R))
            for mask, m, c, _, _, R in nodes)


# Known cases of the Wilf inequality that the census tallies, in report
# order; the last one counts the semigroups in at least one of the others.
BUCKETS = ("p_le_3", "q_le_3", "p_ge_half_m", "p_ge_third_m", "covered")


@dataclass
class GenusCensus:
    """Aggregated per-genus census data."""

    genus: int
    count_ng: int = 0
    class_keys: Counter = field(default_factory=Counter)
    class_representatives: dict = field(default_factory=dict)
    wilf_violations: list = field(default_factory=list)
    buckets: Counter = field(default_factory=Counter)   # over BUCKETS
    invariants_checked: int = 0
    invariant_failures: list = field(default_factory=list)  # (gens, bad keys)

    @property
    def class_count_gamma(self) -> int:
        return len(self.class_keys)

    @property
    def p_ge_third_fraction(self) -> Fraction:
        """Share of the genus with 3|P| >= m."""
        if self.count_ng == 0:
            return Fraction(0)
        return Fraction(self.buckets[BUCKETS[3]], self.count_ng)

    def merge(self, other: "GenusCensus") -> None:
        self.count_ng += other.count_ng
        self.class_keys += other.class_keys
        for key, rep in other.class_representatives.items():
            mine = self.class_representatives.get(key)
            self.class_representatives[key] = rep if mine is None else min(mine, rep)
        self.wilf_violations += other.wilf_violations
        self.buckets.update(other.buckets)
        self.invariants_checked += other.invariants_checked
        self.invariant_failures += other.invariant_failures


def _graph_entry(mask, m, c, parent, cache):
    """The census entry (m, X, V, sig, key) of the semigroup S with members
    ``mask`` below c + m: its multiplicity m, the bitmask X of its nonzero
    Apery elements, the bitmask V of the vertices of G(S), the positional
    signature sig = (n, rows, loops) of G(S) over the vertices in increasing
    order, loops apart, and the canonical key of sig, which ``cache`` maps
    from sig.

    ``parent`` is the entry of the parent of S in the semigroup tree, or
    None. A child S' = S minus p with the parent's multiplicity m (so p > f
    and p != m) is built from it by this lemma: G(S') is G(S) plus the
    fiber of p + m, the pairs of X' summing to p + m.
    - p is isolated in G(S): p >= c and y > m for every y in X, so
      p + y > c + m > max(X); and no pair of X sums to p, since a minimal
      generator is no sum of two nonzero members.
    - X' = X minus p plus p + m: removing p changes only the Apery element
      of p's class mod m, to p + m, which is in S' as p + m > p = f'.
    - Every old edge a + b = z in X stays, as z != p. A new edge sums to an
      element of X' outside X, so to p + m; and p + m = max(X') (X' lies
      below c' + m = p + 1 + m) is isolated, as p + m + y > max(X').
    So the rows grow only by the fiber, whose endpoints not yet in V are
    inserted by shifting every row and the loop mask. An empty fiber
    (p + m is a minimal generator of S') keeps the parent's sig and key.
    The root, a batch root and the child with p = m are built from scratch.
    """
    if parent is not None and parent[0] == m:
        _, x, verts, sig, key = parent
        top = c - 1 + m                 # p + m
        x ^= 1 << (top - m) | 1 << top
        # bit a of the reversal is bit top - a of x, as top = max(X')
        fiber = x & int(bin(x)[:1:-1], 2)
        if not fiber:
            return m, x, verts, sig, key
        rows, loops = list(sig[1]), sig[2]
        new = fiber & ~verts
        while new:
            bit = new & -new
            k = (verts & (bit - 1)).bit_count()
            # row + (row & high) shifts the bits from k up by one
            high = -1 << k
            rows = [row + (row & high) for row in rows]
            loops += loops & high
            rows.insert(k, 0)
            verts |= bit
            new ^= bit
        while fiber:
            bit = fiber & -fiber
            a = bit.bit_length() - 1
            if 2 * a > top:
                break
            i = (verts & (bit - 1)).bit_count()
            j = (verts & ((1 << (top - a)) - 1)).bit_count()
            if i == j:
                loops |= 1 << i
            else:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            fiber ^= bit
        sig = (len(rows), tuple(rows), loops)
    else:
        x = apery_mask(mask, m, c)
        adjacency = neighbor_masks(x)
        # the same graph over vertex positions, loops apart, for the labeling
        rows, loops = positional_rows(adjacency)
        verts = sum(1 << a for a in adjacency)
        sig = (len(rows), tuple(rows), loops)
    key = cache.get(sig)
    if key is None:
        key = cache[sig] = _canonical_key(*sig)
    return m, x, verts, sig, key


def _same_buckets(k, n, m):
    """Whether |P| = k and |P| = n >= k give the same three |P| tests of
    BUCKETS (|P| <= 3, 2|P| >= m, 3|P| >= m), and so the same for every |P|
    between them, as each test is monotone in |P|."""
    return ((k > 3 or n <= 3) and (2 * k >= m or 2 * n < m)
            and (3 * k >= m or 3 * n < m))


def _count_below(node, n_p, depth, cases, acc):
    """Count the descendants of the node (mask, m, c, g, P, R), |P| = n_p,
    down to ``depth`` genera below it (1 or 2), into ``cases`` and acc as
    _count does, and build them only where a count could tell them apart.

    Let p > f be a generator of S, p != m. By _descend's rule S' = S minus p
    has m' = m, c' = p + 1 and genus g + 1. Its generators are those of S
    but p, all still minimal as S' lies in S, and p + m if p + m is no sum
    in S' (the members of S in (m, p) tell), so |P'| is n_p - 1 or n_p. Its
    generators above f' = p are the generators q > p of S and, if gained,
    p + m, and its children S' minus q have c'' = q + 1 and |P''| in
    [n_p - 2, n_p].
    - Wilf. Let p0 be the least generator above f, d = ``depth`` and
      k = n_p - d. A descendant d' <= d genera down has |P'| >= k,
      c' >= p0 + d' and |L'| = c' - g - d'. If k(p0 - g) > p0 + d - 1, then
      k >= 1 (as p0 >= c >= g), so
      |P'||L'| - c' >= (k - 1)c' - k(g + d') >= k(p0 - g) - p0 - d' >= 0
      and no descendant fails Wilf.
    - Buckets. If also _same_buckets(k, n_p, m), every descendant's key
      reads as |P| = n_p, and popcounts count them. With lo and hi the
      generators above f below 3m and from 3m on, there are lo + hi
      children, lo with c' <= 3m. At depth 2 the grandchildren are the pairs
      p < q, of which lo(lo - 1)/2 have q < 3m and lo hi + hi(hi - 1)/2 do
      not, plus one S' minus (p + m) for each child that gains p + m, with
      c'' <= 3m iff p < 2m. Only the gain needs a mask test, one per child.
    A node that fails either test streams its children through _descend
    back into _count, which counts each one and, at depth 2, its children
    in turn. No ordinary node, S = {0} u [m, oo), passes, so every node
    counted in bulk keeps m' = m: m is a generator above f, so p0 = m, and
    with n_p = m and g = m - 1 the Wilf test (m - d) * 1 > m + d - 1 fails
    for every d >= 1. Every other node has m < f.
    """
    mask, m, c, g, P, R = node
    high = P >> c << c          # the generators above f
    if not high:
        return
    p = (high & -high).bit_length() - 1
    if not (_same_buckets(n_p - depth, n_p, m)
            and (n_p - depth) * (p - g) > p + depth - 1):
        _count(islice(_descend(node, g + 1), 1, None), cases, acc, g + 1,
               g + depth)
        return
    lo = (high & ((1 << 3 * m) - 1)).bit_count()
    hi = high.bit_count() - lo
    key = (g + 1, n_p, m, True)
    cases[key] = cases.get(key, 0) + lo
    key = (g + 1, n_p, m, False)
    cases[key] = cases.get(key, 0) + hi
    if depth == 1:
        return
    # Rm >> (_K - x) has bit x - q for each generator q != m: q = p gives
    # bit m, which inner lacks, and q > p meets no member
    inner, Rm = mask ^ (1 << m), R ^ (1 << (_K - m))
    two = 2 * m
    gained_lo = gained_hi = 0
    while high:
        p = high.bit_length() - 1
        high ^= 1 << p
        if not inner & (Rm >> (_K - p - m)):
            if p < two:
                gained_lo += 1
            else:
                gained_hi += 1
    key = (g + 2, n_p, m, True)
    cases[key] = cases.get(key, 0) + lo * (lo - 1) // 2 + gained_lo
    key = (g + 2, n_p, m, False)
    cases[key] = (cases.get(key, 0) + lo * hi + hi * (hi - 1) // 2
                  + gained_hi)


def _count(nodes, cases, acc, cut, g_max):
    """Count every node of a preorder stream into ``cases`` by (genus, |P|,
    m, c <= 3m) and add those that fail Wilf to their genus in acc. A node
    of genus >= ``cut``, which the stream does not expand, also counts its
    descendants down to genus ``g_max`` (_count_below)."""
    for node in nodes:
        _, m, c, g, P, R = node
        n_p = P.bit_count()
        if n_p * (c - g) < c:           # |L| = c - g
            acc[g].wilf_violations.append(_gens(R))
        key = (g, n_p, m, c <= 3 * m)
        cases[key] = cases.get(key, 0) + 1
        if cut <= g < g_max:
            _count_below(node, n_p, g_max - g, cases, acc)


def _classes(nodes, acc, cache):
    """Pass a preorder stream on, adding each node's graph class to its
    genus in acc; ``cache`` maps graph signatures to canonical keys.

    A class's representative is its member with the least generator tuple,
    kept as R until the stream ends, and acc must hold no class yet. Within
    a genus the least tuple has the largest R: no generator set A is a
    proper prefix of another, B, as A in B gives <A> in <B> and equal genus
    makes them equal. So at the least generator d that only one of two sets
    holds, that set has the lesser tuple and the larger R, whose top
    differing bit is _K - d.
    """
    # genus -> entry of the last node streamed there: genus is depth, so a
    # node's parent, when streamed, is the last node one genus up
    path: dict = {}
    for node in nodes:
        mask, m, c, g, _, R = node
        stats = acc[g]
        entry = path[g] = _graph_entry(mask, m, c, path.get(g - 1), cache)
        key = entry[4]
        stats.class_keys[key] += 1
        rep = stats.class_representatives.get(key)
        if rep is None or R > rep:
            stats.class_representatives[key] = R
        yield node
    for stats in acc.values():
        reps = stats.class_representatives
        for key, R in reps.items():
            reps[key] = _gens(R)


def _battery(nodes, acc):
    """Pass a stream on, running semigraph.invariant_report on each node
    that has genus <= EXHAUSTIVE_GENUS or 3|P| < m and passes the Wilf test;
    its genus counts it and keeps (generator tuple, False keys) if any."""
    for node in nodes:
        mask, m, c, g, P, R = node
        n_p = P.bit_count()
        if (g <= EXHAUSTIVE_GENUS or 3 * n_p < m) and n_p * (c - g) >= c:
            gens = _gens(R)
            report = semigraph.invariant_report(
                NumericalSemigroup(mask, m, c, gens))
            acc[g].invariants_checked += 1
            failed = [key for key, ok in report.items() if not ok]
            if failed:
                acc[g].invariant_failures.append((gens, failed))
        yield node


def _tally(nodes, acc: dict[int, GenusCensus], cut: int, classes: bool,
           cache: dict, battery: bool) -> None:
    """Add a preorder stream to the census in acc, the nodes of genus >=
    ``cut`` with their descendants to acc's last genus (_count), through
    the class and battery filters that ``classes`` and ``battery`` ask for.
    The BUCKETS tests are read off each distinct key at the end."""
    if classes:
        nodes = _classes(nodes, acc, cache)
    if battery:
        nodes = _battery(nodes, acc)
    cases: dict = {}        # (genus, |P|, m, c <= 3m) -> count
    _count(nodes, cases, acc, cut, max(acc))
    for (g, n_p, m, low), count in cases.items():
        if count:
            stats = acc[g]
            stats.count_ng += count
            hits = [n_p <= 3, low, 2 * n_p >= m, 3 * n_p >= m]
            hits.append(any(hits))
            for name in compress(BUCKETS, hits):
                stats.buckets[name] += count


def _above(split, frontier):
    """Stream the tree above genus ``split``; the nodes of genus ``split``
    go to ``frontier`` instead."""
    for node in _descend(_ROOT, split):
        if node[3] < split:
            yield node
        else:
            frontier.append(node)


def _deal(frontier, workers):
    """Deal the frontier round-robin into about workers * _BATCHES_PER_WORKER
    batches."""
    count = min(len(frontier), workers * _BATCHES_PER_WORKER)
    return [frontier[i::count] for i in range(count)]


# (batches, g_max, cut, classes, cache, battery) of run_census, set only in
# a forked pool worker: fork hands the batches and the parent's graph-key
# cache over unpickled, and the worker keeps filling it across its batches
_batch_state = None


def _init_worker(*state):
    global _batch_state
    _batch_state = state


def _batch_job(i):
    batches, g_max, cut, classes, cache, battery = _batch_state
    acc = {g: GenusCensus(g) for g in range(batches[i][0][3], g_max + 1)}
    _tally((node for root in batches[i] for node in _descend(root, cut)),
           acc, cut, classes, cache, battery)
    return acc


def run_census(g_max: int, workers: int = 1, classes: bool = False,
               battery: bool = False) -> dict[int, GenusCensus]:
    """Census of every genus 0..g_max; deterministic for any worker count.

    With workers > 1 the parent tallies the tree above the frontier genus
    and a fork pool tallies the subtrees below it, in batches. With
    ``battery`` each genus holds the invariant battery's count and its
    failures, sorted by generator tuple (see _battery). With neither classes
    nor battery the walk stops at genus g_max - 2, and genera g_max - 1 and
    g_max are counted from its nodes (_count_below), mostly without being
    walked.
    """
    if not 0 <= g_max <= GENUS_HARD_CAP:
        raise ValueError(f"genus bound must be within 0..{GENUS_HARD_CAP}, "
                         f"got {g_max}")
    _walk_bound(g_max)
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be within 1..{MAX_WORKERS}, "
                         f"got {workers}")
    acc = {g: GenusCensus(g) for g in range(g_max + 1)}
    cache: dict = {}
    cut = g_max if classes or battery else g_max - 2
    split = max(g_max - _SPLIT_DEPTH, _SPLIT_FLOOR)
    if workers == 1 or split >= g_max:
        _tally(_descend(_ROOT, cut), acc, cut, classes, cache, battery)
    else:
        frontier: list = []
        _tally(_above(split, frontier), acc, split, classes, cache, battery)
        batches = _deal(frontier, workers)
        with get_context("fork").Pool(
                workers, _init_worker,
                (batches, g_max, cut, classes, cache, battery)) as pool:
            for part in pool.imap_unordered(_batch_job, range(len(batches))):
                for g, stats in part.items():
                    acc[g].merge(stats)
    for stats in acc.values():      # the pool returns batches in any order
        stats.invariant_failures.sort()
    return acc


@dataclass
class WilfReport:
    """Outcome of the Wilf verification sweep up to a genus bound."""

    total: int
    buckets: Counter                # over BUCKETS, summed over every genus
    per_genus: dict[int, GenusCensus]


def verify_wilf_range(g_max: int, workers: int = 1, battery: bool = False
                      ) -> WilfReport:
    """Check |P||L| >= c over every semigroup of genus <= g_max, and with
    ``battery`` run the invariant battery as ``run_census`` does.

    Raises WilfCounterexample (with the offending generator lists) if the
    inequality ever fails; that would be a sensational bug.
    """
    acc = run_census(g_max, workers=workers, battery=battery)
    violations = sorted(
        v for stats in acc.values() for v in stats.wilf_violations)
    if violations:
        raise WilfCounterexample(
            f"Wilf inequality failed for {violations!r}")
    buckets: Counter = Counter()
    for stats in acc.values():
        buckets.update(stats.buckets)
    return WilfReport(
        total=sum(s.count_ng for s in acc.values()),
        buckets=buckets,
        per_genus=acc,
    )
