"""Exhaustive enumeration of numerical semigroups by genus.

The semigroup tree is rooted at the full set of nonnegative integers; the
children of S are S minus one minimal generator exceeding the Frobenius
number, which raises the genus by exactly one and reaches every semigroup
exactly once. Each node is a NumericalSemigroup: a child's mask is its
parent's with p cleared, and its minimal generators are the parent's without
p plus the few sums whose every decomposition used p, so no node is
sieved.

The walk powers the per-genus counts, the graph-equivalence class counts
(canonical keys of the associated graphs), the Wilf verification with its
known-case buckets, and a fixed-size sample per genus for the invariant
battery: the bottom-k sample of Cohen & Kaplan (PODC 2007) over a fixed
hash, which merges across workers where a seeded reservoir could not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappush, heapreplace
from itertools import compress
from multiprocessing import get_context

from .errors import WilfCounterexample
from .loopy import _canonical_key
from .semigraph import neighbor_masks
from .semigroup import (NumericalSemigroup, _add_generators, apery_mask,
                        from_generators)

GENUS_HARD_CAP = 30
MAX_WORKERS = 64
# The parallel census splits the tree at genus max(g_max - _SPLIT_DEPTH,
# _SPLIT_FLOOR): the subtrees below a frontier that close to g_max stay small
# even along the ordinary chain <m, ..., 2m - 1>, whose subtree holds most of
# the tree.
_SPLIT_DEPTH = 6
_SPLIT_FLOOR = 9
_BATCHES_PER_WORKER = 8


def _child(S: NumericalSemigroup, p: int) -> NumericalSemigroup:
    """S minus its minimal generator p > f."""
    m = S.multiplicity + (p == S.multiplicity)
    # the members of [0, c' + m') with c' = p + 1; every bit from c up is set
    mask = (S.mask | -(1 << S.conductor)) & ~(1 << p)
    mask &= (1 << (p + 1 + m)) - 1
    # a new generator x is a sum in S whose every decomposition uses p, so
    # x = p + a with a in S*, and x < c' + m': only p + m, and also 2m + 1
    # when p = m
    gens = list(S.min_generators)
    gens.remove(p)
    return NumericalSemigroup(mask, m, p + 1, _add_generators(
        mask, m, gens, range(p + S.multiplicity, p + 1 + m)))


def _descend(S, cut):
    """Depth-first stream of the subtree at S, children by increasing
    removed generator p > f; nodes of genus ``cut`` are yielded but not
    expanded."""
    stack = [S]
    while stack:
        S = stack.pop()
        yield S
        if S.genus < cut:
            # the generators above f are a suffix: none equals f
            f = S.frobenius
            for p in reversed(S.min_generators):
                if p < f:
                    break
                stack.append(_child(S, p))


def iter_semigroups(g_max: int):
    """Depth-first stream of every semigroup of genus <= g_max.

    Deterministic order: children are visited by increasing removed generator.
    """
    if g_max >= 0:
        yield from _descend(from_generators([1]), g_max)


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
    sample: list = field(default_factory=list)   # gens with the least hash

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
        self.sample += other.sample


def _graph_entry(S, parent, cache):
    """The census entry (m, X, V, sig, key) of S: its multiplicity m, the
    bitmask X of its nonzero Apery elements, the bitmask V of the vertices
    of G(S), the positional signature sig = (n, rows, loops) of G(S) over
    the vertices in increasing order, loops apart, and the canonical key
    of sig, which ``cache`` maps from sig.

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
    m = S.multiplicity
    if parent is not None and parent[0] == m:
        _, x, verts, sig, key = parent
        top = S.conductor - 1 + m       # p + m
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
        x = apery_mask(S.mask, m, S.conductor)
        adjacency = neighbor_masks(x)
        # the same graph over vertex positions, loops apart, for the labeling
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
        verts = sum(position)          # the bits 1 << a of the vertices
        sig = (len(rows), tuple(rows), loops)
    key = cache.get(sig)
    if key is None:
        key = cache[sig] = _canonical_key(*sig)
    return m, x, verts, sig, key


def _tally(nodes, acc: dict[int, GenusCensus], classes: bool,
           cache: dict, sample: int = 0) -> None:
    """Add every node of a preorder stream to the census of its genus in
    acc; ``cache`` maps graph signatures to canonical keys. The ``sample``
    generator tuples of least hash in each genus join its sample."""
    cases: dict = {}        # (genus, first four bucket tests) -> count
    # genus -> entry of the last node streamed there: genus is depth, so a
    # node's parent, when streamed, is the last node one genus up
    path: dict = {}
    heaps: dict = {g: [] for g in acc}      # genus -> [(-hash, gens)]
    for S in nodes:
        g, m, c, gens = S.genus, S.multiplicity, S.conductor, S.min_generators
        n_p = len(gens)
        if n_p * (c - g) < c:           # |L| = c - g
            acc[g].wilf_violations.append(gens)
        case = (g, n_p <= 3, c <= 3 * m, 2 * n_p >= m, 3 * n_p >= m)
        cases[case] = cases.get(case, 0) + 1
        if classes:
            stats = acc[g]
            entry = path[g] = _graph_entry(S, path.get(g - 1), cache)
            key = entry[4]
            stats.class_keys[key] += 1
            rep = stats.class_representatives.get(key)
            if rep is None or gens < rep:
                stats.class_representatives[key] = gens
        if sample:
            heap, h = heaps[g], -hash(gens)
            if len(heap) < sample:
                heappush(heap, (h, gens))
            elif h > heap[0][0]:        # below the largest hash kept
                heapreplace(heap, (h, gens))
    for (g, *hits), count in cases.items():
        acc[g].count_ng += count
        hits.append(any(hits))
        for name in compress(BUCKETS, hits):
            acc[g].buckets[name] += count
    for g, heap in heaps.items():
        acc[g].sample += [gens for _, gens in heap]


def _above(split, frontier):
    """Stream the tree above genus ``split``; the nodes of genus ``split``
    go to ``frontier`` instead."""
    for S in _descend(from_generators([1]), split):
        if S.genus < split:
            yield S
        else:
            frontier.append(S)


def _deal(frontier, workers):
    """Deal the frontier round-robin into about workers * _BATCHES_PER_WORKER
    batches."""
    count = min(len(frontier), workers * _BATCHES_PER_WORKER)
    return [frontier[i::count] for i in range(count)]


# (batches, g_max, classes, cache, sample), set only in a forked pool worker:
# fork hands the batches and the parent's graph-key cache over unpickled, and
# the worker keeps filling its copy of the cache across its batches
_batch_state = None


def _init_worker(*state):
    global _batch_state
    _batch_state = state


def _batch_job(i):
    batches, g_max, classes, cache, sample = _batch_state
    acc = {g: GenusCensus(g) for g in range(batches[i][0].genus, g_max + 1)}
    _tally((S for root in batches[i] for S in _descend(root, g_max)),
           acc, classes, cache, sample)
    return acc


def run_census(g_max: int, workers: int = 1, classes: bool = False,
               sample: int = 0) -> dict[int, GenusCensus]:
    """Census of every genus 0..g_max; deterministic for any worker count.

    With workers > 1 the parent tallies the tree above the frontier genus
    and a fork pool tallies the subtrees below it, in batches. Each genus's
    ``sample`` holds its ``sample`` generator tuples of least hash, in
    increasing hash order (the whole genus when it has fewer).
    """
    if not 0 <= g_max <= GENUS_HARD_CAP:
        raise ValueError(f"genus bound must be within 0..{GENUS_HARD_CAP}, "
                         f"got {g_max}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be within 1..{MAX_WORKERS}, "
                         f"got {workers}")
    if sample < 0:
        raise ValueError(f"sample must be >= 0, got {sample}")
    acc = {g: GenusCensus(g) for g in range(g_max + 1)}
    cache: dict = {}
    split = max(g_max - _SPLIT_DEPTH, _SPLIT_FLOOR)
    if workers == 1 or split >= g_max:
        _tally(_descend(from_generators([1]), g_max), acc, classes, cache,
               sample)
    else:
        frontier: list = []
        _tally(_above(split, frontier), acc, classes, cache, sample)
        batches = _deal(frontier, workers)
        with get_context("fork").Pool(
                workers, _init_worker,
                (batches, g_max, classes, cache, sample)) as pool:
            for part in pool.imap_unordered(_batch_job, range(len(batches))):
                for g, stats in part.items():
                    acc[g].merge(stats)
    # the hash of a tuple of ints does not depend on PYTHONHASHSEED, so the
    # sample is the same at every worker count and in every process
    for stats in acc.values():
        stats.sample = sorted(stats.sample, key=hash)[:sample]
    return acc


@dataclass
class WilfReport:
    """Outcome of the Wilf verification sweep up to a genus bound."""

    total: int
    buckets: Counter                # over BUCKETS, summed over every genus
    per_genus: dict[int, GenusCensus]


def verify_wilf_range(g_max: int, workers: int = 1, sample: int = 0
                      ) -> WilfReport:
    """Check |P||L| >= c over every semigroup of genus <= g_max, drawing
    ``sample`` semigroups per genus as ``run_census`` does.

    Raises WilfCounterexample (with the offending generator lists) if the
    inequality ever fails; that would be a sensational bug.
    """
    acc = run_census(g_max, workers=workers, sample=sample)
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
