"""Loopy graphs: finite graphs with loops, no multi-edges, no isolated vertices.

Provides the graph type, JSON/DOT serialization, canonical labeling (loop
status acts as a vertex color), and an isomorph-rejected catalog of all
loopy graphs on few vertices.
"""

from __future__ import annotations

from .errors import InvariantViolation, TooLarge
from .semigroup import bit_positions

# Genus-20 censuses produce associated graphs on up to 18 vertices, so the
# canonical-labeling cap leaves headroom beyond that.
_MAX_CANONICAL = 32
_MAX_CATALOG = 6


class LoopyGraph:
    """Undirected graph with optional loops; every vertex meets an edge.

    Stored over vertex positions, the vertices sorted: row i of ``_adj``
    holds the positions adjacent to vertex i, never i itself, and
    ``_loopmask`` the loopy positions. ``true_edges`` (sorted 2-tuples of
    distinct vertices) and ``loops`` are read off that form. Vertex labels
    only need to be sortable and hashable; associated graphs of semigroups
    use the Apery elements themselves.
    """

    __slots__ = ("vertices", "_pos", "_adj", "_loopmask")

    def __init__(self, vertices, true_edges=(), loops=()):
        self.vertices = tuple(sorted(set(vertices)))
        pos = self._pos = {v: i for i, v in enumerate(self.vertices)}
        adj = [0] * len(self.vertices)
        for a, b in true_edges:
            if a == b:
                raise ValueError(f"loop {a!r} passed as a true edge")
            if a not in pos or b not in pos:
                raise ValueError(f"edge ({a!r}, {b!r}) leaves the vertex set")
            adj[pos[a]] |= 1 << pos[b]
            adj[pos[b]] |= 1 << pos[a]
        loopmask = 0
        for v in loops:
            if v not in pos:
                raise ValueError("loop at a vertex outside the vertex set")
            loopmask |= 1 << pos[v]
        isolated = [v for i, v in enumerate(self.vertices)
                    if not adj[i] and not loopmask >> i & 1]
        if isolated:
            raise ValueError(f"isolated vertices not allowed: {isolated}")
        self._adj = tuple(adj)
        self._loopmask = loopmask

    @classmethod
    def _from_rows(cls, vertices: tuple, rows, loopmask: int) -> "LoopyGraph":
        """The graph with the positional form given, unchecked: ``vertices``
        sorted and distinct, row i the positions adjacent to vertex i (never
        i itself, and symmetric), and every vertex meeting an edge."""
        G = cls.__new__(cls)
        G.vertices = vertices
        G._pos = {v: i for i, v in enumerate(vertices)}
        G._adj = tuple(rows)
        G._loopmask = loopmask
        return G

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def true_edges(self) -> frozenset:
        return frozenset(self.all_edges()[:self.edge_count - self.loop_count])

    @property
    def loops(self) -> frozenset:
        return frozenset(self.vertices[i]
                         for i in bit_positions(self._loopmask))

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._adj) // 2 + self.loop_count

    @property
    def loop_count(self) -> int:
        return self._loopmask.bit_count()

    def _pairs(self) -> list[tuple[int, int]]:
        """The edges as position pairs (i, j), i <= j: the true edges in
        order, then the loops."""
        pairs = []
        for i, row in enumerate(self._adj):
            row >>= i + 1
            while row:
                low = row & -row
                pairs.append((i, i + low.bit_length()))
                row ^= low
        return pairs + [(i, i) for i in bit_positions(self._loopmask)]

    def all_edges(self) -> list[tuple]:
        """True edges plus loops, a loop at v appearing as (v, v). Sorted:
        the true edges, then the loops, as positions are monotone in labels."""
        verts = self.vertices
        return [(verts[i], verts[j]) for i, j in self._pairs()]

    def neighbors(self, v) -> set:
        """N(v): adjacent vertices, including v itself when v is loopy."""
        i = self._pos[v]
        return {self.vertices[j]
                for j in bit_positions(self._adj[i] | self._loopmask & 1 << i)}

    def degree(self, v) -> int:
        i = self._pos[v]
        return self._adj[i].bit_count() + (self._loopmask >> i & 1)

    def has_edge(self, a, b) -> bool:
        i, j = self._pos.get(a), self._pos.get(b)
        return (i is not None and j is not None
                and (self._adj[i] | self._loopmask & 1 << i) >> j & 1 == 1)

    def __eq__(self, other):
        if not isinstance(other, LoopyGraph):
            return NotImplemented
        return (self.vertices == other.vertices
                and self._adj == other._adj
                and self._loopmask == other._loopmask)

    def __hash__(self):
        return hash((self.vertices, self._adj, self._loopmask))

    def __repr__(self):
        return (f"LoopyGraph(n={self.n}, edges={sorted(self.true_edges)}, "
                f"loops={sorted(self.loops)})")

    # -- derived graphs ------------------------------------------------------

    def with_edge(self, a, b) -> "LoopyGraph":
        if a == b:
            return LoopyGraph(self.vertices, self.true_edges,
                              set(self.loops) | {a})
        return LoopyGraph(self.vertices, set(self.true_edges) | {(a, b)},
                          self.loops)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in sorted(self.true_edges)],
            "loops": sorted(self.loops),
        }

    @classmethod
    def from_json(cls, data) -> "LoopyGraph":
        """Inverse of to_json; raises ValueError on malformed input."""
        if not isinstance(data, dict) or "vertices" not in data:
            raise ValueError('graph JSON must be an object with "vertices"')
        fields = [data["vertices"], data.get("edges", []),
                  data.get("loops", [])]
        for name, value in zip(("vertices", "edges", "loops"), fields):
            if not isinstance(value, list):
                raise ValueError(f'graph JSON "{name}" must be a list')
        for e in fields[1]:
            if not isinstance(e, list) or len(e) != 2:
                raise ValueError(f"graph JSON edge {e!r} is not a pair")
        try:
            return cls(fields[0], [tuple(e) for e in fields[1]], fields[2])
        except TypeError as exc:    # unhashable or incomparable labels
            raise ValueError(f"graph JSON labels: {exc}") from None

    def to_dot(self, weak=(), active=()) -> str:
        """Graphviz source; loops as self-edges, weak dashed, active bold."""
        weak = set(weak)
        active = set(active)
        lines = ["graph G {"]
        for v in self.vertices:
            lines.append(f"  {_dot_id(v)};")
        for e in self.all_edges():
            attrs = []
            if e in weak:
                attrs.append("style=dashed")
            if e in active:
                attrs.append("penwidth=2.0")
            suffix = f" [{', '.join(attrs)}]" if attrs else ""
            lines.append(f"  {_dot_id(e[0])} -- {_dot_id(e[1])}{suffix};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def canonical_key(self) -> str:
        """Relabeling-invariant key; equal keys iff loopy-isomorphic graphs."""
        return _canonical_key(self.n, self._adj, self._loopmask)


def _dot_id(v) -> str:
    """v as a quoted DOT ID, its backslashes and double quotes escaped."""
    return '"' + str(v).replace("\\", "\\\\").replace('"', '\\"') + '"'


def loopy_complete(n: int) -> LoopyGraph:
    """LK_n: complete graph on 0..n-1 with a loop at every vertex."""
    verts = range(n)
    return LoopyGraph(verts, [(i, j) for i in verts for j in verts if i < j],
                      verts)


# -- canonical labeling ------------------------------------------------------
#
# Individualization-refinement over the partition by (loop status, degree),
# with orbit pruning from automorphisms discovered at equal leaves. The key is
# the minimum adjacency encoding over the leaves of the search tree; it fully
# encodes the graph, so equal keys always decode to isomorphic graphs.
# A branch on v is also skipped when an explored u in its cell (so of equal
# loop status) is its twin, rows equal outside {u, v}: (u v) then fixes the
# base and maps u's subtree onto v's, leaf encodings included. Both prunings
# drop only repeated encodings, so the minimum, the key, is unchanged.
#
# A twin class C, a cell of pairwise twins, is never branched on. The twins
# of one vertex a are pairwise twins (a ~ b, a !~ c would put b in N(a) =
# N(c), then c in N[b] = N[a]), so C is a module, a clique or independent
# set inside. No splitter splits C, {c} splits as C does, and C - {c} sees
# c alike, so in an equitable partition individualizing c in C splits
# nothing, before or after other branches. Branching on C walks it in cell
# order, the twin rule pruning every sibling, and other orders of C,
# products of twin swaps, encode the same. So the target is the first cell
# of two or more vertices that is not a twin class, and a partition, the
# root's included, with none is a leaf.


def _refine(cells, adj):
    # Two shortcuts that return the partition the plain loop returns: a
    # discrete partition comes back at once, as no splitter splits a cell
    # of one vertex; and a cell splits, into its count groups in increasing
    # order, exactly when some vertex's count differs from its first one's,
    # so the groups are built only then.
    n = len(adj)
    while len(cells) < n:
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
                first = (adj[cell[0]] & smask).bit_count()
                for v in cell:
                    if (adj[v] & smask).bit_count() != first:
                        break
                else:
                    new_cells.append(cell)
                    continue
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                changed = True
                for count in sorted(groups):
                    new_cells.append(groups[count])
            cells = new_cells
            if changed:
                break
        if not changed:
            return cells
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


def _twin_class(cell, adj) -> bool:
    a, row = cell[0], adj[cell[0]]
    for b in cell[1:]:
        if row & ~(1 << b) != adj[b] & ~(1 << a):
            return False
    return True


def _target(cells, adj):
    return next((k for k, cell in enumerate(cells)
                 if len(cell) > 1 and not _twin_class(cell, adj)), None)


def check_vertex_count(n: int) -> None:
    """Raise TooLarge if canonical labeling does not take n vertices."""
    if n > _MAX_CANONICAL:
        raise TooLarge(f"canonical labeling supports at most {_MAX_CANONICAL} "
                       f"vertices, got {n}")


def _canonical_key(n, adj, loopmask) -> str:
    check_vertex_count(n)
    if n == 0:
        return "0:0:0"

    by_color: dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        key = (loopmask >> v & 1, adj[v].bit_count())
        by_color.setdefault(key, []).append(v)
    cells = _refine([by_color[k] for k in sorted(by_color)], adj)
    if _target(cells, adj) is None:     # a leaf: its encoding is the key
        enc = _encode([v for cell in cells for v in cell], adj, loopmask)
        return f"{n}:{enc[0]:x}:{enc[1]:x}"

    best: tuple[int, int] | None = None
    first: tuple[tuple[int, ...], tuple[int, int]] | None = None
    aut_gens: list[list[int]] = []

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
        target = _target(cells, adj)
        if target is None:
            visit_leaf(tuple(v for cell in cells for v in cell))
            return
        cell = cells[target]
        explored, fixing, filtered = [], [], 0
        for v in cell:
            if any(adj[u] & ~(1 << v) == adj[v] & ~(1 << u) for u in explored):
                continue                # v is the twin of an explored u
            fixing += [g for g in aut_gens[filtered:]   # new ones fixing base
                       if all(g[b] == b for b in base)]
            filtered = len(aut_gens)
            if fixing and any(_same_orbit(v, u, fixing, n) for u in explored):
                continue
            explored.append(v)
            rest = [u for u in cell if u != v]
            branched = cells[:target] + [[v], rest] + cells[target + 1:]
            search(_refine(branched, adj), base + (v,))

    search(cells, ())
    if best is None:
        raise InvariantViolation("canonical search reached no leaf")
    return f"{n}:{best[0]:x}:{best[1]:x}"


# -- catalog of all loopy graphs --------------------------------------------


_catalog_cache: dict[int, tuple[LoopyGraph, ...]] = {}


def all_loopy_graphs(n: int) -> tuple[LoopyGraph, ...]:
    """All loopy graphs on exactly n vertices, one per isomorphism class.

    Built by vertex augmentation with canonical-key rejection, keeping the
    first-seen child of each class. Intermediate levels keep isolated
    vertices (any graph arises by deleting its last vertex); the final level
    skips a child with one before labeling it, as its whole class has one
    and is left out. Skipping a neighbor set with j but not its twin i < j
    (same loop bit, rows equal outside {i, j}) keeps every representative:
    swapping i, j gives a smaller set, seen first.
    """
    if n < 0 or n > _MAX_CATALOG:
        raise ValueError(f"catalog supports 0 <= n <= {_MAX_CATALOG}, got {n}")
    if n in _catalog_cache:
        return _catalog_cache[n]

    level: dict[str, tuple[tuple[int, ...], int]] = {"0:0:0": ((), 0)}
    for k in range(1, n + 1):
        nxt: dict[str, tuple[tuple[int, ...], int]] = {}
        new_bit = 1 << (k - 1)
        for adj, loopmask in level.values():
            twins = [(1 << i | 1 << j, 1 << j) for j in range(k - 1)
                     for i in range(j) if loopmask >> i & 1 == loopmask >> j & 1
                     and adj[i] & ~(1 << j) == adj[j] & ~(1 << i)]
            cover = sum(1 << v for v in range(k - 1) if not adj[v]
                        and not loopmask >> v & 1) if k == n else 0
            for nbrs in range(1 << (k - 1)):
                if ~nbrs & cover or any(nbrs & p == bj for p, bj in twins):
                    continue
                grown = tuple([row | new_bit if nbrs >> i & 1 else row
                               for i, row in enumerate(adj)] + [nbrs])
                for loop in (0, new_bit) if nbrs or k < n else (new_bit,):
                    lm = loopmask | loop
                    key = _canonical_key(k, grown, lm)
                    if key not in nxt:
                        nxt[key] = (grown, lm)
        level = nxt

    _catalog_cache[n] = tuple(LoopyGraph._from_rows(tuple(range(n)), *level[k])
                              for k in sorted(level))
    return _catalog_cache[n]
