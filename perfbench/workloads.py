"""The four workloads: inputs, timed phases and output checks.

All four are exhaustive, so the paper's tables check their outputs; only
graph_tools draws inputs from the seed. A body runs its phases through
``run.phase`` (timed, and traced in traced samples) and returns its outputs;
a check runs after the timed region and returns one verdict per operation
plus the facts the per-layer metrics need. ``memo`` holds oracle answers
that the samples of one run share: their inputs are the same, so the brute
force oracle runs once per run and every sample is checked against it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# n_g for g = 1..22 and gamma_g for g = 1..20 (the paper's census tables)
NG_TABLE = (1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693,
            2857, 4806, 8045, 13467, 22464, 37396, 62194, 103246)
GAMMA_TABLE = (1, 1, 2, 3, 4, 6, 11, 15, 27, 41, 66, 115, 190, 322, 569,
               1014, 1761, 3107, 5475, 9621)
# A000666(n): graphs with loops on n vertices, isolated vertices allowed;
# the loopy graphs on exactly n vertices number A000666(n) - A000666(n - 1)
A000666 = (1, 2, 6, 20, 90, 544, 5096)

WHY = {
    "census_classes": (
        "run_census(20, workers=1, classes=True): the heaviest job users run "
        "and the class table of the paper. About 80% of its time is in "
        "building the G(S) key and in canonical labeling, with an 80% cache "
        "hit rate on graphs of up to 18 vertices, so bit-parallel G(S) and "
        "faster refinement show here."),
    "wilf_sweep": (
        "verify_wilf_range(22) at workers=1 and workers=2: it only walks and "
        "tallies, never builds G(S) or labels a graph, so it is the bypass "
        "for G(S) and labeling changes (predicted: no change) and the only "
        "place the parallel split and the walker merge show."),
    "invariant_battery": (
        "invariant_report on every semigroup of genus <= 15: exercises "
        "apery, semigraph and matching branch-and-bound on small graphs and "
        "never reaches the census key or canonical labeling; the "
        "per-semigroup cost an exhaustive verify multiplies."),
    "graph_tools": (
        "no semigroup tree: extremal_edge_search(6, 4) with the catalog "
        "cache cold, realize on all 454 five-vertex loopy graphs, and "
        "analyze_matchings on 40 seeded graphs on both sides of the 24-edge "
        "solver switch. Canonical labeling here is all misses on small dense "
        "graphs, where the census mostly hits its cache."),
}

# extremal_edges: the most edges on catalog_n vertices with vm = vm (two
# loopy hubs joined to every other vertex); each witness is re-checked with
# the brute-force matching oracle
FULL = {
    "census_classes": {"genus": 20},
    "wilf_sweep": {"genus": 22},
    "invariant_battery": {"genus": 15},
    "graph_tools": {"catalog_n": 6, "vm": 4, "extremal_edges": 11,
                    "realize_n": 5, "synthetic": 40},
}
# the harness self-check runs every workload at this size
TINY = {
    "census_classes": {"genus": 10},
    "wilf_sweep": {"genus": 12},
    "invariant_battery": {"genus": 8},
    "graph_tools": {"catalog_n": 4, "vm": 3, "extremal_edges": 5,
                    "realize_n": 3, "synthetic": 4},
}


@dataclass(frozen=True)
class Workload:
    body: Callable
    check: Callable
    traced_extra: Callable | None = None


# -- census_classes ------------------------------------------------------


def _census_body(lib, size, seed, run):
    with run.phase("census_s"):
        census = lib.enumeration.run_census(size["genus"], workers=1,
                                            classes=True)
    return census


def _census_walk_only(lib, size, run):
    # enumeration.graph_key_s = classes run - walk - canonical labeling
    with run.phase("walk_s", timed=False):
        lib.enumeration.run_census(size["genus"], workers=1, classes=False)


def _census_check(lib, size, census, memo):
    verdicts = []
    for g in range(1, size["genus"] + 1):
        row = census[g]
        verdicts.append((f"genus {g}",
                         row.count_ng == NG_TABLE[g - 1]
                         and row.class_count_gamma == GAMMA_TABLE[g - 1]
                         and not row.wilf_violations))
    return verdicts, {"nodes": sum(row.count_ng for row in census.values())}


# -- wilf_sweep -------------------------------------------------------------


def _wilf_body(lib, size, seed, run):
    reports = []
    for workers in (1, 2):
        with run.phase(f"sweep_w{workers}_s", parallel=workers > 1):
            try:
                reports.append(lib.enumeration.verify_wilf_range(
                    size["genus"], workers=workers))
            except lib.errors.WilfCounterexample as exc:
                reports.append(exc)
    return reports


def _wilf_check(lib, size, reports, memo):
    w1, w2 = reports
    if isinstance(w1, Exception) or isinstance(w2, Exception):
        return [("Wilf sweep", False)], {"nodes": 0}
    verdicts = []
    for g in range(size["genus"] + 1):
        row = w1.per_genus[g]
        verdicts.append((f"genus {g}",
                         vars(row) == vars(w2.per_genus[g])
                         and (g == 0 or row.count_ng == NG_TABLE[g - 1])
                         and not row.wilf_violations))
    return verdicts, {"nodes": w1.total}


# -- invariant_battery ---------------------------------------------------


def _battery_body(lib, size, seed, run):
    with run.phase("battery_s"):
        stream = run.iterate("enumeration.stream",
                             lib.enumeration.iter_semigroups(size["genus"]))
        report = lib.semigraph.invariant_report
        return [(S.min_generators, report(S)) for S in stream]


def _battery_check(lib, size, reports, memo):
    expected = 1 + sum(NG_TABLE[:size["genus"]])
    verdicts = [("semigroup count", len(reports) == expected)]
    verdicts += [(f"semigroup {gens}", all(checks.values()))
                 for gens, checks in reports]
    return verdicts, {"nodes": len(reports)}


# -- graph_tools -------------------------------------------------------------


def _edge_schedule(count):
    """16..24 edges for the first half, 25..40 for the second, evenly."""
    half = count // 2
    low = [16 + round(i * 8 / max(1, half - 1)) for i in range(half)]
    rest = count - half
    high = [25 + round(i * 15 / max(1, rest - 1)) for i in range(rest)]
    return low + high


def synthetic_graphs(lib, rng, count):
    """Seeded loopy graphs on 10 vertices with 16-40 edges, half on each
    side of the solver switch, each with a random 35% of its edges weak.

    Only the edges drawn depend on the seed; the edge and vertex counts are
    fixed, so the solver memo sizes, and with them time and memory, vary
    little between seeds.
    """
    graphs = []
    for edges in _edge_schedule(count):
        pairs = [(a, b) for a in range(10) for b in range(a, 10)]
        rng.shuffle(pairs)
        chosen = pairs[:edges]
        touched = sorted({v for e in chosen for v in e})
        relabel = {v: j for j, v in enumerate(touched)}
        G = lib.loopy.LoopyGraph(
            range(len(touched)),
            [(relabel[a], relabel[b]) for a, b in chosen if a != b],
            [relabel[a] for a, b in chosen if a == b])
        weak = frozenset(e for e in G.all_edges() if rng.random() < 0.35)
        graphs.append((G, weak))
    return graphs


def _graph_tools_body(lib, size, seed, run):
    with run.phase("extremal_s"):
        best, witnesses = lib.matching.extremal_edge_search(size["catalog_n"],
                                                            size["vm"])
    targets = lib.loopy.all_loopy_graphs(size["realize_n"])
    with run.phase("realize_s"):
        plans = [lib.realize.realize(G) for G in targets]
    graphs = synthetic_graphs(lib, random.Random(seed), size["synthetic"])
    with run.phase("synthetic_s"):
        analyses = [lib.matching.analyze(G, weak) for G, weak in graphs]
    return best, witnesses, targets, plans, graphs, analyses


def _graph_tools_check(lib, size, outputs, memo):
    from oracles import brute_matching_stats

    best, witnesses, targets, plans, graphs, analyses = outputs
    n, k = size["catalog_n"], size["vm"]
    catalog = lib.loopy.all_loopy_graphs(n)
    verdicts = [
        ("catalog size", len(catalog) == A000666[n] - A000666[n - 1]),
        ("extremal", best == size["extremal_edges"] and witnesses and all(
            G.edge_count == best and brute_matching_stats(G)[0] == k
            for G in witnesses)),
        ("realize targets", len(targets) == A000666[size["realize_n"]]
         - A000666[size["realize_n"] - 1]),
    ]
    verdicts += [(f"realize {G!r}",
                  plan.target == G and plan.certificate()["verified"])
                 for G, plan in zip(targets, plans)]
    for (G, weak), ma in zip(graphs, analyses):
        key = f"{G!r} weak {sorted(weak)!r}"
        if key not in memo:
            memo[key] = list(brute_matching_stats(G, weak)[:2])
        verdicts.append((f"matching {G!r}", [ma.vm, ma.nu] == memo[key]))
    return verdicts, {"catalog_size": len(catalog)}


WORKLOADS = {
    "census_classes": Workload(_census_body, _census_check, _census_walk_only),
    "wilf_sweep": Workload(_wilf_body, _wilf_check),
    "invariant_battery": Workload(_battery_body, _battery_check),
    "graph_tools": Workload(_graph_tools_body, _graph_tools_check),
}
