"""Per-layer metrics of the traced run, computed from one sample's spans.

Each entry names the end-to-end metric (and workload) it should move, so a
change to one layer can be traced to the number it claims. A layer a workload
never enters reads 0 there: the census workloads make no matching calls, and
graph_tools builds no semigroup tree.
"""

from __future__ import annotations

from spans import SpanStats


def _ratio(num, den):
    return num / den if den else 0.0


def _walk_s(phases):
    # the walk-only census in census_classes, the workers=1 sweep in wilf_sweep
    return phases.get("walk_s", phases.get("sweep_w1_s", 0.0))


def _graph_key_s(st, phases, facts):
    if "census_s" not in phases or "walk_s" not in phases:
        return 0.0
    return phases["census_s"] - phases["walk_s"] - st.total("loopy.canonical")


def _parallel_efficiency(phases):
    if "sweep_w2_s" not in phases:
        return 0.0
    return phases["sweep_w1_s"] / (2 * phases["sweep_w2_s"])


def _hit_ratio(st, facts):
    calls = st.calls("loopy.canonical")
    if not calls or not facts.get("nodes"):
        return 0.0
    return 1 - calls / facts["nodes"]


# name, unit, better, spans it needs, what it should move, value
LAYER_METRICS = (
    ("enumeration.nodes", "count", "higher", (),
     "census_classes.wall_s, wilf_sweep.sweep_w1_s",
     lambda st, ph, f: f.get("nodes", 0)),
    ("enumeration.walk_s", "s", "lower", (),
     "census_classes.wall_s, wilf_sweep.sweep_w1_s",
     lambda st, ph, f: _walk_s(ph)),
    ("enumeration.nodes_per_s", "1/s", "higher", (),
     "census_classes.wall_s, wilf_sweep.sweep_w1_s",
     lambda st, ph, f: _ratio(f.get("nodes", 0), _walk_s(ph))),
    ("enumeration.graph_key_s", "s", "lower", ("loopy.canonical",),
     "census_classes.wall_s", _graph_key_s),
    ("enumeration.parallel_efficiency", "ratio", "higher", (),
     "wilf_sweep.sweep_w2_s", lambda st, ph, f: _parallel_efficiency(ph)),
    ("enumeration.stream_s", "s", "lower", (),
     "invariant_battery.wall_s (predicted small)",
     lambda st, ph, f: st.total("enumeration.stream")),
    ("loopy.canonical_calls", "count", "lower", ("loopy.canonical",),
     "census_classes.wall_s", lambda st, ph, f: st.calls("loopy.canonical")),
    ("loopy.canonical_hit_ratio", "ratio", "higher", ("loopy.canonical",),
     "census_classes.wall_s", lambda st, ph, f: _hit_ratio(st, f)),
    ("loopy.canonical_s", "s", "lower", ("loopy.canonical",),
     "census_classes.wall_s", lambda st, ph, f: st.total("loopy.canonical")),
    ("loopy.canonical_us_p50", "us", "lower", ("loopy.canonical",),
     "census_classes.wall_s",
     lambda st, ph, f: st.quantile_us("loopy.canonical", 0.5)),
    ("loopy.canonical_us_p99", "us", "lower", ("loopy.canonical",),
     "census_classes.wall_s",
     lambda st, ph, f: st.quantile_us("loopy.canonical", 0.99)),
    ("loopy.catalog_s", "s", "lower", ("loopy.catalog",),
     "graph_tools.extremal_s", lambda st, ph, f: st.total("loopy.catalog")),
    ("loopy.catalog_calls", "count", "lower",
     ("loopy.catalog", "loopy.canonical"), "graph_tools.extremal_s",
     lambda st, ph, f: st.child_calls["loopy.catalog", "loopy.canonical"]),
    ("loopy.catalog_kept_ratio", "ratio", "higher",
     ("loopy.catalog", "loopy.canonical"), "graph_tools.extremal_s",
     lambda st, ph, f: _ratio(
         f.get("catalog_size", 0),
         st.child_calls["loopy.catalog", "loopy.canonical"])),
    ("apery.analyze_us", "us", "lower", ("apery.analyze",),
     "invariant_battery.wall_s",
     lambda st, ph, f: st.quantile_us("apery.analyze", 0.5)),
    ("semigraph.build_graph_us", "us", "lower", ("semigraph.build_graph",),
     "invariant_battery.wall_s, graph_tools.realize_s",
     lambda st, ph, f: st.quantile_us("semigraph.build_graph", 0.5)),
    ("semigraph.weight_analysis_us", "us", "lower",
     ("semigraph.weight_analysis",), "invariant_battery.wall_s",
     lambda st, ph, f: st.quantile_us("semigraph.weight_analysis", 0.5)),
    ("semigraph.lemma_suite_us", "us", "lower", ("semigraph.lemma_suite",),
     "invariant_battery.wall_s",
     lambda st, ph, f: st.quantile_us("semigraph.lemma_suite", 0.5)),
    ("semigraph.report_self_us", "us", "lower",
     ("semigraph.invariant_report", "apery.analyze", "semigraph.build_graph",
      "semigraph.weight_analysis", "semigraph.lemma_suite",
      "matching.analyze"), "invariant_battery.wall_s",
     lambda st, ph, f: st.quantile_us("semigraph.invariant_report", 0.5,
                                      self_time=True)),
    ("matching.analyze_us", "us", "lower", ("matching.analyze",),
     "invariant_battery.wall_s, graph_tools.synthetic_s",
     lambda st, ph, f: st.quantile_us("matching.analyze", 0.5)),
    ("matching.vm_s", "s", "lower", ("matching.vm",),
     "graph_tools.extremal_s", lambda st, ph, f: st.total("matching.vm")),
    ("matching.solves_per_graph", "ratio", "lower",
     ("matching.solve", "matching.analyze", "matching.vm"),
     "invariant_battery.wall_s, graph_tools.synthetic_s",
     lambda st, ph, f: _ratio(
         st.calls("matching.solve"),
         st.calls("matching.analyze") + st.calls("matching.vm"))),
    ("matching.bb_calls", "count", "lower", ("matching.bb",),
     "invariant_battery.wall_s, graph_tools.synthetic_s",
     lambda st, ph, f: st.calls("matching.bb")),
    ("matching.blossom_calls", "count", "lower", ("matching.blossom",),
     "graph_tools.synthetic_s", lambda st, ph, f: st.calls("matching.blossom")),
    ("matching.blossom_s", "s", "lower", ("matching.blossom",),
     "graph_tools.synthetic_s", lambda st, ph, f: st.total("matching.blossom")),
    ("realize.realize_us", "us", "lower", ("realize.realize",),
     "graph_tools.realize_s",
     lambda st, ph, f: st.quantile_us("realize.realize", 0.5)),
    ("realize.verify_us", "us", "lower", ("realize.verify",),
     "graph_tools.realize_s",
     lambda st, ph, f: st.quantile_us("realize.verify", 0.5)),
    ("semigroup.sieve_us", "us", "lower", ("semigroup.sieve",),
     "graph_tools.realize_s",
     lambda st, ph, f: st.quantile_us("semigroup.sieve", 0.5)),
)


def layer_metrics(st: SpanStats, missing_spans, phases, facts
                  ) -> dict[str, float]:
    """Every per-layer metric whose wrapped names exist in the library."""
    return {name: float(value(st, phases, facts))
            for name, _unit, _better, needs, _moves, value in LAYER_METRICS
            if not missing_spans.intersection(needs)}
