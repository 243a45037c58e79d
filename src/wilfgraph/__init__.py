"""Numerical semigroups, their associated loopy graphs, and genus censuses."""

from .apery import AperyAnalysis, analyze, apery_set, depth, report, wilf_w
from .enumeration import (BUCKETS, GENUS_HARD_CAP, GenusCensus, WilfReport,
                          iter_semigroups, run_census, verify_wilf_range)
from .errors import (EmptyGenerators, Infeasible, InconsistentDepths,
                     InvalidTruncation, InvariantViolation, NonCoprimeGenerators,
                     NotAMember, NotEdgeMaximal, RealizationFailed, TooLarge,
                     WilfCounterexample, WilfgraphError, WindowTooSmall)
from .loopy import LoopyGraph, all_loopy_graphs, loopy_complete
from .matching import (MatchingAnalysis, analyze as analyze_matchings,
                       edge_maximal_check, extremal_edge_search, vm)
from .realize import (RealizationPlan, plan_with_offsets, realize,
                      sidon_offsets, verify_realization)
from .semigraph import (WeightAnalysis, build_graph, invariant_report,
                        structural_lemma_suite, tau_bound_holds,
                        weight_analysis)
from .semigroup import (NumericalSemigroup, format_generators,
                        from_generators, from_generators_truncated,
                        parse_generators)

__version__ = "0.1.0"

__all__ = [
    "AperyAnalysis", "BUCKETS", "EmptyGenerators", "GENUS_HARD_CAP",
    "GenusCensus", "Infeasible", "InconsistentDepths", "InvalidTruncation",
    "InvariantViolation", "LoopyGraph", "MatchingAnalysis",
    "NonCoprimeGenerators", "NotAMember", "NotEdgeMaximal",
    "NumericalSemigroup", "RealizationPlan", "TooLarge", "WeightAnalysis",
    "WilfCounterexample", "WilfReport", "WilfgraphError", "WindowTooSmall",
    "all_loopy_graphs", "analyze", "analyze_matchings", "apery_set",
    "build_graph", "depth", "edge_maximal_check", "extremal_edge_search",
    "format_generators", "from_generators", "from_generators_truncated",
    "invariant_report", "iter_semigroups", "loopy_complete",
    "parse_generators", "plan_with_offsets", "realize", "report",
    "run_census", "sidon_offsets", "structural_lemma_suite",
    "tau_bound_holds", "verify_realization", "verify_wilf_range", "vm",
    "weight_analysis", "wilf_w",
]
