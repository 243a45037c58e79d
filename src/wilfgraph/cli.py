"""Command-line front door.

Subcommands: info, graph, enumerate, verify, realize, extremal. Exit codes:
0 success, 1 usage error, 2 invariant failure (e.g. a hypothetical Wilf
violation), 3 I/O error; each WilfgraphError class declares its own code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import apery, enumeration, matching, semigraph
from .realize import realize as _realize
from .errors import WilfgraphError
from .loopy import LoopyGraph
from .semigroup import (NumericalSemigroup, format_generators,
                        from_generators, from_generators_truncated,
                        parse_generators)

# verify's table labels, one per enumeration.BUCKETS entry
_BUCKET_LABELS = ("|P| <= 3", "q <= 3", "|P| >= m/2", "|P| >= m/3",
                  "any of these")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wilfgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gens_help = 'generator list, e.g. "12,13"; "12,13|t=30" truncates at t'

    def add_common(p, formats):
        p.add_argument("--format", dest="fmt", choices=formats,
                       default=formats[0])
        p.add_argument("--out", help="write output to this path")

    p = sub.add_parser("info", help="core and Apery invariants of one semigroup")
    p.add_argument("--gens", required=True, help=gens_help)
    add_common(p, ["table", "json"])

    p = sub.add_parser("graph", help="associated graph and matching summary")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--gens", help=gens_help)
    source.add_argument("--graph", dest="graph_file",
                        help="synthetic loopy graph in JSON form")
    add_common(p, ["table", "dot", "json"])

    p = sub.add_parser("enumerate", help="genus census n_g (and classes)")
    p.add_argument("--genus-max", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--classes", action="store_true",
                   help="also count graph-equivalence classes")
    add_common(p, ["table", "csv", "json"])

    p = sub.add_parser("verify", help="Wilf inequality and invariant suite "
                       f"(all to genus {enumeration.EXHAUSTIVE_GENUS}, "
                       "3|P| < m beyond)")
    p.add_argument("--genus-max", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    add_common(p, ["table", "json"])

    p = sub.add_parser("realize", help="semigroup whose graph matches the input")
    p.add_argument("--graph", dest="graph_file", required=True)
    add_common(p, ["table", "json"])

    p = sub.add_parser("extremal", help="max edges of loopy graphs with vm = k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lambda_", type=int, default=None,
                   help="restrict to graphs with this many loops")
    add_common(p, ["table", "dot"])
    return parser


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _semigroup(args) -> NumericalSemigroup:
    gens, trunc = parse_generators(args.gens)
    if trunc is None:
        return from_generators(gens)
    return from_generators_truncated(gens, trunc)


def cmd_info(args) -> int:
    S = _semigroup(args)
    data = apery.report(S)      # analyze checks W against |P||L| - c
    data["W_apery"] = data["W"]
    data["wilf_holds"] = data["W"] >= 0
    data["P_ge_m_over_3"] = 3 * len(S.min_generators) >= S.multiplicity
    if args.fmt == "json":
        _emit(json.dumps(data, indent=2, sort_keys=True), args.out)
        return 0
    lines = [f"S = <{format_generators(S)}>"]
    for key in ("m", "f", "c", "g", "q", "rho", "L_size", "tau_X"):
        lines.append(f"  {key:<8} {data[key]}")
    lines.append(f"  P        {data['P']}")
    lines.append(f"  X        {data['X']}")
    lines.append(f"  X cap D  {data['X_cap_D']}")
    lines.append(f"  W(S)     {data['W']}  (|P||L| - c)")
    lines.append(f"  W(S)     {data['W']}  (|P| tau(X) - |X cap D| q + rho)")
    lines.append(f"  Wilf holds: {'yes' if data['wilf_holds'] else 'NO'}")
    lines.append(f"  |P| >= m/3: {'yes' if data['P_ge_m_over_3'] else 'no'}")
    _emit("\n".join(lines), args.out)
    return 0


def _load_graph(path: str) -> LoopyGraph:
    with open(path) as fh:
        try:
            return LoopyGraph.from_json(json.load(fh))
        except RecursionError:      # json.load on deeply nested arrays
            raise ValueError("graph JSON nests too deeply") from None


def cmd_graph(args) -> int:
    if args.gens is None:
        G = _load_graph(args.graph_file)
        weak: frozenset = frozenset()
    else:
        S = _semigroup(args)
        ap = apery.analyze(S)
        # the edge weights of G(S) map onto X n D, so |E| >= |X n D|
        matching.check_edge_count(len(ap.x_decomposable))
        G = semigraph.build_graph(S)
        weak = semigraph.weight_analysis(G, ap).weak
    ma = matching.analyze(G, weak)
    summary = {
        "vertices": G.n,
        "edges": G.edge_count,
        "k": ma.vm,
        "lambda": G.loop_count,
        "nu": ma.nu,
        "weak": len(weak),
        "active": len(ma.active_edges),
    }
    if args.fmt == "dot":
        _emit(G.to_dot(weak=weak, active=ma.active_edges), args.out)
        return 0
    if args.fmt == "json":
        payload = G.to_json()
        payload["analysis"] = summary
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return 0
    lines = []
    if G.n == 0:
        lines.append("empty graph (maximal embedding dimension semigroup)"
                     if args.gens is not None else "empty graph")
    lines.append(f"vertices {G.n}, edges {G.edge_count} "
                 f"({G.edge_count - G.loop_count} true + {G.loop_count} loops)")
    lines.append(f"vm k = {ma.vm}, lambda = {G.loop_count}, nu = {ma.nu}")
    lines.append(f"|E0| = {len(weak)} weak, "
                 f"|E+| = {len(ma.active_edges)} active")
    if G.n:
        lines.append(f"loops at {sorted(G.loops)}")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_enumerate(args) -> int:
    result = enumeration.run_census(args.genus_max, workers=args.workers,
                                    classes=args.classes)
    records = {}
    for g, stats in result.items():
        frac = stats.p_ge_third_fraction
        item = {
            "n_g": stats.count_ng,
            "wilf_violations": len(stats.wilf_violations),
            "frac_P_ge_m3": {"num": frac.numerator, "den": frac.denominator,
                             "decimal": f"{float(frac):.6f}"},
        }
        if args.classes:
            item["gamma_g"] = stats.class_count_gamma
            item["classes"] = {
                key: {"count": stats.class_keys[key],
                      "representative": list(stats.class_representatives[key])}
                for key in sorted(stats.class_keys)
            }
        records[g] = item
    if args.fmt == "json":
        payload = {str(g): item for g, item in records.items()}
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return 0
    rows = [(g, r["n_g"], r.get("gamma_g", ""), r["wilf_violations"],
             r["frac_P_ge_m3"]["decimal"]) for g, r in records.items()]
    if args.fmt == "csv":
        lines = ["g,n_g,gamma_g,wilf_violations,frac_P_ge_m3"]
        lines += [",".join(map(str, row)) for row in rows]
    else:
        lines = [f"{'g':>3} {'n_g':>9} {'gamma_g':>9} {'wilf_viol':>9} "
                 f"{'frac |P|>=m/3':>14}"]
        lines += [f"{g:>3} {n:>9} {str(gamma):>9} {viol:>9} {frac:>14}"
                  for g, n, gamma, viol, frac in rows]
    _emit("\n".join(lines), args.out)
    return 0


def cmd_verify(args) -> int:
    report = enumeration.verify_wilf_range(args.genus_max, workers=args.workers,
                                           battery=True)
    checked = sum(stats.invariants_checked
                  for stats in report.per_genus.values())
    failures = [f"genus {g} {gens}: {bad}"
                for g, stats in report.per_genus.items()
                for gens, bad in stats.invariant_failures]
    # a Wilf violation raises WilfCounterexample, so none reach this point
    data = {
        "genus_max": args.genus_max,
        "semigroups": report.total,
        "wilf_violations": 0,
        "invariants_checked": checked,
        "invariant_failures": failures,
    }
    data.update((f"bucket_{name}", report.buckets[name])
                for name in enumeration.BUCKETS)
    if args.fmt == "json":
        _emit(json.dumps(data, indent=2, sort_keys=True), args.out)
    else:
        lines = [
            f"semigroups up to genus {args.genus_max}: {report.total}",
            "Wilf violations: 0",
            f"invariant suite: {checked} checked (every genus <= "
            f"{enumeration.EXHAUSTIVE_GENUS}, 3|P| < m beyond), "
            f"{len(failures)} failures",
            "known-case buckets (overlapping):",
        ]
        lines += [f"  {label:<14}{report.buckets[name]}"
                  for label, name in zip(_BUCKET_LABELS, enumeration.BUCKETS)]
        lines += [f"  FAILURE {f}" for f in failures]
        _emit("\n".join(lines), args.out)
    return 2 if failures else 0


def cmd_realize(args) -> int:
    G = _load_graph(args.graph_file)
    plan = _realize(G)      # raises RealizationFailed if it does not verify
    cert = plan.certificate()
    if args.fmt == "json":
        _emit(json.dumps(cert, indent=2, sort_keys=True), args.out)
        return 0
    lines = [
        f"gens: {format_generators(plan.result)}|t={2 * plan.multiplicity}",
        f"m = {plan.multiplicity}, offsets = {list(plan.offsets)}, "
        f"erased = {list(plan.erase_generators)}",
        f"certificate: {json.dumps(cert, sort_keys=True)}",
    ]
    _emit("\n".join(lines), args.out)
    return 0


def cmd_extremal(args) -> int:
    best, witnesses = matching.extremal_edge_search(args.n, args.k, args.lambda_)
    if args.fmt == "dot":
        if args.out is not None:
            # one DOT file per witness under the output directory
            os.makedirs(args.out, exist_ok=True)
            for i, w in enumerate(witnesses):
                with open(os.path.join(args.out, f"witness_{i}.dot"), "w") as fh:
                    fh.write(w.to_dot())
            print(f"wrote {len(witnesses)} witness files to {args.out}")
        else:
            _emit("\n".join(w.to_dot() for w in witnesses), None)
        return 0
    lines = [f"max edges = {best} over loopy graphs with n={args.n}, k={args.k}"
             + (f", lambda={args.lambda_}" if args.lambda_ is not None else ""),
             f"witnesses: {len(witnesses)}"]
    for w in witnesses:
        lines.append(f"  edges={sorted(w.true_edges)} loops={sorted(w.loops)}")
    _emit("\n".join(lines), args.out)
    return 0


_COMMANDS = {
    "info": cmd_info,
    "graph": cmd_graph,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "realize": cmd_realize,
    "extremal": cmd_extremal,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (WilfgraphError, ValueError) as exc:
        code = getattr(exc, "exit_code", 1)
        label = ("usage error" if code == 1
                 else f"invariant failure: {type(exc).__name__}")
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
