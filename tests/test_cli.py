import json
import os
import time
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wilfgraph import NumericalSemigroup, apery, enumeration, semigraph
from wilfgraph.cli import main
from wilfgraph.errors import InvariantViolation, NotAMember, WilfCounterexample


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_table(capsys):
    code, out, _ = run(capsys, "info", "--gens", "2,3")
    assert code == 0
    assert "W(S)     0" in out
    assert "Wilf holds: yes" in out


def test_info_json_figure(capsys):
    code, out, _ = run(capsys, "info", "--gens", "12,13,14,15,17,19,20,21",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 12
    assert len(data["P"]) == 8
    assert data["W"] == data["W_apery"]
    assert data["P_ge_m_over_3"] is True
    assert data["X"] == [13, 14, 15, 17, 19, 20, 21, 28, 30, 34, 35]


def test_info_degenerate(capsys):
    code, out, _ = run(capsys, "info", "--gens", "1")
    assert code == 0
    assert "Wilf holds: yes" in out


def test_info_parse_error(capsys):
    code, _, err = run(capsys, "info", "--gens", "2,x")
    assert code == 1
    assert "position" in err
    code, _, err = run(capsys, "info")
    assert code == 1
    assert "--gens" in err


def test_info_non_coprime(capsys):
    code, _, err = run(capsys, "info", "--gens", "4,6")
    assert code == 1


def test_truncated_flag(capsys):
    code, out, _ = run(capsys, "info", "--gens", "15,16,18,22|t=30",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["c"] == 30
    # the |t= suffix is the one way to truncate
    code, _, err = run(capsys, "info", "--gens", "15,16,18,22", "--trunc",
                       "30")
    assert code == 1
    assert "--trunc" in err


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "--gens", "12,13,14,15,17,19,20,21",
                       "--format", "dot")
    assert code == 0
    assert '"14" -- "14"' in out     # loop as self-edge
    assert out.count("--") == 10


def test_graph_dot_escapes_labels(capsys, tmp_path):
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps({"vertices": ['a"b', "c\\"],
                                "edges": [['a"b', "c\\"]]}))
    code, out, _ = run(capsys, "graph", "--graph", str(path), "--format",
                       "dot")
    assert code == 0
    assert out.splitlines()[1:4] == ['  "a\\"b";', '  "c\\\\";',
                                     '  "a\\"b" -- "c\\\\" [penwidth=2.0];']


def test_graph_med_notice(capsys):
    code, out, _ = run(capsys, "graph", "--gens", "4,5,6,7")
    assert code == 0
    assert "empty graph" in out
    assert "maximal embedding dimension" in out


def test_graph_summary(capsys):
    # loop at 17 plus the disjoint edges (13,21), (14,20), (15,19) touch all 7
    code, out, _ = run(capsys, "graph", "--gens", "12,13,14,15,17,19,20,21")
    assert code == 0
    assert "vm k = 7" in out
    assert "lambda = 3" in out
    assert "nu = 7" in out


def test_graph_json_roundtrip_to_realize(capsys, tmp_path):
    code, out, _ = run(capsys, "graph", "--gens", "5,7,9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "realize", "--graph", str(path), "--format",
                       "json")
    assert code == 0
    cert = json.loads(out)
    assert cert["verified"] is True

    # the same JSON is accepted by the synthetic analysis mode
    code, out, _ = run(capsys, "graph", "--graph", str(path))
    assert code == 0


def test_realize_table(capsys, tmp_path):
    path = tmp_path / "edge.json"
    path.write_text('{"vertices": [0, 1], "edges": [[0, 1]]}')
    code, out, _ = run(capsys, "realize", "--graph", str(path))
    assert code == 0
    assert out.splitlines() == [
        "gens: 12,16,17,20,22,25,26,27,30,31,35|t=24",
        "m = 12, offsets = [4, 5], erased = [20, 22]",
        'certificate: {"erased": [20, 22], "gens": [12, 16, 17, 20, 22, 25, '
        '26, 27, 30, 31, 35], "m": 12, "offsets": [4, 5], "truncation": 24, '
        '"verified": true}',
    ]


def test_graph_requires_one_source(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": [0], "edges": [], "loops": [0]}')
    code, _, err = run(capsys, "graph", "--gens", "2,3", "--graph", str(path))
    assert code == 1
    code, _, err = run(capsys, "graph")
    assert code == 1


def test_missing_graph_file_is_io_error(capsys):
    code, _, err = run(capsys, "graph", "--graph", "/nonexistent/g.json")
    assert code == 3


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--genus-max", "8", "--format",
                       "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,n_g,gamma_g,wilf_violations,frac_P_ge_m3"
    rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert rows[1][1] == "1"
    assert rows[7][1] == "39"
    assert rows[8][1] == "67"


def test_enumerate_table(capsys):
    code, out, _ = run(capsys, "enumerate", "--genus-max", "3")
    assert code == 0
    assert out == ("  g       n_g   gamma_g wilf_viol  frac |P|>=m/3\n"
                   "  0         1                   0       1.000000\n"
                   "  1         1                   0       1.000000\n"
                   "  2         2                   0       1.000000\n"
                   "  3         4                   0       1.000000\n")


def test_enumerate_classes_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--genus-max", "7", "--classes",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["7"]["gamma_g"] == 11
    assert sum(c["count"] for c in data["7"]["classes"].values()) == 39


def test_enumerate_worker_flag(capsys):
    code_a, out_a, _ = run(capsys, "enumerate", "--genus-max", "9",
                           "--classes", "--format", "csv")
    code_b, out_b, _ = run(capsys, "enumerate", "--genus-max", "9",
                           "--classes", "--format", "csv", "--workers", "2")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_enumerate_workers_cap(capsys, monkeypatch):
    def no_pool(*args):
        raise AssertionError("a process pool was requested")

    monkeypatch.setattr(enumeration, "get_context", no_pool)
    for command in ("enumerate", "verify"):
        code, _, err = run(capsys, command, "--genus-max", "12",
                           "--workers", "100000")
        assert code == 1
        assert f"within 1..{enumeration.MAX_WORKERS}" in err


def test_enumerate_cap(capsys):
    for command in ("enumerate", "verify"):
        code, _, err = run(capsys, command, "--genus-max", "31")
        assert code == 1
        assert f"within 0..{enumeration.GENUS_HARD_CAP}" in err


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--genus-max", "6")
    assert code == 0
    assert "Wilf violations: 0" in out
    assert "failures" in out


def test_verify_empty_run(capsys):
    # genus bound 0 covers only the full set of nonnegative integers
    code, out, _ = run(capsys, "verify", "--genus-max", "0")
    assert code == 0
    assert "semigroups up to genus 0: 1" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--genus-max", "5", "--format",
                       "json")
    assert code == 0
    data = json.loads(out)
    assert data["wilf_violations"] == 0
    assert data["invariant_failures"] == []
    assert data["bucket_covered"] == data["semigroups"]


def test_verify_sampled_json(capsys):
    # the battery checks the 1,413 semigroups of genus <= 12 and, beyond,
    # the three of genus 21 with 3|P| < m
    code, out, _ = run(capsys, "verify", "--genus-max", "21", "--format",
                       "json")
    assert code == 0
    data = json.loads(out)
    assert data["invariants_checked"] == 1416
    assert data["invariant_failures"] == []


def test_verify_has_no_seed(capsys):
    code, _, err = run(capsys, "verify", "--genus-max", "5", "--seed", "0")
    assert code == 1
    assert "--seed" in err


def test_verify_walks_the_tree_once(capsys, monkeypatch):
    # one walk to genus 16, which also runs the battery, and no second
    nodes = sum(1 for _ in enumeration.iter_semigroups(16))
    calls = 0
    descend = enumeration._descend

    def counted(node, cut):
        nonlocal calls
        for node in descend(node, cut):
            calls += 1
            yield node

    monkeypatch.setattr(enumeration, "_descend", counted)
    code, _, _ = run(capsys, "verify", "--genus-max", "16", "--workers", "1")
    assert code == 0
    assert calls == nodes


def test_doctored_node_raises_wilf_counterexample(capsys, monkeypatch):
    # {0} u [5, 8) read with m = 3, c = 5 and P = (3,): genus 4 and
    # |P||L| = 1 < c = 5, a node only a broken tree step could produce
    bad = (0b11100001, 3, 5, 4, 1 << 3, 1 << (enumeration._K - 3))
    assert NumericalSemigroup(0b11100001, 3, 5, (3,)).genus == bad[3] == 4
    descend = enumeration._descend
    # only the walk from the root streams it; the census walks again from
    # some nodes of genus g_max - 2
    monkeypatch.setattr(
        enumeration, "_descend",
        lambda node, cut: chain(descend(node, cut), [bad])
        if node == enumeration._ROOT else descend(node, cut))
    assert enumeration.run_census(4)[4].wilf_violations == [(3,)]
    with pytest.raises(WilfCounterexample, match=r"failed for \[\(3,\)\]"):
        enumeration.verify_wilf_range(4)
    code, out, err = run(capsys, "verify", "--genus-max", "4")
    assert code == 2
    assert err == ("invariant failure: WilfCounterexample: "
                   "Wilf inequality failed for [(3,)]\n")
    assert out == ""


def test_extremal(capsys):
    code, out, _ = run(capsys, "extremal", "--n", "5", "--k", "4")
    assert code == 0
    assert "max edges = 10" in out
    code, out, _ = run(capsys, "extremal", "--n", "5", "--k", "4", "--lambda",
                       "2")
    assert code == 0
    assert "max edges = 9" in out


def test_extremal_dot_output(capsys, tmp_path):
    outdir = tmp_path / "witnesses"
    code, _, _ = run(capsys, "extremal", "--n", "4", "--k", "2", "--format",
                     "dot", "--out", str(outdir))
    assert code == 0
    files = sorted(outdir.glob("witness_*.dot"))
    assert files
    assert "graph G {" in files[0].read_text()


def test_extremal_dot_stdout(capsys):
    # the witnesses' DOT texts, one after another, on standard output
    code, out, _ = run(capsys, "extremal", "--n", "3", "--k", "2", "--format",
                       "dot")
    assert code == 0
    assert out == ('graph G {\n  "0";\n  "1";\n  "2";\n'
                   '  "0" -- "1";\n  "0" -- "2";\n  "1" -- "2";\n}\n\n'
                   'graph G {\n  "0";\n  "1";\n  "2";\n'
                   '  "0" -- "2";\n  "1" -- "2";\n  "2" -- "2";\n}\n')


def test_extremal_infeasible(capsys):
    code, _, err = run(capsys, "extremal", "--n", "3", "--k", "7")
    assert code == 1


def test_out_file(capsys, tmp_path):
    path = tmp_path / "info.json"
    code, out, _ = run(capsys, "info", "--gens", "2,3", "--format", "json",
                       "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["m"] == 2


def test_unknown_command(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_malformed_graph_json_exits_1(capsys, tmp_path):
    for i, text in enumerate(['{"edges": [[0, 1]]}', '[[0, 1]]']):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text)
        for command in ("graph", "realize"):
            code, out, err = run(capsys, command, "--graph", str(path))
            assert code == 1, (command, text)
            assert err.startswith("usage error: graph JSON")
            assert out == ""


def test_deeply_nested_graph_json_exits_1(capsys, tmp_path):
    # json.load raises RecursionError, not ValueError, past its nesting limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    for command in ("graph", "realize"):
        code, out, err = run(capsys, command, "--graph", str(path))
        assert code == 1, command
        assert err == "usage error: graph JSON nests too deeply\n"
        assert out == ""


def test_oversized_matching_exits_1_quickly(capsys):
    # G(<700, 701>) has 698 vertices and 122,150 edges, over the matching cap
    start = time.perf_counter()
    code, out, err = run(capsys, "graph", "--gens", "700,701")
    assert time.perf_counter() - start < 5
    assert code == 1
    assert "at most 100 edges" in err
    assert out == ""


def test_oversized_graph_rejected_before_build(capsys, monkeypatch):
    # |X n D| = 698 already exceeds the edge cap, so G(S) is never built
    def no_build(*args):
        raise AssertionError("build_graph was called")

    monkeypatch.setattr(semigraph, "build_graph", no_build)
    code, out, err = run(capsys, "graph", "--gens", "700,701")
    assert code == 1
    assert "at most 100 edges" in err
    assert out == ""


def test_oversized_realize_exits_1_quickly(capsys, tmp_path):
    # a 33-vertex path is over the canonical-labeling cap of 32 vertices
    path = tmp_path / "path33.json"
    path.write_text(json.dumps({"vertices": list(range(33)),
                                "edges": [[i, i + 1] for i in range(32)]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "realize", "--graph", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert err == ("usage error: canonical labeling supports at most 32 "
                   "vertices, got 33\n")
    assert out == ""


def test_invariant_violation_graph_exits_2(capsys, monkeypatch):
    def broken(S):
        raise InvariantViolation("depth sum off by one")

    monkeypatch.setattr(apery, "analyze", broken)
    code, out, err = run(capsys, "graph", "--gens", "5,7,9")
    assert code == 2
    assert err == ("invariant failure: InvariantViolation: "
                   "depth sum off by one\n")
    assert out == ""


def test_invariant_violation_verify_failure_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(semigraph, "invariant_report",
                        lambda S: {"leaf_structure": False})
    code, out, _ = run(capsys, "verify", "--genus-max", "3")
    assert code == 2
    assert "FAILURE genus 3" in out
    assert "['leaf_structure']" in out


def test_invariant_violation_verify_sampled_failure_exits_2(capsys,
                                                            monkeypatch):
    # a key that fails only beyond genus 12 fails on the three semigroups
    # with 3|P| < m, checked in pool workers at two workers
    monkeypatch.setattr(semigraph, "invariant_report",
                        lambda S: {"leaf_structure": S.genus <= 12})
    outs = set()
    for workers in ("1", "2"):
        code, out, _ = run(capsys, "verify", "--genus-max", "21",
                           "--workers", workers)
        assert code == 2
        outs.add(out)
    out, = outs
    assert [line for line in out.splitlines() if "FAILURE" in line] == [
        f"  FAILURE genus 21 {gens}: ['leaf_structure']"
        for gens in ((7, 8), (10, 11, 13), (10, 11, 14))]


def test_invariant_violation_in_pool_worker_exits_2(capsys, monkeypatch):
    # genus 9 and up are tallied in the pool at genus 14 and two workers
    parent = os.getpid()

    def broken(S):
        if os.getpid() != parent:
            raise InvariantViolation(f"raised in a worker at {S.genus}")
        return {}

    monkeypatch.setattr(semigraph, "invariant_report", broken)
    code, out, err = run(capsys, "verify", "--genus-max", "14", "--workers",
                         "2")
    assert code == 2
    assert err.startswith("invariant failure: InvariantViolation: "
                          "raised in a worker at ")
    assert out == ""


def test_invariant_violation_mapping_not_a_member_exits_1(capsys,
                                                          monkeypatch):
    def not_member(S):
        raise NotAMember("4 is not in S")

    monkeypatch.setattr(apery, "report", not_member)
    code, out, err = run(capsys, "info", "--gens", "2,3")
    assert code == 1
    assert err == "usage error: 4 is not in S\n"
    assert out == ""


def test_extremal_catalog_cap_exits_1(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "extremal", "--n", "7", "--k", "4")
    assert time.perf_counter() - start < 2
    assert code == 1
    assert "0 <= n <= 6" in err
    assert out == ""


def test_oversized_sieve_exits_1_quickly(capsys):
    for gens in ("100003,100004", "2,3|t=3000000000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "info", "--gens", gens)
        assert time.perf_counter() - start < 2
        assert code == 1
        assert "limit" in err
        assert out == ""


def test_large_multiplicity_exits_1_quickly(capsys):
    # about 10^5 candidates against tens of thousands of generators each
    # would take the minimal-generator pass some 15 s
    gens = ",".join(map(str, range(100000, 101000))) + "|t=4000000"
    start = time.perf_counter()
    code, out, err = run(capsys, "info", "--gens", gens)
    assert time.perf_counter() - start < 2
    assert code == 1
    assert "multiplicity 100000 exceeds the limit 20000" in err
    assert "Traceback" not in err
    assert out == ""


def test_large_apery_set_info_quickly(capsys):
    # <20000, 20001> cut at 4,000,000 has 19,999 Apery elements over a
    # 4-million-bit mask: one full-width mask operation per element, as in a
    # rest & -rest loop, takes seconds, and one pass over the bit string a
    # small fraction of one
    start = time.perf_counter()
    code, out, err = run(capsys, "info", "--gens", "20000,20001|t=4000000")
    assert time.perf_counter() - start < 3
    assert code == 0
    assert "Wilf holds: yes" in out
    assert err == ""


# -- fuzzed argv --------------------------------------------------------------

_FORMATS = {"info": ["table", "json"], "graph": ["table", "dot", "json"],
            "enumerate": ["table", "csv", "json"], "verify": ["table", "json"],
            "realize": ["table", "json"], "extremal": ["table", "dot"]}

_gens_text = st.one_of(
    st.text(alphabet="0123456789,|t= -x", max_size=8),
    st.builds(lambda gens, t: ",".join(map(str, gens))
              + ("" if t is None else f"|t={t}"),
              st.lists(st.integers(-1, 40), max_size=5),
              st.none() | st.integers(-5, 200)))

# small graphs, possibly malformed: unknown ends, self-pairs, stray loops
_graph_json = st.one_of(
    st.builds(lambda n, edges, loops: json.dumps(
        {"vertices": list(range(n)), "edges": edges, "loops": loops}),
        st.integers(0, 5),
        st.lists(st.lists(st.integers(-1, 5), min_size=2, max_size=2),
                 max_size=8),
        st.lists(st.integers(-1, 5), max_size=3)),
    st.text(max_size=12),
    st.sampled_from(['{"vertices": 3}', '{"vertices": [[0]]}', "[]",
                     '{"vertices": [0, "a"], "edges": [[0, "a"]]}',
                     "[" * 100_000]))


@st.composite
def _argv(draw):
    """(argv with GRAPH and OUT placeholders, graph file text)."""
    command = draw(st.sampled_from(sorted(_FORMATS)))
    argv = [command]
    if command in ("info", "graph"):
        if command == "info" or draw(st.booleans()):
            argv += ["--gens", draw(_gens_text)]
        else:
            argv += ["--graph", "GRAPH"]
    elif command in ("enumerate", "verify"):
        argv += ["--genus-max", str(draw(st.integers(-2, 12))),
                 "--workers", str(draw(st.integers(-1, 2)))]
        if command == "enumerate" and draw(st.booleans()):
            argv.append("--classes")
    elif command == "realize":
        argv += ["--graph", "GRAPH"]
    else:
        argv += ["--n", str(draw(st.integers(-1, 5))),
                 "--k", str(draw(st.integers(-1, 6)))]
        if draw(st.booleans()):
            argv += ["--lambda", str(draw(st.integers(-1, 5)))]
    argv += ["--format", draw(st.sampled_from(_FORMATS[command] + ["xml"]))]
    if draw(st.booleans()):
        argv += ["--out", "OUT"]
    return argv, draw(_graph_json)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_argv(), out=st.sampled_from(["file", "dir", "missing"]))
def test_fuzzed_argv_exits_with_a_code(case, out, capsys, tmp_path):
    # every input works or exits 1, 2 or 3 with a message, never a traceback
    # and never a long run
    argv, graph_text = case
    graph = tmp_path / "graph.json"
    graph.write_text(graph_text)
    out_path = {"file": tmp_path / "out.txt", "dir": tmp_path,
                "missing": tmp_path / "missing" / "out.txt"}[out]
    argv = [str(graph) if a == "GRAPH" else str(out_path) if a == "OUT"
            else a for a in argv]
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 10, argv
    _, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err
    assert (code == 0) == (err == ""), (argv, err)
