import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, astuple, fields, replace

import pytest

import wilfgraph
from wilfgraph import (AperyAnalysis, InvariantViolation, NotAMember,
                       NumericalSemigroup, analyze, apery_set, depth,
                       from_generators, invariant_report, iter_semigroups,
                       report, wilf_w)

from oracles import members_below, small_elements


def test_apery_two_three():
    S = from_generators([2, 3])
    assert apery_set(S) == (3,)
    a = analyze(S)
    assert (a.depth_q, a.rho, a.tau_x, a.wilf_w) == (1, 0, 0, 0)
    assert len(small_elements(S)) == a.depth_q + a.tau_x == 1
    assert depth(S, 3) == 0


def test_apery_figure(fig_semigroup):
    a = analyze(fig_semigroup)
    assert a.apery_x == (13, 14, 15, 17, 19, 20, 21, 28, 30, 34, 35)
    assert a.depth_q == 2
    assert a.rho == 0
    assert sorted(a.x_decomposable) == [28, 30, 34, 35]
    assert depth(fig_semigroup, 35) == 0
    assert depth(fig_semigroup, 0) == 2


def test_apery_natural():
    S = from_generators([1])
    a = analyze(S)
    assert a.apery_x == ()
    assert (a.depth_q, a.rho, a.tau_x, a.wilf_w) == (0, 0, 0, 0)
    assert wilf_w(S) == 0


def test_depth_window_property(fig_semigroup):
    S = fig_semigroup
    m, c = S.multiplicity, S.conductor
    for x in members_below(S, c + 3 * m):
        d = depth(S, x)
        assert c <= x + d * m < c + m


def test_depth_requires_membership(fig_semigroup):
    with pytest.raises(NotAMember):
        depth(fig_semigroup, 16)


def test_layers(fig_semigroup):
    # layer S_i holds the members of depth q - i
    S = fig_semigroup
    q = analyze(S).depth_q
    assert depth(S, 0) == q
    assert depth(S, S.multiplicity) == q - 1
    assert depth(S, S.conductor) == 0


def test_total_depth():
    S = from_generators([2, 3])
    a = analyze(S)
    assert sum(depth(S, x) for x in a.apery_x) == a.tau_x
    # |L n mN| counts the multiples of m below c, one per depth step
    multiples = [x for x in small_elements(S) if x % S.multiplicity == 0]
    assert len(multiples) == a.depth_q


def test_small_multiples_count(fig_semigroup):
    S = fig_semigroup
    a = analyze(S)
    multiples = [x for x in small_elements(S) if x % S.multiplicity == 0]
    assert len(multiples) == a.depth_q


def test_wilf_formulas():
    for gens in ([2, 3], [1], [5, 7, 9], [12, 13, 14, 15, 17, 19, 20, 21],
                 [8, 10, 12, 13, 14, 15, 17]):
        S = from_generators(gens)
        assert wilf_w(S) == analyze(S).wilf_w
    assert wilf_w(from_generators([2, 3])) == 0


def test_summand_closure(fig_semigroup):
    # 28 = 13 + 15 with both parts Apery elements
    assert invariant_report(fig_semigroup)["x_is_downset"]
    assert invariant_report(from_generators([2, 3]))["x_is_downset"]


def test_report_fields(fig_semigroup):
    data = report(fig_semigroup)
    assert set(data) == {"gens", "m", "f", "c", "g", "q", "rho", "P", "X",
                         "X_cap_D", "L_size", "tau_X", "W"}
    assert data["m"] == 12
    assert data["q"] == 2
    assert data["L_size"] == data["q"] + data["tau_X"]
    assert data["W"] == len(data["P"]) * data["L_size"] - data["c"]


# <3, 4, 5> with 7 wrongly listed as a minimal generator: both Apery-side
# identities fail. The mask holds the members 0, 3, 4, 5 of [0, c + m).
_BROKEN = (0b111001, 3, 3, (3, 4, 5, 7))


def test_broken_semigroup_raises_invariant_violation():
    with pytest.raises(InvariantViolation):
        analyze(NumericalSemigroup(*_BROKEN))


def test_invariant_violation_survives_optimize():
    code = ("import wilfgraph\n"
            "try:\n"
            f"    wilfgraph.analyze(wilfgraph.NumericalSemigroup(*{_BROKEN!r}))\n"
            "except wilfgraph.InvariantViolation:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = os.path.dirname(os.path.dirname(wilfgraph.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_analysis_is_the_frozen_dataclass():
    # analyze fills the instance's __dict__ instead of running __init__; the
    # result must be the object __init__ builds, frozen, and replaceable
    for S in iter_semigroups(10):
        a = analyze(S)
        built = AperyAnalysis(*astuple(a))
        assert a == built and vars(a) == vars(built), S
        assert type(a) is AperyAnalysis
    assert [f.name for f in fields(a)] == list(vars(a))
    with pytest.raises(FrozenInstanceError):
        a.rho = 0
    assert replace(a, rho=a.rho + 1) == AperyAnalysis(
        *astuple(a)[:3], a.rho + 1, *astuple(a)[4:])
    assert replace(a) == a
