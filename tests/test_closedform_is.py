import itertools
import subprocess
import sys
from math import comb, factorial

import pytest

from greenvar.closedform_is import (
    closed_classification_is,
    count_is_classes,
    falling_factorial,
    right_divisible,
)
from greenvar.elements import (
    FAMILY_IS,
    empty_map,
    enumerate_family,
    identity,
    parse_element,
)
from greenvar.counts import summarize_classes_by_rank
from greenvar.engine import brute_classification, variant_product
from greenvar.structure import rank_representative


def pp(text):
    return parse_element(FAMILY_IS, text)


# ---------------------------------------------------------------------------
# the divisibility criterion behind the class descriptions


def test_right_divisible_witness_verifies_exhaustive_n3():
    a = pp("1,2,-")
    universe = enumerate_family(FAMILY_IS, 3)
    solvable = 0
    for x, y in itertools.product(universe, repeat=2):
        verdict = right_divisible(x, y, a)
        if verdict.solvable:
            solvable += 1
            assert variant_product(y, a, verdict.witness) == x
    assert solvable > 0


def test_right_divisible_criterion_vs_actual_solvability_n2():
    # The criterion is sound.  Completeness fails exactly where ran(y)
    # escapes dom(a) at points dom(x) never reaches: true solvability is
    # dom(x) inside dom(y) and y(dom(x)) inside dom(a).
    universe = enumerate_family(FAMILY_IS, 2)
    for a in universe:
        for x, y in itertools.product(universe, repeat=2):
            actual = any(variant_product(y, a, u) == x for u in universe)
            exact = x.dom <= y.dom and all(y(i) in a.dom for i in x.dom)
            verdict = right_divisible(x, y, a)
            assert actual == exact
            if verdict.solvable:
                assert actual
            elif actual:
                assert not y.ran <= a.dom  # the gap is only ever condition 2


# ---------------------------------------------------------------------------
# single-class closed forms, frozen from the brute-force oracle


def class_of(x, a, relation, mode="corrected"):
    return set(closed_classification_is(x.n, a, relation, mode).class_of(x))


def test_frozen_classes_is3():
    a = pp("1,2,-")
    x = pp("1,-,-")
    assert class_of(x, a, "r") == {pp("1,-,-"), pp("2,-,-")}
    assert class_of(x, a, "l") == {pp("1,-,-"), pp("-,1,-")}
    assert class_of(x, a, "h") == {x}
    assert class_of(x, a, "d") == {pp("1,-,-"), pp("2,-,-"), pp("-,1,-"), pp("-,2,-")}


def test_escaping_range_means_singleton_r_class():
    a = pp("1,2,-")
    x = pp("3,-,-")  # ran(x) = {3} escapes dom(a) = {1, 2}
    assert class_of(x, a, "r") == {x}


def test_classes_contain_their_element_everywhere():
    for a in enumerate_family(FAMILY_IS, 3):
        for relation in ("r", "l", "h", "d"):
            for mode in ("corrected", "literal"):
                c = closed_classification_is(3, a, relation, mode)
                for x in enumerate_family(FAMILY_IS, 3):
                    assert x in c.class_of(x)


# ---------------------------------------------------------------------------
# whole-universe classifications against brute force


@pytest.mark.parametrize("relation", ("r", "l", "h", "d"))
def test_corrected_matches_brute_is3(relation):
    for a in enumerate_family(FAMILY_IS, 3):
        closed = closed_classification_is(3, a, relation)
        brute = brute_classification(FAMILY_IS, 3, a, relation)
        assert closed.same_partition(brute), str(a)
        assert closed.method == "closed-corrected"


def test_literal_d_drift_is_exactly_the_joint_case():
    # r, l, h agree in both modes; d drifts wherever the joint case merges
    # unequal ranks. At n = 3 that is all but the rank-0 deformation.
    drifted = []
    for a in enumerate_family(FAMILY_IS, 3):
        for relation in ("r", "l", "h"):
            assert closed_classification_is(3, a, relation, "literal").same_partition(
                closed_classification_is(3, a, relation, "corrected")
            )
        lit = closed_classification_is(3, a, "d", "literal")
        if not lit.same_partition(brute_classification(FAMILY_IS, 3, a, "d")):
            drifted.append(a)
    assert len(drifted) == 33
    assert empty_map(3) not in drifted


def test_literal_d_counterexample_at_identity_n2():
    a = identity(FAMILY_IS, 2)
    lit = closed_classification_is(2, a, "d", "literal")
    assert lit.class_of(a) == tuple(enumerate_family(FAMILY_IS, 2))  # absorbs all 7
    brute = brute_classification(FAMILY_IS, 2, a, "d")
    assert set(brute.class_of(a)) == {pp("1,2"), pp("2,1")}


def test_mode_and_relation_validation():
    a = pp("1,2")
    with pytest.raises(ValueError):
        closed_classification_is(2, a, "r", mode="verbatim")
    with pytest.raises(ValueError):
        closed_classification_is(2, a, "j")
    with pytest.raises(ValueError):
        closed_classification_is(3, a, "r")  # n disagrees with a


# ---------------------------------------------------------------------------
# counting


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(3, 3) == 6
    assert falling_factorial(2, 3) == 0


def test_count_is3_rank2_frozen():
    report = count_is_classes(3, pp("1,2,-"))
    assert report.p == 2
    for side in (0, 1):  # r, then l: the mirror symmetry gives both one census
        literal, corrected = report.literal[side], report.corrected[side]
        assert corrected.multi_class_count != 0
        assert literal.singleton_count == 21
        assert corrected.singleton_count == 22
        assert literal.multi_class_count == corrected.multi_class_count == 6
        assert literal.size_lines == corrected.size_lines == ((1, 2, 3), (2, 2, 3))
        assert corrected.singleton_count + 6 * 2 == 34
        assert report.enumerated[side].singleton_count == 22
    assert report.flags == ("literal:singleton_count:r", "literal:singleton_count:l")


def test_count_is2_identity_frozen():
    report = count_is_classes(2, pp("1,2"))
    for literal, corrected in zip(report.literal, report.corrected):
        assert literal.singleton_count == 0
        assert corrected.singleton_count == 1
        assert literal.multi_class_count == corrected.multi_class_count == 3
        assert literal.size_lines == corrected.size_lines == ((1, 2, 2), (2, 2, 1))


def test_count_low_rank_all_singleton():
    for a_text in ("-,-", "1,-", "-,2"):
        report = count_is_classes(2, pp(a_text))
        for literal, corrected in zip(report.literal, report.corrected):
            assert corrected.multi_class_count == 0
            assert literal.singleton_count == corrected.singleton_count == 7
            assert literal.multi_class_count == 0
        assert report.enumerated[0].multi_class_count == 0
        assert report.flags == ()


def test_count_census_identity_all_a_is3():
    for a in enumerate_family(FAMILY_IS, 3):
        report = count_is_classes(3, a)
        for corrected in report.corrected:
            covered = sum(count * size for _, size, count in corrected.size_lines)
            assert corrected.singleton_count + covered == 34
        assert not any(f.startswith("corrected:") for f in report.flags)


def test_count_census_identity_failure_raises_under_optimize():
    # The literal double sum and the census of the corrected size lines are
    # independent counts of the same singletons; python -O must keep the
    # check that they differ by the nowhere-defined map's class alone.
    script = """
from greenvar import closedform_is, parse_element
closedform_is._literal_singleton_count_is = lambda n, p: 0
try:
    closedform_is.count_is_classes(3, parse_element("is", "1,2,-"))
except AssertionError as exc:
    print("raised:", exc)
"""
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "raised: census identity failed\n"


# ---------------------------------------------------------------------------
# census beyond brute range: the corrected closed-form partition against the
# corrected count formulas, with no brute force


@pytest.mark.parametrize("k", range(7))
def test_is6_census_matches_corrected_formulas(k):
    n, a = 6, rank_representative(6, k)
    p = a.rank
    size = sum(comb(n, j) ** 2 * factorial(j) for j in range(n + 1))
    if p <= 1:
        expected = (size, 0, ())
    else:
        # The printed singleton count misses the nowhere-defined map.
        literal = sum(
            comb(n - p, m) * comb(p, j - m) * comb(n, j) * factorial(j)
            for j in range(n + 1)
            for m in range(1, j + 1)
        )
        lines = tuple((j, falling_factorial(p, j), comb(n, j)) for j in range(1, p + 1))
        expected = (literal + 1, sum(comb(n, j) for j in range(1, p + 1)), lines)
    for relation in ("r", "l"):
        summary = summarize_classes_by_rank(closed_classification_is(n, a, relation))
        assert (
            summary.singleton_count, summary.multi_class_count, summary.size_lines
        ) == expected, relation
