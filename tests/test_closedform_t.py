import itertools
import random
import tracemalloc
from math import comb, factorial, prod

import pytest

from greenvar import elements
from greenvar.closedform_t import (
    _crowded_everywhere,
    _fed,
    _overfull_blocks,
    _l_size_corrected,
    _l_size_literal,
    closed_classification_t,
    count_t_classes,
    fed,
    spread,
    stirling2,
)
from greenvar.closedform_is import closed_classification_is
from greenvar.elements import (
    FAMILY_IS,
    FAMILY_T,
    enumerate_family,
    identity,
    parse_element,
    universe_images,
    universe_kernels,
    universe_ranges,
)
from greenvar.counts import summarize_classes_by_rank
from greenvar.engine import brute_classification


def tr(text):
    return parse_element(FAMILY_T, text)


# ---------------------------------------------------------------------------
# the two predicates


def test_spread_counts_range_hits_per_kernel_block():
    a = tr("1,1,2")  # kernel blocks {1,2} and {3}
    assert not spread(tr("1,2,3"), a)  # range {1,2,3} hits {1,2} twice
    assert spread(tr("1,1,3"), a)  # range {1,3} hits each block once
    assert spread(tr("3,3,3"), a)


def test_fed_requires_range_points_in_every_fiber():
    a = tr("1,1,2")  # ran(a) = {1, 2}
    assert fed(tr("1,2,2"), a)  # fibers {1} and {2,3} both meet {1,2}
    assert not fed(tr("1,2,3"), a)  # fiber {3} misses {1,2}
    assert fed(tr("3,3,3"), a)  # the single fiber {1,2,3} contains 1 and 2
    assert not fed(tr("3,3,1"), a)  # fiber {3} of value 1 misses {1,2}


# The set-based definitions the array predicates must agree with.


def naive_blocks(a):
    return [{i for i in range(1, a.n + 1) if a(i) == v} for v in set(a.images)]


def naive_hits(x, a):
    return [len(set(x.images) & block) for block in naive_blocks(a)]


def naive_fed(x, a):
    ran_a = set(a.images)
    return all(
        any(x(i) == v for i in ran_a) for v in set(x.images)
    )


def naive_kernel(x):
    return frozenset(
        frozenset(i for i in range(1, x.n + 1) if x(i) == v) for v in set(x.images)
    )


@pytest.mark.parametrize("n", (3, 4))
def test_array_predicates_match_set_definitions(n):
    # Every (x, a) in T_3; every x in T_4 against a seeded sample of a.
    universe = enumerate_family(FAMILY_T, n)
    images = universe_images(FAMILY_T, n)
    ran = universe_ranges(FAMILY_T, n)
    deformations = universe if n == 3 else random.Random(4).sample(universe, 32)
    for a in deformations:
        overfull = _overfull_blocks(ran, a)
        spread_rows, crowded_rows = ~overfull.any(axis=0), overfull.all(axis=0)
        fed_rows = _fed(images, ran, a)
        for i, x in enumerate(universe):
            hits = naive_hits(x, a)
            expect_spread = all(h <= 1 for h in hits)
            expect_crowded = all(h > 1 for h in hits)
            expect_fed = naive_fed(x, a)
            assert (spread_rows[i], fed_rows[i], crowded_rows[i]) == (
                expect_spread, expect_fed, expect_crowded
            ), (str(x), str(a))
            assert spread(x, a) is expect_spread
            assert fed(x, a) is expect_fed
            assert _crowded_everywhere(x, a) is expect_crowded
    # Equal kernel codes exactly when equal set-based kernels.
    code_of = dict(zip(universe, universe_kernels(n).tolist()))
    for x, y in itertools.product(universe, repeat=2):
        assert (code_of[x] == code_of[y]) == (naive_kernel(x) == naive_kernel(y))


# ---------------------------------------------------------------------------
# closed forms against brute force, both n = 2 and n = 3


@pytest.mark.parametrize("relation", ("r", "l", "h", "d"))
@pytest.mark.parametrize("n", (2, 3))
def test_corrected_matches_brute(n, relation):
    for a in enumerate_family(FAMILY_T, n):
        closed = closed_classification_t(a, relation)
        brute = brute_classification(a, relation)
        assert closed.same_partition(brute), str(a)


def test_literal_d_drift_count_frozen():
    # r, l, h agree in both modes; the literal d description drifts on 26 of
    # the 31 deformations at n = 2 and 3 combined.
    drifted = 0
    total = 0
    for n in (2, 3):
        for a in enumerate_family(FAMILY_T, n):
            total += 1
            for relation in ("r", "l", "h"):
                assert closed_classification_t(a, relation, "literal").same_partition(
                    closed_classification_t(a, relation, "corrected")
                )
            lit = closed_classification_t(a, "d", "literal")
            if not lit.same_partition(brute_classification(a, "d")):
                drifted += 1
    assert (total, drifted) == (31, 26)


def test_literal_d_counterexample_at_identity_n2():
    a = identity(FAMILY_T, 2)
    lit = closed_classification_t(a, "d", "literal")
    assert lit.class_of(a) == tuple(enumerate_family(FAMILY_T, 2))  # absorbs all 4
    brute = brute_classification(a, "d")
    assert set(brute.class_of(a)) == {tr("1,2"), tr("2,1")}


def test_closed_h_classes_are_r_meet_l():
    # Every a and x at n <= 3, both families, both modes: the h-class of x
    # is the meet of its r- and l-classes, read through class_of.
    classifiers = {FAMILY_T: closed_classification_t, FAMILY_IS: closed_classification_is}
    cases = 0
    for family, classify in classifiers.items():
        for n in (1, 2, 3):
            universe = enumerate_family(family, n)
            for a in universe:
                for mode in ("corrected", "literal"):
                    r, l, h = (classify(a, relation, mode) for relation in "rlh")
                    for x in universe:
                        assert set(h.class_of(x)) == set(r.class_of(x)) & set(l.class_of(x)), (
                            family, str(a), mode, str(x)
                        )
                        cases += 1
    assert cases == 2 * 1_955


def test_low_rank_deformation_l_all_singleton():
    a = tr("2,2,2")  # p = 1
    l = closed_classification_t(a, "l")
    assert l.singleton_count == 27


def test_crowded_everywhere_unsatisfiable_in_range():
    # The literal middle case asks every kernel block of a met by ran(x) to be
    # met at least twice; with rank(x) <= rank(a) at most rank(a) values exist,
    # so the condition never fires where the description would use it.
    for n in (2, 3):
        for a in enumerate_family(FAMILY_T, n):
            for x in enumerate_family(FAMILY_T, n):
                if x.rank <= a.rank:
                    assert not _crowded_everywhere(x, a)


def test_validation():
    a = tr("1,1")
    with pytest.raises(ValueError):
        closed_classification_t(a, "j")
    with pytest.raises(ValueError):
        closed_classification_t(a, "d", mode="verbatim")


def test_closed_form_and_count_reject_a_partial_injection():
    # a states its own n, so the family is the one thing left to check.
    a = parse_element(FAMILY_IS, "1,2,-")
    with pytest.raises(ValueError, match="deformation 1,2,- is not a T_3 element"):
        closed_classification_t(a, "r")
    with pytest.raises(ValueError, match="deformation 1,2,- is not a T_3 element"):
        count_t_classes(a)


# ---------------------------------------------------------------------------
# combinatorics


def test_stirling2_values():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(3, 0) == 0
    assert stirling2(2, 3) == 0


def test_stirling2_vs_explicit_sum():
    from math import comb, factorial

    for q in range(9):
        for k in range(1, 9):
            explicit = sum(
                (-1) ** i * comb(k, i) * (k - i) ** q for i in range(k + 1)
            ) // factorial(k)
            assert stirling2(q, k) == explicit


# ---------------------------------------------------------------------------
# counting


def test_count_t3_frozen():
    report = count_t_classes(tr("1,1,2"))
    (r_literal, l_literal), (r, l) = report.literal, report.corrected
    assert r_literal == r  # the r side is one set of formulas
    assert r.size_lines == ((1, 3, 1), (2, 4, 3))
    assert r.multi_class_count == 4
    assert r.singleton_count == 12
    assert l.size_lines == ((2, 4, 3),)
    assert l.multi_class_count == 3
    assert l.singleton_count == 15
    assert l_literal.size_lines == ((1, 1, 3), (2, 2, 3))
    assert l_literal.singleton_count == 18
    assert report.flags == (
        "literal:singleton_count:l",
        "literal:multi_class_count:l",
        "literal:size_lines:l",
    )


def test_count_t2_identity_erratum_frozen():
    report = count_t_classes(identity(FAMILY_T, 2))
    assert _l_size_literal(2, 2, 2) == 0  # the printed size collapses
    assert _l_size_corrected(2, 2, 2) == 2  # the real class size
    assert report.corrected[1].size_lines == ((2, 2, 1),)
    assert report.enumerated[1].size_lines == ((2, 2, 1),)
    assert "literal:size_lines:l" in report.flags
    assert not any(f.startswith("corrected:") for f in report.flags)


def test_count_p1_all_l_singleton():
    report = count_t_classes(tr("1,1"))
    l_literal, l = report.literal[1], report.corrected[1]
    assert l.multi_class_count == l_literal.multi_class_count == 0
    assert l.singleton_count == 4
    assert l_literal.singleton_count == 4
    assert report.enumerated[1].multi_class_count == 0


def test_count_requires_n_at_least_2():
    with pytest.raises(ValueError):
        count_t_classes(tr("1"))


def test_count_no_corrected_flags_t3():
    for a in enumerate_family(FAMILY_T, 3):
        report = count_t_classes(a)
        assert not any(f.startswith("corrected:") for f in report.flags), str(a)


# ---------------------------------------------------------------------------
# census beyond brute range: the corrected closed-form partition against the
# corrected count formulas, with no brute force


def elementary_symmetric(values, m):
    return sum(prod(c) for c in itertools.combinations(values, m))


def census(lines, size):
    covered = sum(count * sz for _, sz, count in lines)
    return size - covered, sum(count for _, _, count in lines), tuple(lines)


def check_census(a):
    n, p = a.n, a.rank
    fibers = [a.images.count(v) for v in sorted(set(a.images))]
    r_lines = [(m, elementary_symmetric(fibers, m) * factorial(m), stirling2(n, m))
               for m in range(1, p + 1)]
    l_lines = [(m, factorial(m) * stirling2(p, m) * m ** (n - p), comb(n, m))
               for m in range(2, p + 1)]
    for relation, lines in (("r", r_lines), ("l", l_lines)):
        summary = summarize_classes_by_rank(closed_classification_t(a, relation))
        assert (
            summary.singleton_count, summary.multi_class_count, summary.size_lines
        ) == census(lines, n**n), relation


@pytest.mark.parametrize(
    "a_text",
    ("1,1,1,1,1,1", "1,1,2,3,3,3", "1,1,2,2,3,3", "1,1,1,2,3,4", "1,2,3,4,5,5", "1,2,3,4,5,6"),
)
def test_t6_census_matches_corrected_formulas(a_text):
    check_census(tr(a_text))


def test_t7_census_matches_corrected_formulas():
    # 823,543 elements: the classification and its census read the image
    # array and the labels only, so no element object is built.
    enumerate_family.cache_clear()
    check_census(tr("1,1,2,2,3,3,4"))
    assert enumerate_family.cache_info().misses == 0


def test_t6_r_class_builds_only_its_class():
    # class_of reads x's label and builds only the members of x's class:
    # about 4.5 MB with the closed classification, where listing all 46,656
    # elements with a dict over them peaks at 16.5 MB.
    for cache in (elements.universe_images, elements.universe_ranges, elements.universe_kernels,
                  elements._index_lookup, enumerate_family):
        cache.cache_clear()
    x = tr("1,2,3,4,5,6")
    tracemalloc.start()
    try:
        cls = closed_classification_t(tr("3,5,2,3,5,2"), "r").class_of(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cls == (x,)
    assert peak < 8 * 2**20, f"the r-class of x peaked at {peak / 2**20:.1f} MB"
    assert enumerate_family.cache_info().misses == 0


def cold_peak_mib(n, a_text, relation):
    # Traced peak of one classification with every universe_* cache cleared,
    # so the universe and its invariants are built inside the trace.
    for cache in (elements.universe_images, elements.universe_ranges, elements.universe_kernels):
        cache.cache_clear()
    a = tr(a_text)
    tracemalloc.start()
    try:
        closed_classification_t(a, relation)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def test_cold_t6_d_classification_stays_small():
    # The universe and its invariants are built one narrow column at a time,
    # with no int64 temporary of the universe's (s, n) shape: about 3 MiB.
    peak = cold_peak_mib(6, "3,5,2,3,5,2", "d")
    assert peak < 4, f"a cold T_6 d classification peaked at {peak:.2f} MiB"


def test_cold_t7_d_classification_stays_small():
    # 823,543 rows: about 53 MiB, of which the int64 keys and labels take most.
    peak = cold_peak_mib(7, "1,1,2,2,3,3,4", "d")
    assert peak < 64, f"a cold T_7 d classification peaked at {peak:.2f} MiB"
