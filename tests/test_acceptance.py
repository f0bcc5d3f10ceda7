"""Acceptance gate: one test per criterion, exact tolerances, stated budgets.

Run with `pytest -v tests/test_acceptance.py`; the verbose line per test is
the per-criterion pass/fail line.  Each test also prints a [A#] summary with
the sweep sizes and elapsed time (visible with -s or on failure).

Seeds are fixed: the T_5 sweep in A2 and the pair sampling in A7 both use
seed 7.
"""

import random
import time

import numpy as np
import pytest

from greenvar.closedform_is import closed_classification_is, count_is_classes
from greenvar.closedform_t import (
    _l_size_corrected,
    _l_size_literal,
    count_t_classes,
    stirling2,
)
from greenvar.elements import (
    FAMILY_IS,
    FAMILY_T,
    enumerate_family,
    identity,
    parse_element,
)
from greenvar.engine import (
    RELATIONS,
    brute_classification,
    variant_semigroup,
    verify_d_equals_j,
)
from greenvar.structure import (
    dual_check,
    iso_preserves_classes,
    iso_witness,
    rank_representative,
    verify_isomorphism,
)

SEED = 7


def closed(family, n, a, relation, mode="corrected"):
    if family == FAMILY_IS:
        return closed_classification_is(n, a, relation, mode)
    from greenvar.closedform_t import closed_classification_t

    return closed_classification_t(n, a, relation, mode)


def test_a1_is_closed_r_l_h_match_brute_exactly():
    start = time.monotonic()
    checked = 0
    for n in (1, 2, 3, 4):
        universe = enumerate_family(FAMILY_IS, n)
        for a in universe:
            for relation in ("r", "l", "h"):
                assert closed(FAMILY_IS, n, a, relation).same_partition(
                    brute_classification(FAMILY_IS, n, a, relation)
                ), (n, str(a), relation)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 2 + 7 + 34 + 209
    assert elapsed < 120
    print(f"[A1] IS closed r/l/h == brute for all {checked} deformations,"
          f" n<=4, {elapsed:.1f}s: PASS")


def test_a2_t_closed_r_l_h_match_brute_exactly():
    start = time.monotonic()
    checked = 0
    for n in (2, 3, 4):
        for a in enumerate_family(FAMILY_T, n):
            for relation in ("r", "l", "h"):
                assert closed(FAMILY_T, n, a, relation).same_partition(
                    brute_classification(FAMILY_T, n, a, relation)
                ), (n, str(a), relation)
            checked += 1
    rng = random.Random(SEED)
    sampled = sorted(rng.sample(enumerate_family(FAMILY_T, 5), 10))
    for a in sampled:
        for relation in ("r", "l", "h"):
            assert closed(FAMILY_T, 5, a, relation).same_partition(
                brute_classification(FAMILY_T, 5, a, relation)
            ), (5, str(a), relation)
    elapsed = time.monotonic() - start
    assert checked == 4 + 27 + 256
    assert elapsed < 300
    print(f"[A2] T closed r/l/h == brute for all {checked} deformations at"
          f" n=2..4 plus 10 seeded at n=5, {elapsed:.1f}s: PASS")


def test_a3_d_erratum_corrected_matches_literal_drifts():
    start = time.monotonic()
    for family, ns in ((FAMILY_IS, (1, 2, 3, 4)), (FAMILY_T, (1, 2, 3, 4))):
        for n in ns:
            for a in enumerate_family(family, n):
                assert closed(family, n, a, "d").same_partition(
                    brute_classification(family, n, a, "d")
                ), (family, n, str(a))
    # The literal description at a = identity, n = 2, in both families:
    # its class of the identity must not absorb the rank-1 elements, but does.
    for family in (FAMILY_IS, FAMILY_T):
        a = identity(family, 2)
        brute = brute_classification(family, 2, a, "d")
        literal = closed(family, 2, a, "d", mode="literal")
        assert not literal.same_partition(brute)
        assert all(x.rank == 2 for x in brute.class_of(a))
        assert any(x.rank < 2 for x in literal.class_of(a))
    elapsed = time.monotonic() - start
    print(f"[A3] corrected d == brute for both families n<=4; literal d"
          f" wrongly absorbs rank-1 maps at the n=2 identity, {elapsed:.1f}s:"
          f" PASS")


def test_a4_is_counting_formulas_match_enumeration():
    from math import comb

    from greenvar.closedform_is import _literal_singleton_count_is, falling_factorial

    start = time.monotonic()
    checked = 0
    for n in (2, 3, 4):
        for a in enumerate_family(FAMILY_IS, n):
            if a.rank < 2:
                continue
            p = a.rank
            report = count_is_classes(n, a)
            expected_lines = tuple(
                (k, falling_factorial(p, k), comb(n, k)) for k in range(1, p + 1)
            )
            for enum in report.enumerated:
                assert enum.multi_class_count == sum(
                    comb(n, k) for k in range(1, p + 1)
                )
                assert enum.size_lines == expected_lines
                assert enum.singleton_count == _literal_singleton_count_is(n, p) + 1
            checked += 1
    # concrete instance from the contract: n=3, p=2
    report = count_is_classes(3, parse_element(FAMILY_IS, "1,2,-"))
    for literal, corrected in zip(report.literal, report.corrected):
        assert (literal.singleton_count, corrected.singleton_count) == (21, 22)
        assert literal.multi_class_count == corrected.multi_class_count == 6
        assert literal.size_lines == corrected.size_lines == ((1, 2, 3), (2, 2, 3))
        assert corrected.singleton_count + 6 * 2 == 34
    # n = 5 spot check, one deformation per rank
    for k in range(6):
        report = count_is_classes(5, rank_representative(5, k))
        if k < 2:
            assert all(c.multi_class_count == 0 for c in report.corrected)
            assert report.enumerated[0].multi_class_count == 0
            assert report.enumerated[0].singleton_count == 1546
        else:
            assert not any(f.startswith("corrected:") for f in report.flags)
            for corrected, enum in zip(report.corrected, report.enumerated):
                assert enum.size_lines == corrected.size_lines
    elapsed = time.monotonic() - start
    print(f"[A4] IS counts (multi = sum C(n,k), sizes [p]_k, singletons ="
          f" double-sum + 1) match enumeration for {checked} deformations"
          f" rank>=2 n<=4 plus per-rank n=5 spot checks, {elapsed:.1f}s: PASS")


def test_a5_t_counting_r_exact_l_corrected_exact_literal_recorded():
    start = time.monotonic()
    checked = 0
    for n in (2, 3, 4):
        for a in enumerate_family(FAMILY_T, n):
            report = count_t_classes(n, a)
            # r side: the printed formulas hold verbatim; l side: the
            # corrected sizes hold
            assert report.literal[0] == report.corrected[0] == report.enumerated[0]
            assert report.corrected[1] == report.enumerated[1]
            checked += 1
    # concrete instance: n=3, a="1,1,2"
    inst = count_t_classes(3, parse_element(FAMILY_T, "1,1,2"))
    assert inst.corrected[0].multi_class_count == 4
    assert inst.corrected[0].size_lines == ((1, 3, 1), (2, 4, 3))
    assert inst.corrected[0].singleton_count == 12
    # the literal l size disagrees at n=2, a=identity, and is recorded
    erratum = count_t_classes(2, identity(FAMILY_T, 2))
    assert _l_size_literal(2, 2, 2) == 0
    assert _l_size_corrected(2, 2, 2) == 2
    assert erratum.enumerated[1].size_lines == ((2, 2, 1),)
    assert "literal:size_lines:l" in erratum.flags
    elapsed = time.monotonic() - start
    print(f"[A5] T counts: r side exact as printed, l side exact corrected,"
          f" for all {checked} deformations n=2..4; literal l erratum"
          f" recorded at the n=2 identity, {elapsed:.1f}s: PASS")


def test_a6_duality_identity_exhaustive_n3_sampled_n4():
    start = time.monotonic()
    for n in (1, 2, 3):
        for a in enumerate_family(FAMILY_IS, n):
            report = dual_check(a)
            assert report.holds, str(a)
    rng = random.Random(SEED)
    for a in sorted(rng.sample(enumerate_family(FAMILY_IS, 4), 5)):
        report = dual_check(a)
        assert report.holds, str(a)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"[A6] inverse(x *_inv(a) y) == inverse(y) *_a inverse(x) on all"
          f" pairs, all a at n<=3 and 5 seeded a at n=4, {elapsed:.1f}s: PASS")


def test_a7_iso_witnesses_for_20_seeded_equal_rank_pairs():
    start = time.monotonic()
    rng = random.Random(SEED)
    pairs = 0
    for n in (3, 4):
        by_rank: dict[int, list] = {}
        for x in enumerate_family(FAMILY_IS, n):
            by_rank.setdefault(x.rank, []).append(x)
        for _ in range(10):
            k = rng.randint(1, n)
            a, b = rng.choice(by_rank[k]), rng.choice(by_rank[k])
            witness = iso_witness(a, b)
            assert witness is not None
            ok, counterexample = verify_isomorphism(witness)
            assert ok, (str(a), str(b), counterexample)
            assert iso_preserves_classes(witness), (str(a), str(b))
            pairs += 1
    elapsed = time.monotonic() - start
    assert pairs == 20
    print(f"[A7] {pairs} seeded equal-rank pairs at n=3,4: phi is a verified"
          f" bijective homomorphism preserving r/l/h/d classes,"
          f" {elapsed:.1f}s: PASS")


def test_a8_engine_sanity_d_equals_j_associativity_partition_cover():
    start = time.monotonic()
    for family in (FAMILY_IS, FAMILY_T):
        for n in (1, 2, 3):
            size = len(enumerate_family(family, n))
            for a in enumerate_family(family, n):
                v = variant_semigroup(family, n, a)
                ok, witness = verify_d_equals_j(v)
                assert ok, (family, n, str(a), witness)
                rows, left_of = v.table()
                t = rows[left_of]
                assert np.array_equal(t[t, :], t[:, t]), (family, n, str(a))
                for relation in RELATIONS:
                    c = brute_classification(family, n, a, relation)
                    assert sum(c.sizes) == size
    elapsed = time.monotonic() - start
    print(f"[A8] d == j, exhaustive associativity of the deformed product,"
          f" and full partition cover for every relation, both families"
          f" n<=3, {elapsed:.1f}s: PASS")


def test_a9_combinatorics_kernel():
    from math import prod

    from greenvar.closedform_is import falling_factorial

    # second-kind Stirling triangle, rows q = 0..8
    table = [
        [1],
        [0, 1],
        [0, 1, 1],
        [0, 1, 3, 1],
        [0, 1, 7, 6, 1],
        [0, 1, 15, 25, 10, 1],
        [0, 1, 31, 90, 65, 15, 1],
        [0, 1, 63, 301, 350, 140, 21, 1],
        [0, 1, 127, 966, 1701, 1050, 266, 28, 1],
    ]
    for q, row in enumerate(table):
        for k, expected in enumerate(row):
            assert stirling2(q, k) == expected, (q, k)
    for p in range(9):
        for k in range(9):
            direct = prod(range(p - k + 1, p + 1)) if k <= p else 0
            assert falling_factorial(p, k) == direct, (p, k)
    for q in range(9):
        for m in range(9):
            total = sum(
                stirling2(q, j) * falling_factorial(m, j) for j in range(q + 1)
            )
            assert total == m**q, (q, m)
    print("[A9] stirling2 matches the q,k<=8 table, falling factorials match"
          " direct products, and sum_j S(q,j)[m]_j == m^q for q,m<=8: PASS")
