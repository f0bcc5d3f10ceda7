import dataclasses
import tracemalloc

import numpy as np
import pytest

from greenvar.elements import (
    FAMILY_IS,
    CapacityError,
    PartialPerm,
    Transformation,
    empty_map,
    enumerate_family,
    identity,
    parse_element,
)
from greenvar import structure
from greenvar.engine import VariantSemigroup, canonical_labels
from greenvar.structure import (
    DualCheckReport,
    IsoWitness,
    dual_check,
    iso_preserves_classes,
    iso_witness,
    rank_representative,
    verify_isomorphism,
)


def pp(text):
    return parse_element(FAMILY_IS, text)


# ---------------------------------------------------------------------------
# rank representatives


def test_rank_representative_is_identity_prefix():
    assert rank_representative(3, 0) == empty_map(3)
    assert rank_representative(3, 2) == pp("1,2,-")
    assert rank_representative(3, 3) == identity(FAMILY_IS, 3)
    with pytest.raises(ValueError):
        rank_representative(3, 4)


# ---------------------------------------------------------------------------
# duality


def test_dual_check_holds_with_class_correspondence():
    for a_text in ("-,-", "1,-", "2,1"):
        report = dual_check(pp(a_text))
        assert report.holds
        assert report.counterexample is None
        assert report.classes_match


def test_dual_check_rejects_transformations_and_big_n():
    with pytest.raises(TypeError):
        dual_check(Transformation((1, 1)))
    with pytest.raises(CapacityError):
        dual_check(PartialPerm(tuple(range(1, 8))))  # IS_7: past uint16 indices


def test_dual_check_reports_first_failing_pair(monkeypatch):
    # Corrupt the products of universe[1] by universe[5] and of universe[2]
    # by universe[0] in the table for a^{-1}.  universe[0] shares its left
    # factor with universe[1], and universe[4] its right factor with
    # universe[5], so the first failing pair in row-major order is
    # (universe[0], universe[4]), although a failing column 0 comes later.
    a = pp("2,3,-")
    a_inv = a.inverse()
    corrupted = VariantSemigroup(a_inv)
    rows, left_of, right_of = corrupted.table()
    assert left_of[0] == left_of[1] != left_of[2]
    assert right_of[3] != right_of[4] == right_of[5]
    rows = rows.copy()
    for i, j in ((1, 5), (2, 0)):
        rows[left_of[i], right_of[j]] = (rows[left_of[i], right_of[j]] + 1) % corrupted.size
    corrupted._table = rows, left_of, right_of
    genuine = structure.variant_semigroup
    monkeypatch.setattr(
        structure,
        "variant_semigroup",
        lambda x: corrupted if x == a_inv else genuine(x),
    )
    report = dual_check(a)
    assert not report.holds and report.classes_match is None
    universe = enumerate_family(FAMILY_IS, 3)
    assert report.counterexample == (universe[0], universe[4])


def test_dual_check_reports_first_failing_pair_across_blocks(monkeypatch):
    # IS_5 has 1546 elements, so the pairs are compared over four blocks of
    # rows.  At full rank each element is its own left and right factor;
    # corrupt a product in the last block (column 0) and one in the second
    # block (last column): the earlier row is reported, whatever its column.
    a = pp("2,3,4,5,1")
    a_inv = a.inverse()
    corrupted = VariantSemigroup(a_inv)
    rows, left_of, right_of = corrupted.table()
    s = corrupted.size
    assert rows.shape == (s, s) and s > 3 * structure.IDEAL_BLOCK
    rows = rows.copy()
    for i, j in ((s - 1, 0), (structure.IDEAL_BLOCK + 1, s - 1)):
        rows[left_of[i], right_of[j]] = (rows[left_of[i], right_of[j]] + 1) % s
    corrupted._table = rows, left_of, right_of
    genuine = structure.variant_semigroup
    monkeypatch.setattr(
        structure,
        "variant_semigroup",
        lambda x: corrupted if x == a_inv else genuine(x),
    )
    report = dual_check(a)
    assert not report.holds
    universe = enumerate_family(FAMILY_IS, 5)
    assert report.counterexample == (universe[structure.IDEAL_BLOCK + 1], universe[s - 1])


def test_dual_check_memory_bound():
    # IS_5 at full rank: the tables for a and a^{-1} are 1546 x 1546 uint16
    # each (4.8 MB).  The identity is checked a block of rows at a time, so
    # no |S| x |S| dense or permuted copy is formed beside them.
    structure.variant_semigroup.cache_clear()
    structure.brute_classification.cache_clear()
    tracemalloc.start()
    try:
        report = dual_check(pp("2,3,4,5,1"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.holds and report.classes_match
    assert peak <= 25 * 2**20, f"dual_check peaked at {peak / 2**20:.1f} MB"


def _merging_first_two_classes(monkeypatch, target):
    # The brute classifications as structure reads them, by deformation
    # (brute_classification) or from a semigroup (green_classes_brute),
    # with classes 0 and 1 merged for the deformation target only.
    by_a, of_v = structure.brute_classification, structure.green_classes_brute

    def merged(c):
        if c.a != target:
            return c
        assert len(c.sizes) > 2
        return dataclasses.replace(c, labels=canonical_labels(np.where(c.labels == 1, 0, c.labels)))

    monkeypatch.setattr(structure, "brute_classification", lambda *key: merged(by_a(*key)))
    monkeypatch.setattr(structure, "green_classes_brute", lambda v, relation: merged(of_v(v, relation)))


def test_dual_check_class_test_catches_merged_classes(monkeypatch):
    a = pp("2,3,-")
    assert a.inverse() != a
    _merging_first_two_classes(monkeypatch, a.inverse())
    report = dual_check(a)
    assert report.holds and report.classes_match is False


# ---------------------------------------------------------------------------
# isomorphism witnesses


def test_iso_witness_frozen_example():
    a, b = pp("1,2,-"), pp("-,1,2")
    witness = iso_witness(a, b)
    assert witness is not None
    assert witness.g == pp("2,3,1")
    assert witness.h == pp("1,2,3")
    assert witness.g.compose(b).compose(witness.h) == a
    ok, counterexample = verify_isomorphism(witness)
    assert ok and counterexample is None
    assert iso_preserves_classes(witness)


def test_iso_witness_rank_mismatch_returns_none():
    assert iso_witness(pp("1,2,-"), pp("1,-,-")) is None


def test_iso_witness_identity_pair():
    a = pp("1,2,-")
    witness = iso_witness(a, a)
    assert witness.apply(pp("3,-,1")) == pp("3,-,1")
    ok, _ = verify_isomorphism(witness)
    assert ok


def test_iso_witness_construction_rejects_bad_permutations():
    a, b = pp("1,2,-"), pp("-,1,2")
    with pytest.raises(ValueError):
        IsoWitness(a=a, b=b, g=pp("1,2,3"), h=pp("1,2,3"))  # g.b.h misses a
    with pytest.raises(ValueError):
        IsoWitness(a=a, b=b, g=pp("2,3,-"), h=pp("1,2,3"))  # g not a permutation


def test_verify_isomorphism_detects_corrupted_witness():
    # A witness whose h fails g . b . h = a cannot be built legally, so smuggle
    # one past the constructor to prove the checker catches it.
    a, b = pp("1,2,-"), pp("-,1,2")
    genuine = iso_witness(a, b)
    corrupted = object.__new__(IsoWitness)
    object.__setattr__(corrupted, "a", a)
    object.__setattr__(corrupted, "b", b)
    object.__setattr__(corrupted, "g", genuine.g)
    object.__setattr__(corrupted, "h", pp("2,1,3"))
    ok, counterexample = verify_isomorphism(corrupted)
    assert not ok
    # the first failing pair in row-major order over the universe
    assert counterexample == (pp("-,-,1"), pp("-,1,-"))


def test_iso_preserves_classes_catches_merged_classes(monkeypatch):
    a, b = pp("1,2,-"), pp("-,1,2")
    witness = iso_witness(a, b)
    _merging_first_two_classes(monkeypatch, b)
    assert verify_isomorphism(witness) == (True, None)
    assert not iso_preserves_classes(witness)


def test_verify_isomorphism_reports_first_collision():
    # A g that is no permutation makes phi non-injective; the reported pair
    # is the first element whose image an earlier element already took.
    a = pp("1,2,-")
    corrupted = object.__new__(IsoWitness)
    for name, value in (("a", a), ("b", a), ("g", pp("1,2,-")), ("h", pp("1,2,3"))):
        object.__setattr__(corrupted, name, value)
    seen = {}
    for x in enumerate_family(FAMILY_IS, 3):
        fx = corrupted.apply(x)
        if fx in seen:
            expected = (seen[fx], x)
            break
        seen[fx] = x
    assert verify_isomorphism(corrupted) == (False, expected)


def test_iso_witness_size_mismatch_rejected():
    with pytest.raises(ValueError):
        iso_witness(pp("1,2"), pp("1,2,-"))


def test_iso_witness_rank_zero_pair():
    witness = iso_witness(empty_map(3), empty_map(3))
    ok, _ = verify_isomorphism(witness)
    assert ok and iso_preserves_classes(witness)


def test_index_maps_match_the_element_maps():
    for n in (1, 2, 3, 4):
        universe = enumerate_family(FAMILY_IS, n)
        position = {x: i for i, x in enumerate(universe)}
        assert structure._inversion_map(n).tolist() == [
            position[x.inverse()] for x in universe
        ]
        for a, b in ((universe[0], universe[0]), (universe[-1], universe[len(universe) // 2])):
            witness = iso_witness(a, b)
            if witness is not None:
                assert structure._iso_map(witness).tolist() == [
                    position[witness.apply(x)] for x in universe
                ]


def test_seeded_equal_rank_pairs_n3():
    import random

    rng = random.Random(7)
    by_rank: dict[int, list] = {}
    for x in enumerate_family(FAMILY_IS, 3):
        by_rank.setdefault(x.rank, []).append(x)
    for _ in range(5):
        k = rng.randint(1, 3)
        a, b = rng.choice(by_rank[k]), rng.choice(by_rank[k])
        witness = iso_witness(a, b)
        ok, _ = verify_isomorphism(witness)
        assert ok and iso_preserves_classes(witness)
