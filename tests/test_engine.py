import collections
import dataclasses
import itertools
import random
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import class_lists, kernel_types
from hypothesis import given, settings, strategies as st

from greenvar import classes, engine
from greenvar.elements import (
    FAMILY_IS,
    FAMILY_T,
    CapacityError,
    PartialPerm,
    Transformation,
    empty_map,
    enumerate_family,
    identity,
    parse_element,
    universe_images,
)
from greenvar.closedform_is import closed_classification_is
from greenvar.closedform_t import closed_classification_t
from greenvar.counts import summarize_classes_by_rank
from greenvar.structure import rank_representative
from greenvar.engine import (
    RELATIONS,
    GreenClassification,
    VariantSemigroup,
    _bits,
    _egg_boxes,
    _sxs_rows,
    canonical_labels,
    all_egg_boxes,
    brute_classification,
    egg_box,
    green_classes_brute,
    variant_product,
    variant_semigroup,
    verify_d_equals_j,
)


def pp(text):
    return parse_element(FAMILY_IS, text)


def tr(text):
    return parse_element(FAMILY_T, text)


# ---------------------------------------------------------------------------
# the deformed product


def test_variant_product_chains_through_a():
    x, a, y = pp("2,-,1"), pp("1,2,-"), pp("3,1,2")
    assert variant_product(x, a, y) == x.compose(a).compose(y)
    assert str(variant_product(x, a, y)) == "1,-,3"


def test_product_table_matches_direct_products():
    # The last column says whether x -> x . a is injective, that is whether
    # the table has |Sa| = |S| distinct left factors.  In T_n at rank r the
    # table is r^n x n^r (|Sa| x |aS|); in IS_n both sides have one size.
    for family, n, a_text, injective in (
        (FAMILY_IS, 2, "1,-", False),
        (FAMILY_IS, 3, "1,2,-", False),
        (FAMILY_T, 2, "1,1", False),
        (FAMILY_T, 3, "2,1,2", False),
        (FAMILY_T, 4, "1,2,1,2", False),
        (FAMILY_T, 4, "2,4,1,3", True),
        (FAMILY_IS, 4, "-,-,-,-", False),
        (FAMILY_IS, 4, "3,1,4,2", True),
    ):
        a = parse_element(family, a_text)
        v = variant_semigroup(a)
        rows, left_of, right_of = v.table()
        assert rows.dtype == left_of.dtype == right_of.dtype == np.uint16  # |S| < 65,536
        assert left_of.shape == right_of.shape == (v.size,)
        assert set(left_of.tolist()) == set(range(rows.shape[0]))
        assert set(right_of.tolist()) == set(range(rows.shape[1]))
        if family == FAMILY_T:
            rank = len(set(a.images))
            assert rows.shape == (rank**n, n**rank)
        else:
            assert rows.shape[0] == rows.shape[1]
        assert (len(rows) == v.size) == injective
        universe = enumerate_family(family, n)
        for i, x in enumerate(universe):
            for j, y in enumerate(universe):
                assert universe[rows[left_of[i], right_of[j]]] == variant_product(x, a, y)


def _traced_peak(fn):
    # numpy reports its buffers to tracemalloc, so the peak is deterministic.
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_product_table_memory_bound():
    # T_5 with a rank-3 deformation has |Sa| = 243 distinct left factors and
    # |aS| = 125 distinct right factors of 3125 elements.  The 243 x 125
    # table of their products is 59 KB of uint16 and its build peaks at
    # 0.23 MB; the 243 x 3125 block of products by every element was 1.5 MB
    # and peaked at 2.3 MB, a dense table would be 20 MB, and going through
    # an (s, s, n) int8 product array and its int64 copy peaks near 490 MB.
    v = VariantSemigroup(tr("1,1,2,2,3"))
    peak = _traced_peak(v.table)
    assert v.table()[0].shape == (243, 125)
    assert peak <= 0.5 * 2**20, f"table build peaked at {peak / 2**20:.2f} MB"
    # Every classification on a fresh semigroup, table included: r and l
    # group the packed rows and columns of the table, only the elements
    # inside their own ideal (the singleton lemma), and j ORs its ideals a
    # block of elements at a time.  Each peaks at 0.63 to 0.74 MB, most of
    # it one block of bool rows before packing; packing |S| ideal rows
    # peaked at 5.7 MB, and j at 5.8 MB.
    for relation in RELATIONS:
        fresh = VariantSemigroup(tr("1,1,2,2,3"))
        peak = _traced_peak(lambda: green_classes_brute(fresh, relation))
        assert peak <= 1.25 * 2**20, f"{relation} classification peaked at {peak / 2**20:.2f} MB"


def test_full_rank_l_memory_bound():
    # At full rank |Sa| = |aS| = |S|, so the table alone is 3125 x 3125
    # uint16 (19.5 MB).  l packs the columns of the table a block at a time,
    # from views of the table, and keeps them (1.2 MB): an unblocked test or
    # column gather reached 39.3 MB.
    v = VariantSemigroup(tr("2,3,4,5,1"))
    peak = _traced_peak(lambda: green_classes_brute(v, "l"))
    assert len(v.table()[0]) == v.size
    assert peak <= 24 * 2**20, f"l classification peaked at {peak / 2**20:.1f} MB"


def test_full_rank_j_memory_bound():
    # At full rank the table alone is 19.5 MB.  j ORs whole factor rows
    # once per distinct packed column (31 of them), and the packed rows and
    # columns it reads are 1.2 MB each, so nothing of |S| x |S| size is
    # formed beside the table: a float32 product over blocks of factor-row
    # columns peaked near 29 MB, and dense bool and float32 matrices at 107 MB.
    v = VariantSemigroup(tr("2,3,4,5,1"))
    peak = _traced_peak(lambda: green_classes_brute(v, "j"))
    assert len(v.table()[0]) == v.size
    assert peak <= 27 * 2**20, f"j classification peaked at {peak / 2**20:.1f} MB"


def test_table_rejects_a_product_outside_the_universe_under_optimize():
    # universe_index maps an image row that is no element to -1.  The table
    # checks the int32 indices of each block before storing them as uint16,
    # where a -1 would become 65,535 and pass any range check; python -O
    # must not drop the check either.
    rows, left_of, right_of = VariantSemigroup(tr("1,1,2")).table()
    target = int(rows[left_of[-1], right_of[-1]])  # some product's index
    script = f"""
import numpy as np
from greenvar import elements
from greenvar.engine import VariantSemigroup

genuine = elements._index_lookup("t", 3)
corrupted = np.where(genuine == {target}, -1, genuine)
elements._index_lookup = lambda family, n: corrupted
try:
    VariantSemigroup(elements.parse_element("t", "1,1,2")).table()
except AssertionError as exc:
    print("raised:", exc)
"""
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "raised: a product left the universe\n"


def test_variant_semigroup_cache_returns_same_object():
    a = pp("1,2,-")
    assert variant_semigroup(a) is variant_semigroup(a)


# ---------------------------------------------------------------------------
# naive oracle: ideals computed by plain triple loops, classes from scratch


def naive_ideals(family, n, a):
    universe = enumerate_family(family, n)
    right, left, two = {}, {}, {}
    for x in universe:
        r = {x} | {variant_product(x, a, s) for s in universe}
        l = {x} | {variant_product(s, a, x) for s in universe}
        t = r | l | {
            variant_product(variant_product(s, a, x), a, u)
            for s in universe
            for u in universe
        }
        right[x], left[x], two[x] = frozenset(r), frozenset(l), frozenset(t)
    return right, left, two


def naive_partition(universe, key):
    groups = {}
    for x in universe:
        groups.setdefault(key(x), []).append(x)
    return sorted(tuple(sorted(g)) for g in groups.values())


def naive_d_partition(universe, right, left):
    # transitive closure of (same right ideal) union (same left ideal)
    classes = {x: {x} for x in universe}
    changed = True
    while changed:
        changed = False
        for x, y in itertools.combinations(universe, 2):
            if classes[x] is classes[y]:
                continue
            linked = right[x] == right[y] or left[x] == left[y] or any(
                right[x] == right[z] or left[x] == left[z] for z in classes[y]
            )
            if linked:
                merged = classes[x] | classes[y]
                for z in merged:
                    classes[z] = merged
                changed = True
    seen = []
    for x in universe:
        cls = tuple(sorted(classes[x]))
        if cls not in seen:
            seen.append(cls)
    return sorted(seen)


@pytest.mark.parametrize("family", (FAMILY_IS, FAMILY_T))
def test_brute_classes_match_naive_oracle_n2(family):
    n = 2
    for a in enumerate_family(family, n):
        universe = enumerate_family(family, n)
        right, left, two = naive_ideals(family, n, a)
        expected = {
            "r": naive_partition(universe, right.get),
            "l": naive_partition(universe, left.get),
            "h": naive_partition(universe, lambda x: (right[x], left[x])),
            "d": naive_d_partition(universe, right, left),
            "j": naive_partition(universe, two.get),
        }
        for relation in RELATIONS:
            got = brute_classification(a, relation)
            assert list(map(tuple, class_lists(got, universe))) == expected[relation], (
                a, relation
            )


def naive_labels(ideals):
    # Class ids for a list of ideals as sets: equal sets share an id, and
    # ids are numbered by least member.
    ids = {}
    return [ids.setdefault(ideal, len(ids)) for ideal in ideals]


def test_singleton_lemma_matches_naive_ideals(monkeypatch):
    # r, l and j group only the x inside their own ideal xS (Sx, and
    # xS | Sx | SxS) and give every other x a class of its own.  Against
    # partitions by the explicit sets {x} | x *_a S, {x} | S *_a x and
    # {x} | xS | Sx | SxS: every a at n <= 3 in both families, the constant
    # a with |Sa| = 1 among them, plus seeded a at n = 4.  SxS is the union
    # of uS over u in Sx, taken once per set Sx.  Each universe fits one
    # IDEAL_BLOCK, so j's ideals are also built seven elements at a time,
    # across block seams.
    rng = random.Random(12)
    cases = [(family, n, a) for family in (FAMILY_IS, FAMILY_T) for n in (1, 2, 3)
             for a in enumerate_family(family, n)]
    cases += [(family, 4, a) for family in (FAMILY_IS, FAMILY_T)
              for a in rng.sample(enumerate_family(family, 4), 2)]
    assert (FAMILY_T, 3, tr("1,1,1")) in cases
    for family, n, a in cases:
        universe = enumerate_family(family, n)
        x_s = {x: frozenset(variant_product(x, a, y) for y in universe) for x in universe}
        s_x = {x: frozenset(variant_product(y, a, x) for y in universe) for x in universe}
        s_x_s = {}
        for sx in s_x.values():
            if sx not in s_x_s:
                s_x_s[sx] = frozenset().union(*(x_s[u] for u in sx))
        right = [x_s[x] | {x} for x in universe]
        left = [s_x[x] | {x} for x in universe]
        two = [x_s[x] | s_x[x] | s_x_s[s_x[x]] | {x} for x in universe]
        for block in (engine.IDEAL_BLOCK, 7):
            monkeypatch.setattr(engine, "IDEAL_BLOCK", block)
            v = VariantSemigroup(a)
            for relation, ideals in (("r", right), ("l", left), ("j", two)):
                labels = green_classes_brute(v, relation).labels.tolist()
                assert labels == naive_labels(ideals), (family, n, str(a), relation, block)
            monkeypatch.undo()


def naive_sxs(v, reps):
    # S x S for each x in reps as a set of universe indices, from object
    # products: Sx first, then the union of yS over y in Sx.
    universe = enumerate_family(v.family, v.n)
    index = {x: i for i, x in enumerate(universe)}
    table = [[index[variant_product(x, v.a, y)] for y in universe] for x in universe]
    right = [set(row) for row in table]
    return [set().union(*(right[y] for y in {row[x] for row in table})) for x in reps]


def test_sxs_rows_match_naive_sets():
    # Every a at n <= 3 in both families with every x, plus seeded a and x
    # at n = 4.  The unions are kept once per distinct set Sx and read
    # through each right factor, so the grouping of the right factors is
    # exercised as well as each union.
    rng = random.Random(7)
    cases = [(family, n, a, None) for family in (FAMILY_IS, FAMILY_T) for n in (1, 2, 3)
             for a in enumerate_family(family, n)]
    cases += [(family, 4, a, rng.sample(range(len(enumerate_family(family, 4))), 24))
              for family in (FAMILY_IS, FAMILY_T)
              for a in rng.sample(enumerate_family(family, 4), 2)]
    for family, n, a, reps in cases:
        v = VariantSemigroup(a)
        reps = np.arange(v.size) if reps is None else np.array(reps)
        rows, _, right_of = v.table()
        unions, set_of = _sxs_rows(v)
        assert set_of.shape == (rows.shape[1],)  # one union id per right factor
        assert len(unions) == len(set(set_of.tolist()))  # one union per set Sx
        sxs = np.unpackbits(unions[set_of[right_of[reps]]], axis=1, count=v.size)
        expected = np.zeros((len(reps), v.size), dtype=np.uint8)
        for row, members in zip(expected, naive_sxs(v, reps.tolist())):
            row[list(members)] = 1
        assert np.array_equal(sxs, expected), (family, n, str(a))


# ---------------------------------------------------------------------------
# frozen small classifications


def test_t2_constant_deformation_classes():
    a = tr("1,1")
    universe = enumerate_family(FAMILY_T, 2)
    r = brute_classification(a, "r")
    assert class_lists(r, universe) == [
        [tr("1,1"), tr("2,2")],
        [tr("1,2")],
        [tr("2,1")],
    ]
    d = brute_classification(a, "d")
    assert class_lists(d, universe) == class_lists(r, universe)


def test_is2_identity_d_sizes():
    d = brute_classification(pp("1,2"), "d")
    assert d.sizes == (1, 4, 2)


def test_rank_zero_deformation_all_singletons():
    for relation in RELATIONS:
        c = brute_classification(empty_map(3), relation)
        assert c.singleton_count == 34


# ---------------------------------------------------------------------------
# classification invariants


def test_classification_validates_partition():
    a = pp("1,2")
    good = brute_classification(a, "r")
    k = len(good.sizes)
    assert k > 2

    def build(labels):
        return GreenClassification(a=a, relation="r", method="brute", labels=labels)

    assert build(good.labels.tolist()).same_partition(good)
    for not_a_partition in (
        good.labels[:-1],  # an element without a class
        np.append(good.labels, 0),  # a label beyond the universe
        np.where(good.labels == k - 1, k, good.labels),  # id k - 1 unused
        np.where(good.labels == k - 1, -1, good.labels),  # a negative id
    ):
        with pytest.raises(ValueError):
            build(not_a_partition)
    swapped = np.where(good.labels == 0, 1, np.where(good.labels == 1, 0, good.labels))
    with pytest.raises(ValueError):
        build(swapped)  # ids 0 and 1 exchanged: classes out of canonical order
    with pytest.raises(ValueError):
        good.labels[0] = 1  # the labels are read-only


def test_class_sizes_cover_universe():
    for family, n in ((FAMILY_IS, 3), (FAMILY_T, 3)):
        for a in enumerate_family(family, n)[:5]:
            for relation in RELATIONS:
                c = brute_classification(a, relation)
                assert sum(c.sizes) == len(enumerate_family(family, n))


# Universes small enough to key at random: (family, n, identity text, size).
_SMALL_UNIVERSES = (("t", 1, "1", 1), ("is", 1, "1", 2), ("is", 2, "1,2", 7),
                    ("t", 3, "1,2,3", 27), ("is", 3, "1,2,3", 34))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_SMALL_UNIVERSES).flatmap(lambda u: st.tuples(
    st.just(u),
    st.lists(st.tuples(st.integers(-3, 3), st.booleans()), min_size=u[3], max_size=u[3]),
)))
def test_masked_grouping_equals_full_grouping(case):
    # Rows outside the mask are singletons whatever their keys; keyed apart
    # from every other row instead and grouped in full, they give the same
    # labels, and the classifications agree on counts, sizes and singletons.
    (family, _, a, size), rows = case
    keys = np.array([key for key, _ in rows], dtype=np.int64)
    inside = np.array([mine for _, mine in rows])
    apart = np.where(inside, keys, keys.max() + 1 + np.arange(size))
    masked, whole = canonical_labels(keys, inside), canonical_labels(apart)
    assert np.array_equal(masked, whole)
    assert np.array_equal(canonical_labels(keys), canonical_labels(keys, np.ones(size, bool)))
    c, d = (GreenClassification(a=parse_element(family, a), relation="r", method="brute",
                                labels=labels) for labels in (masked, whole))
    assert np.array_equal(c.counts, d.counts) and not c.counts.flags.writeable
    assert c.sizes == d.sizes == tuple(np.bincount(whole).tolist())
    assert c.singleton_count == d.singleton_count == c.sizes.count(1)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_SMALL_UNIVERSES).flatmap(lambda u: st.tuples(
    st.just(u),
    st.lists(st.integers(0, 4), min_size=u[3], max_size=u[3]),
    st.integers(0, u[3] - 1),
    st.integers(-1, 6),
    st.sampled_from((1, 2, 3, 7, 1 << 16)),
)))
def test_numbering_check_reads_the_labels_a_block_at_a_time(case):
    # Valid labels with one entry replaced, which may break the numbering by
    # least member at any offset in a block of any size, or make an id
    # negative or unused: the check takes exactly the arrays a check of the
    # whole array at once takes, and takes over the caller's int64 labels
    # without copying them, leaving them read-only once they pass.
    (family, _, a, size), keys, at, label, block = case
    labels = canonical_labels(np.array(keys, dtype=np.int64))
    labels[at] = label
    top, numbered = -1, True
    for x in labels.tolist():
        numbered &= 0 <= x <= top + 1
        top = max(top, x)
    with mock.patch.object(classes, "_CHECK_BLOCK", block):
        if not numbered:
            with pytest.raises(ValueError):
                GreenClassification(a=parse_element(family, a), relation="r", method="brute",
                                    labels=labels)
            return
        c = GreenClassification(a=parse_element(family, a), relation="r", method="brute",
                                labels=labels)
    assert c.labels is labels and not labels.flags.writeable
    assert c.sizes == tuple(np.bincount(labels).tolist())


def test_class_of_and_accessors():
    c = brute_classification(tr("1,1"), "r")
    assert c.class_of(tr("2,2")) == (tr("1,1"), tr("2,2"))
    assert c.class_of(tr("2,1")) == (tr("2,1"),)
    assert c.sizes == (2, 1, 1)
    assert c.singleton_count == 2


def test_class_of_rejects_an_element_outside_the_universe():
    # Another family or another n: the element has no universe index here.
    # Extra images must not be ignored, and no lookup miss (-1) may read the
    # last label.
    t2 = brute_classification(tr("1,1"), "r")
    is2 = closed_classification_is(pp("1,-"), "r")
    for c, x in (
        (t2, pp("1,2")),  # an IS_2 element
        (t2, tr("1,1,1")),  # n = 3
        (t2, tr("1")),  # n = 1
        (is2, tr("1,2")),  # a T_2 element
        (is2, pp("2,1,-")),  # n = 3
    ):
        with pytest.raises(ValueError):
            c.class_of(x)
    v = variant_semigroup(tr("1,1"))
    for x in (pp("1,2"), tr("1,1,1")):
        with pytest.raises(ValueError):
            egg_box(v, x)


def test_first_divergence_matches_naive_scan():
    # The literal d description drifts from brute force at most
    # deformations; the first divergence is the least element whose two
    # classes differ as sets.
    for family, n, closed in (
        (FAMILY_IS, 3, closed_classification_is),
        (FAMILY_T, 3, closed_classification_t),
    ):
        universe = enumerate_family(family, n)
        for a in universe:
            brute = brute_classification(a, "d")
            literal = closed(a, "d", "literal")
            expected = next(
                (
                    i
                    for i, x in enumerate(universe)
                    if set(literal.class_of(x)) != set(brute.class_of(x))
                ),
                None,
            )
            assert literal.first_divergence(brute) == expected, (family, str(a))
            assert brute.first_divergence(literal) == expected
            assert (expected is None) == literal.same_partition(brute)


def test_d_equals_j_spot_checks():
    for family, n, a_text in ((FAMILY_IS, 3, "1,2,-"), (FAMILY_T, 3, "1,1,2")):
        a = parse_element(family, a_text)
        ok, witness = verify_d_equals_j(variant_semigroup(a))
        assert ok and witness is None


def test_d_equals_j_reports_a_witness_when_j_disagrees(monkeypatch):
    # With j's first two classes merged, the first element whose class
    # differs is universe[0]; it shares its j-class, but not its d-class,
    # with the least member of d-class 1.
    genuine = engine.green_classes_brute

    def merged_j(v, relation):
        c = genuine(v, relation)
        if relation != "j":
            return c
        return dataclasses.replace(c, labels=canonical_labels(np.where(c.labels == 1, 0, c.labels)))

    monkeypatch.setattr(engine, "green_classes_brute", merged_j)
    v = VariantSemigroup(tr("1,1,2"))
    d = genuine(v, "d")
    ok, witness = verify_d_equals_j(v)
    universe = enumerate_family(FAMILY_T, 3)
    assert not ok
    assert witness == (universe[0], universe[int(np.argmax(d.labels == 1))])


# ---------------------------------------------------------------------------
# egg boxes


def grids(boxes):
    """Each box of an EggBoxes record as a list of rows, each row a list of
    cells, each cell a list of universe indices: the reference reading of
    the layout's offsets."""
    members, first, rows, cols, cells = (x.tolist() for x in boxes)
    out = []
    for b in range(len(first) - 1):
        width = cols[b + 1] - cols[b]
        row = [members[cells[c] : cells[c + 1]] for c in range(first[b], first[b + 1])]
        out.append([row[i : i + width] for i in range(0, len(row), width)])
    return out


# Both families at n = 3 and n = 4: the number of d-classes and the count
# of each (rows, columns, members) shape, as the tuple layout gave them.
FROZEN_SHAPES = {
    (FAMILY_IS, "1,2,-"): (24, {
        (1, 1, 1): 16, (1, 1, 2): 1, (1, 2, 2): 3, (2, 1, 2): 3, (2, 2, 4): 1,
    }),
    (FAMILY_T, "1,1,2"): (12, {
        (1, 1, 1): 8, (1, 3, 3): 1, (1, 4, 4): 1, (2, 2, 8): 1, (4, 1, 4): 1,
    }),
    (FAMILY_IS, "2,3,-,1"): (115, {
        (1, 1, 1): 98, (1, 1, 6): 1, (1, 3, 3): 1, (1, 6, 6): 6, (3, 1, 3): 1, (3, 3, 9): 1,
        (3, 3, 18): 1, (6, 1, 6): 6,
    }),
    (FAMILY_T, "1,1,2,3"): (72, {
        (1, 1, 1): 62, (1, 4, 4): 1, (1, 10, 10): 1, (1, 12, 12): 3, (3, 2, 36): 1,
        (6, 5, 60): 1, (12, 1, 12): 1, (18, 1, 18): 2,
    }),
}


def test_egg_box_grid_invariants():
    for family, a_text in FROZEN_SHAPES:
        _check_grid_invariants(parse_element(family, a_text))


def _check_grid_invariants(a):
    v = variant_semigroup(a)
    r, l, h, d = (brute_classification(a, rel).labels for rel in "rlhd")
    counts = {rel: brute_classification(a, rel).counts for rel in "rlhd"}
    boxes = all_egg_boxes(v)
    members, first, rows, cols, cells = boxes
    # The offsets are CSR: each starts at 0, never falls, and ends at the
    # length of what it indexes; every box has height x width cells.
    for offsets, end in ((first, len(cells) - 1), (cells, v.size), (rows, None), (cols, None)):
        assert offsets[0] == 0 and (np.diff(offsets) >= 0).all()
        assert end is None or offsets[-1] == end
    assert len(first) == len(rows) == len(cols) == len(counts["d"]) + 1
    assert (np.diff(first) == np.diff(rows) * np.diff(cols)).all()
    assert sorted(members.tolist()) == list(range(v.size))
    for b, grid in enumerate(grids(boxes)):
        box = [x for row in grid for cell in row for x in cell]
        # Box b is d-class b, led by its least member.
        assert box[0] == min(box) and set(d[box]) == {b} and len(box) == counts["d"][b]
        row_sets = [[x for cell in row for x in cell] for row in grid]
        col_sets = [[x for row in grid for x in row[j]] for j in range(len(grid[0]))]
        for lines, labels, rel in ((row_sets, r, "r"), (col_sets, l, "l")):
            # Each line is one whole class, and lines go by least member.
            assert [min(line) for line in lines] == sorted(min(line) for line in lines)
            for line in lines:
                assert len(set(labels[line])) == 1 and len(line) == counts[rel][labels[line[0]]]
        for i, row in enumerate(grid):
            for j, cell in enumerate(row):
                # d = r compose l in any semigroup, so no cell is empty; each
                # cell is the h-class where its row and column cross, ascending.
                assert cell == sorted(set(row_sets[i]) & set(col_sets[j]))
                assert cell and len(set(h[cell])) == 1 and len(cell) == counts["h"][h[cell[0]]]


def test_egg_boxes_pack_r_and_l_rows_once(monkeypatch):
    # h and d read the r and l classes that the semigroup already holds, so
    # grouping each relation once serves every egg box; a fresh semigroup
    # still classifies h and d on its own.  r packs the factor rows and l
    # the factor columns: at rank 4 in T_5 those are 1024 rows of 625
    # entries and 625 columns of 1024, so each _pack is told apart by shape.
    packs = []
    genuine = engine._pack
    monkeypatch.setattr(
        engine, "_pack", lambda members, s: packs.append(members.shape) or genuine(members, s)
    )
    a = tr("1,1,2,3,4")
    brute_classification.cache_clear()
    variant_semigroup.cache_clear()
    all_egg_boxes(variant_semigroup(a))
    r, l = (1024, 625), (625, 1024)
    assert packs == [r, l]
    for relation in ("h", "d"):
        fresh = green_classes_brute(VariantSemigroup(a), relation)
        assert fresh.same_partition(brute_classification(a, relation))
    assert packs == [r, l] * 3


def test_factor_rows_packed_once_per_semigroup(monkeypatch):
    # r packs the factor rows and l the factor columns, and the semigroup
    # keeps both; j (and the SxS unions inside it) reads the same arrays
    # instead of packing again.
    v = VariantSemigroup(tr("1,1,2"))
    green_classes_brute(v, "r")
    green_classes_brute(v, "l")
    rows, cols = v.factor_rows, v.factor_cols
    table = v.table()[0]
    assert np.array_equal(np.unpackbits(rows, axis=1, count=v.size), _bits(table, v.size))
    assert np.array_equal(np.unpackbits(cols, axis=1, count=v.size), _bits(table.T, v.size))
    packs = []
    genuine = engine._pack
    monkeypatch.setattr(engine, "_pack", lambda members, s: packs.append(s) or genuine(members, s))
    green_classes_brute(v, "j")
    assert v.factor_rows is rows and v.factor_cols is cols
    assert packs == []


def test_factor_col_ids_computed_once_per_semigroup(monkeypatch):
    # l and the SxS unions of j group the same packed columns, so both read
    # the semigroup's one factor_col_ids instead of calling _row_ids on them.
    v = VariantSemigroup(tr("1,1,2"))
    genuine = engine._row_ids
    grouped = []
    monkeypatch.setattr(
        engine, "_row_ids", lambda packed, seen=None: grouped.append(packed) or genuine(packed, seen)
    )
    for relation in "lj":
        green_classes_brute(v, relation)
    assert sum(packed is v.factor_cols for packed in grouped) == 1
    assert np.array_equal(v.factor_col_ids, genuine(v.factor_cols))


def test_j_does_not_classify_l():
    # j reads Sx from the factor columns, keyed by right factor, so it
    # needs no l labels: a fresh semigroup's j leaves l unclassified.
    for family, n, a_text in ((FAMILY_T, 4, "1,1,2,3"), (FAMILY_IS, 4, "2,3,-,1")):
        v = VariantSemigroup(parse_element(family, a_text))
        green_classes_brute(v, "j")
        assert list(v._classes) == ["j"]  # no l (nor r) classification


def test_each_relation_classified_once_per_semigroup(monkeypatch):
    # v keeps every classification it is asked for: asking again, directly
    # or through h, d, j and the egg boxes, returns the stored object.
    built = []
    genuine = engine.GreenClassification
    monkeypatch.setattr(
        engine, "GreenClassification", lambda **kw: built.append(kw["relation"]) or genuine(**kw)
    )
    v = VariantSemigroup(pp("2,3,-"))
    first = {relation: green_classes_brute(v, relation) for relation in RELATIONS}
    all_egg_boxes(v)
    egg_box(v, pp("1,-,-"))
    verify_d_equals_j(v)
    assert all(green_classes_brute(v, relation) is first[relation] for relation in RELATIONS)
    assert sorted(built) == sorted(RELATIONS)


def test_egg_boxes_read_the_semigroup_they_are_given(monkeypatch):
    # A semigroup built directly lays out its own egg boxes: its table is
    # built, and no other semigroup or table is.
    variant_semigroup.cache_clear()
    brute_classification.cache_clear()
    tables = []
    genuine = VariantSemigroup.table
    monkeypatch.setattr(
        VariantSemigroup, "table",
        lambda self: (self._table is None and tables.append(self)) or genuine(self),
    )
    v = VariantSemigroup(tr("1,1,2,3"))
    boxes = all_egg_boxes(v)
    assert tables == [v]
    assert variant_semigroup.cache_info().misses == brute_classification.cache_info().misses == 0
    last = grids(boxes)[-1]
    x = enumerate_family(FAMILY_T, 4)[last[0][0][0]]
    assert grids(egg_box(v, x)) == [last]
    assert tables == [v]


def test_egg_box_frozen_shapes():
    v = variant_semigroup(tr("1,1"))
    box = egg_box(v, tr("2,2"))
    assert [x.tolist() for x in box] == [[0, 3], [0, 2], [0, 1], [0, 2], [0, 1, 2]]
    assert enumerate_family(FAMILY_T, 2)[box.members[0]] == tr("1,1")

    v3 = variant_semigroup(pp("1,2,-"))
    box3 = egg_box(v3, pp("1,-,-"))
    assert [x.tolist() for x in box3[1:4]] == [[0, 4], [0, 2], [0, 2]]
    assert [len(cell) for row in grids(box3)[0] for cell in row] == [1, 1, 1, 1]

    ve = all_egg_boxes(variant_semigroup(empty_map(2)))
    assert len(ve.boxes) == 8 and (np.diff(ve.cells) == 1).all()
    assert ve.members.tolist() == list(range(7))

    for (family, a_text), shapes in FROZEN_SHAPES.items():
        boxes = all_egg_boxes(variant_semigroup(parse_element(family, a_text)))
        sizes = np.diff(boxes.cells[boxes.boxes]).tolist()
        rows, cols = np.diff(boxes.rows).tolist(), np.diff(boxes.cols).tolist()
        assert (len(sizes), collections.Counter(zip(rows, cols, sizes))) == shapes, a_text


def test_egg_box_rejects_non_d_class():
    r, l = (brute_classification(tr("1,1"), rel) for rel in "rl")
    _egg_boxes(np.array([0, 3]), np.zeros(2, dtype=np.int64), r, l)  # the d-class of 1,1
    with pytest.raises(ValueError):
        _egg_boxes(np.array([0]), np.zeros(1, dtype=np.int64), r, l)  # a proper subset


def test_egg_box_rejects_non_d_class_under_O():
    # The check is a raise, not an assert, so python -O keeps it.
    script = """
import numpy as np
from greenvar import engine, elements
r, l = (engine.brute_classification(elements.parse_element("t", "1,1"), rel) for rel in "rl")
try:
    engine._egg_boxes(np.array([0]), np.zeros(1, dtype=np.int64), r, l)
except ValueError as exc:
    print("raised:", exc)
"""
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "raised: a box is not a union of r- and l-classes\n"


# ---------------------------------------------------------------------------
# census summaries


def test_summarize_classes_by_rank():
    summary = summarize_classes_by_rank(
        brute_classification(pp("1,2,-"), "r")
    )
    assert summary.singleton_count == 22
    assert summary.multi_class_count == 6
    assert summary.size_lines == ((1, 2, 3), (2, 2, 3))


# ---------------------------------------------------------------------------
# the size rule and the table spot check


def test_brute_capacity_cap():
    # T_6 at full rank needs a 46,656^2 table: over the budget, naming a.
    message = r"T_6 at a = 2,3,4,5,6,1 needs 4,670\.9 MiB, over the 512 MiB budget"
    with pytest.raises(CapacityError, match=message):
        green_classes_brute(variant_semigroup(tr("2,3,4,5,6,1")), "r")


def test_brute_cap_refused_before_listing():
    # The size rule is the one resource rule: a semigroup it refuses is
    # refused before its universe is listed, as elements or as an image array.
    enumerate_family.cache_clear()
    universe_images.cache_clear()
    with pytest.raises(CapacityError):
        variant_semigroup(tr("2,3,4,5,6,1"))
    assert enumerate_family.cache_info().misses == 0
    assert universe_images.cache_info().misses == 0


def test_brute_rule_refuses_past_uint16_indices():
    # A T_7 constant map predicts under 1 MiB, but T_7's indices would wrap
    # in the uint16 table.
    assert 2 * 1 * 7 + (1 + 7) * (7**7 + 7) // 8 < 2**20 < engine.BRUTE_BUDGET  # |Sa|, |aS| = 1, 7
    with pytest.raises(CapacityError, match="T_7 needs more than uint16 indices: 823543 elements"):
        VariantSemigroup(Transformation((1,) * 7))


def test_brute_rule_admits_every_n5_semigroup_and_n6_below_full_t_rank():
    # T_5 at full rank predicts 21.0 MiB; every n = 6 semigroup but T_6 at
    # full rank fits the budget, IS_6 at full rank included.
    for a in (tr("2,3,4,5,1"), pp("2,3,4,5,1"), tr("1,2,3,4,5,5"), pp("1,2,3,4,5,6")):
        engine.check_brute_cost(a)


@pytest.mark.parametrize("family, n", [(FAMILY_IS, n) for n in range(1, 6)]
                         + [(FAMILY_T, n) for n in range(1, 6)])
def test_factor_counts_are_the_table_shape(family, n):
    # One deformation per IS_n rank and per T_n kernel type: the rule's
    # predicted (|Sa|, |aS|) is the shape of the table it sizes.
    if family == FAMILY_IS:
        deformations = [rank_representative(n, k) for k in range(n + 1)]
    else:
        deformations = kernel_types(n)
    for a in deformations:
        assert engine.check_brute_cost(a) == VariantSemigroup(a).table()[0].shape, str(a)


def test_table_spot_check_catches_a_corrupted_pick_pair():
    v = VariantSemigroup(tr("1,1,2"))
    rows, left_of, right_of = v.table()
    v._spot_check_associativity(rows, left_of, right_of)  # the genuine table passes
    s = v.size
    for i, j in ((0, s - 1), (s // 2, s // 3), (s - 1, 0)):
        corrupted = rows.copy()
        corrupted[left_of[i], right_of[j]] = (corrupted[left_of[i], right_of[j]] + 1) % s
        with pytest.raises(AssertionError):
            v._spot_check_associativity(corrupted, left_of, right_of)
    # Another deformation's table is associative, but not the product for a.
    other = VariantSemigroup(tr("1,2,3"))
    with pytest.raises(AssertionError, match="disagrees"):
        v._spot_check_associativity(*other.table())


def test_relation_name_checked():
    v = variant_semigroup(tr("1,1"))
    with pytest.raises(ValueError):
        green_classes_brute(v, "q")
