import dataclasses
import doctest
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from greenvar import closedform_is, closedform_t, elements, engine, structure
from greenvar.elements import (
    FAMILY_IS,
    FAMILY_T,
    CapacityError,
    ParseError,
    PartialPerm,
    Transformation,
    compose,
    constant,
    empty_map,
    enumerate_family,
    family_element,
    family_of,
    family_size,
    format_element,
    identity,
    parse_element,
    range_masks,
    universe_chars,
    universe_domains,
    universe_images,
    universe_index,
    universe_kernels,
    universe_ranges,
)


def test_doctests_pass():
    for mod in (elements, engine, closedform_is, closedform_t, structure):
        result = doctest.testmod(mod)
        assert result.failed == 0, f"doctest failures in {mod.__name__}"


# ---------------------------------------------------------------------------
# composition is left to right


def test_transformation_composition_left_to_right():
    x = Transformation((2, 3, 1))
    y = Transformation((1, 1, 2))
    # (x . y)(i) = y(x(i))
    assert x.compose(y) == Transformation((1, 2, 1))
    assert (x * y) == x.compose(y)


def test_partial_composition_truncates_through_gaps():
    x = PartialPerm((2, 0, 1))
    y = PartialPerm((3, 1, 2))
    assert x.compose(y) == PartialPerm((1, 0, 3))
    gap = PartialPerm((0, 0, 0))
    assert x.compose(gap) == gap
    assert gap.compose(x) == gap


def test_partial_inverse():
    x = PartialPerm((2, 0, 1))
    assert x.inverse() == PartialPerm((3, 1, 0))
    assert x.inverse().inverse() == x
    assert x.compose(x.inverse()).compose(x) == x


def test_identity_laws():
    for family, n in ((FAMILY_IS, 3), (FAMILY_T, 3)):
        e = identity(family, n)
        for x in enumerate_family(family, n):
            assert e.compose(x) == x
            assert x.compose(e) == x


def test_composition_associative_exhaustive_n2():
    for family in (FAMILY_IS, FAMILY_T):
        universe = enumerate_family(family, 2)
        for x, y, z in itertools.product(universe, repeat=3):
            assert x.compose(y).compose(z) == x.compose(y.compose(z))


def test_mixed_family_compose_rejected():
    with pytest.raises(TypeError):
        compose(PartialPerm((1, 2)), Transformation((1, 2)))


# ---------------------------------------------------------------------------
# domains, ranges, kernels


def test_partial_dom_ran_rank():
    x = PartialPerm((2, 0, 1))
    assert x.dom == frozenset({1, 3})
    assert x.ran == frozenset({1, 2})
    assert x.rank == 2
    assert x(2) is None
    assert x(1) == 2
    assert not x.is_permutation()
    assert identity(FAMILY_IS, 3).is_permutation()


def test_empty_map_and_constant():
    assert empty_map(3) == PartialPerm((0, 0, 0))
    assert empty_map(3).rank == 0
    assert constant(3, 2) == Transformation((2, 2, 2))


def test_kernel_partition():
    x = Transformation((1, 1, 2))
    assert x.preimage(1) == frozenset({1, 2})
    assert x.preimage(2) == frozenset({3})
    assert x.preimage(3) == frozenset()


# ---------------------------------------------------------------------------
# universes


@pytest.mark.parametrize(
    "family,n,expected",
    [
        (FAMILY_IS, 1, 2),
        (FAMILY_IS, 2, 7),
        (FAMILY_IS, 3, 34),
        (FAMILY_IS, 4, 209),
        (FAMILY_IS, 5, 1546),
        (FAMILY_T, 1, 1),
        (FAMILY_T, 2, 4),
        (FAMILY_T, 3, 27),
        (FAMILY_T, 4, 256),
        (FAMILY_T, 5, 3125),
    ],
)
def test_family_sizes(family, n, expected):
    assert family_size(family, n) == expected
    assert len(enumerate_family(family, n)) == expected


def test_enumeration_is_canonically_sorted_and_distinct():
    for family, n in ((FAMILY_IS, 3), (FAMILY_T, 3)):
        universe = enumerate_family(family, n)
        assert list(universe) == sorted(universe)
        assert len(set(universe)) == len(universe)
    assert enumerate_family(FAMILY_IS, 2)[0] == empty_map(2)
    assert enumerate_family(FAMILY_T, 2)[0] == Transformation((1, 1))


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        enumerate_family(FAMILY_IS, 7)
    with pytest.raises(CapacityError):
        enumerate_family(FAMILY_T, 8)


def test_universe_images_match_enumeration_and_are_read_only():
    # The engine and the closed forms share one cached array per (family, n):
    # an in-place write anywhere would corrupt both, so writes must fail.
    for family in (FAMILY_IS, FAMILY_T):
        for n in range(1, 5):
            images = universe_images(family, n)
            assert images.dtype == np.int8
            assert images.tolist() == [list(x.images) for x in enumerate_family(family, n)]
            assert universe_images(family, n) is images
            with pytest.raises(ValueError):
                images[0, 0] = 1
            with pytest.raises(ValueError):
                images += 0


def obeys_element_rule(images, family, n):
    # The element rule, restated over whole columns: every image is a point
    # (or 0, undefined, in a partial map), and a partial map repeats no image.
    if not ((images >= (1 if family == FAMILY_T else 0)) & (images <= n)).all():
        return False
    return family == FAMILY_T or all(
        ((images[:, i] != images[:, j]) | (images[:, i] == 0)).all()
        for i, j in itertools.combinations(range(n), 2)
    )


@pytest.mark.parametrize("family", (FAMILY_IS, FAMILY_T))
def test_universe_images_are_the_family_in_canonical_order(family):
    # Checked against the definition, not against enumerate_family (which is
    # built from this same array): distinct rows in canonical order, each an
    # element, as many as the family has, so exactly the family.
    for n in range(1, elements.ENUMERATION_CAP[family] + 1):
        images = universe_images(family, n)
        codes = np.zeros(len(images), dtype=np.int64)
        for i in range(n):
            codes = codes * (n + 1) + images[:, i]
        assert (np.diff(codes) > 0).all(), (family, n)
        assert images.shape == (family_size(family, n), n)
        assert obeys_element_rule(images, family, n), (family, n)
        if n <= 4:
            total = family == FAMILY_T
            reference = []
            for row in itertools.product(range(0 if family == FAMILY_IS else 1, n + 1), repeat=n):
                try:
                    elements._check_images(tuple(v or None for v in row), total=total)
                except ValueError:
                    continue
                reference.append(list(row))
            assert images.tolist() == reference, (family, n)


def mask(points):
    return sum(1 << (i - 1) for i in points)


def test_universe_masks_match_sets_and_are_narrow_and_read_only():
    # The closed forms share these per-(family, n) invariants across calls.
    for n in range(1, 7):
        universe = enumerate_family(FAMILY_IS, n)
        dom, ran = universe_domains(n), universe_ranges(FAMILY_IS, n)
        assert dom.tolist() == [mask(x.dom) for x in universe]
        assert ran.tolist() == [mask(x.ran) for x in universe]
        assert universe_ranges(FAMILY_T, n).tolist() == [
            mask(x.ran) for x in enumerate_family(FAMILY_T, n)
        ]
        assert (dom.dtype, ran.dtype, universe_kernels(n).dtype) == (np.uint8, np.uint8, np.int32)
        for cached in (dom, ran, universe_kernels(n)):
            with pytest.raises(ValueError):
                cached[0] = 1
    assert universe_kernels(7).max() == int("0123456", 7)  # the identity's, digits 0..6


def test_universe_domains_refuse_points_beyond_8(monkeypatch):
    # Point 9 would shift a uint8 bit out; the mask states that limit
    # itself rather than leaning on the listing cap, and refuses first.
    def listed(*_):
        raise AssertionError("the universe was listed")

    monkeypatch.setitem(elements.ENUMERATION_CAP, FAMILY_IS, 9)
    monkeypatch.setattr(elements, "universe_images", listed)
    with pytest.raises(ValueError, match=r"points 1\.\.8 only"):
        universe_domains(9)


def test_range_masks_hold_point_8_and_refuse_points_beyond():
    # Point i is bit i - 1, so point 8 is bit 7, the last bit of a uint8.
    rows = [[8, 1, 1, 1, 1, 1, 1, 1], [1, 2, 3, 4, 5, 6, 7, 8], [0, 8, 0, 0, 0, 0, 0, 0]]
    for dtype in (np.int8, np.uint8, np.int64):
        ran = range_masks(np.array(rows, dtype=dtype))
        assert ran.dtype == np.uint8 and ran.tolist() == [129, 255, 128]
    for bad in ([[9]], [[1, 200]], [[-1, 2]], [[256]]):
        with pytest.raises(ValueError):
            range_masks(np.array(bad))
    assert range_masks(np.zeros((2, 0), dtype=np.int8)).tolist() == [0, 0]


def test_range_masks_match_python_sets_at_n_8():
    rng = np.random.default_rng(8)
    images = rng.integers(0, 9, size=(2000, 8), dtype=np.int8)
    assert range_masks(images).tolist() == [mask(set(row) - {0}) for row in images.tolist()]


def test_universe_chars_match_format_element():
    for family in (FAMILY_IS, FAMILY_T):
        for n in range(1, 6):
            chars = universe_chars(family, n)
            texts = [row.tobytes().decode() for row in chars]
            assert texts == [format_element(x) for x in enumerate_family(family, n)]
            assert universe_chars(family, n) is chars and not chars.flags.writeable


def test_families_stay_apart():
    # The two families share one body but never meet: no equality, no
    # order, distinct keys, and each instance keeps its own class.
    x, y = PartialPerm((1, 2)), Transformation((1, 2))
    assert x != y and y != x
    with pytest.raises(TypeError):
        x < y
    with pytest.raises(TypeError):
        y >= x
    assert len({x: "is", y: "t"}) == 2
    assert (repr(x), repr(y)) == ("PartialPerm((1, 2))", "Transformation((1, 2))")
    for z in (x, y):
        swapped = dataclasses.replace(z, images=(2, 1))
        assert type(swapped) is type(z) and swapped.images == (2, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            z.images = (2, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            z.note = "frozen"
    assert (family_of(x), family_of(y)) == (FAMILY_IS, FAMILY_T)


def test_family_of():
    assert family_of(PartialPerm((1, 0))) == FAMILY_IS
    assert family_of(Transformation((1, 1))) == FAMILY_T


# ---------------------------------------------------------------------------
# text grammar


@pytest.mark.parametrize(
    "family,text",
    [
        (FAMILY_IS, "2,-,1"),
        (FAMILY_IS, "-,-,-"),
        (FAMILY_IS, "-"),
        (FAMILY_T, "1,1,2"),
        (FAMILY_T, "3,3,3"),
    ],
)
def test_parse_format_round_trip(family, text):
    x = parse_element(family, text)
    assert format_element(x) == text
    assert str(x) == text


def test_parse_round_trip_exhaustive_n3():
    for family in (FAMILY_IS, FAMILY_T):
        for x in enumerate_family(family, 3):
            assert parse_element(family, str(x)) == x


@pytest.mark.parametrize(
    "family,text",
    [
        (FAMILY_T, "1,-,2"),  # gaps are an IS-only feature
        (FAMILY_T, "1,4,2"),  # image out of range
        (FAMILY_IS, "1,1,2"),  # repeated image breaks injectivity
        (FAMILY_IS, "0,1,2"),  # points are 1-based
        (FAMILY_IS, ""),
        (FAMILY_IS, "1,,2"),
        (FAMILY_IS, "a,b"),
        (FAMILY_T, "1 2"),
        (FAMILY_T, "+1,1"),  # images are ASCII digits only
        (FAMILY_T, "٣,1,1"),
    ],
)
def test_parse_rejects(family, text):
    with pytest.raises(ParseError):
        parse_element(family, text)


@pytest.mark.parametrize("family", [FAMILY_IS, FAMILY_T])
def test_constructor_and_parser_accept_the_same_images(family):
    # One validity rule: built and parsed elements are rejected together,
    # and agree when both are accepted.  The text writes 0 as "-".
    for n in (1, 2, 3):
        for images in itertools.product(range(n + 2), repeat=n):
            text = ",".join("-" if v == 0 else str(v) for v in images)
            try:
                built = family_element(family, images)
            except ValueError:
                built = None
            try:
                parsed = parse_element(family, text)
            except ParseError:
                parsed = None
            assert parsed == built, text


def test_parse_rejects_unknown_family():
    with pytest.raises(ValueError):
        parse_element("nope", "1,2")


@given(st.data())
def test_parse_round_trip_random_t(data):
    n = data.draw(st.integers(1, 6))
    images = tuple(data.draw(st.integers(1, n)) for _ in range(n))
    x = Transformation(images)
    assert parse_element(FAMILY_T, str(x)) == x


@given(st.data())
def test_parse_round_trip_random_is(data):
    n = data.draw(st.integers(1, 6))
    dom = data.draw(st.permutations(range(1, n + 1)))
    targets = data.draw(st.permutations(range(1, n + 1)))
    k = data.draw(st.integers(0, n))
    images = [0] * n
    for s, t in zip(dom[:k], targets[:k]):
        images[s - 1] = t
    x = PartialPerm(tuple(images))
    assert parse_element(FAMILY_IS, str(x)) == x
    assert x.rank == k


# ---------------------------------------------------------------------------
# construction guards


def test_bad_images_rejected():
    with pytest.raises(ValueError):
        Transformation((0, 1))  # total maps have no gaps
    with pytest.raises(ValueError):
        Transformation((3, 1))
    with pytest.raises(ValueError):
        PartialPerm((1, 1))
    with pytest.raises(ValueError):
        PartialPerm((4, 0, 1))


def test_universe_index_inverts_the_image_array():
    for family in (FAMILY_IS, FAMILY_T):
        for n in (1, 2, 3, 4):
            images = universe_images(family, n)
            index = universe_index(family, n, images)
            assert index.dtype == np.int32
            assert np.array_equal(index, np.arange(len(images)))
            # any leading shape; rows outside the family map to -1
            assert np.array_equal(
                universe_index(family, n, images[::-1].reshape(-1, 1, n)).ravel(),
                index[::-1],
            )
    assert universe_index(FAMILY_T, 2, np.array([[0, 1], [2, 1]])).tolist() == [-1, 2]
    assert universe_index(FAMILY_IS, 3, np.array([[2, 2, 0], [0, 0, 3]])).tolist() == [-1, 3]
