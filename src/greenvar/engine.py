"""Variant products and brute-force equivalence classes via principal ideals.

A deformation element a turns a family S on n points into the variant
semigroup (S, *_a) with ``x *_a y = x . a . y`` (left to right).  The five
classic equivalences are computed here from first principles:

- r: equal right ideals  {x} | x *_a S
- l: equal left ideals   {x} | S *_a x
- h: r and l together
- d: smallest equivalence containing r and l (their join)
- j: equal two-sided ideals  {x} | xS | Sx | SxS

The adjoined identity never enters products; it only contributes the {x}
term to each ideal, which is what the unions above encode.

Everything is exact integer work on small universes, under one size rule,
checked before any universe is listed: n <= BRUTE_CAP.  By associativity
``x *_a y = (x . a) . y``, so a row of the product table depends on x only
through its left factor x . a.  The table is built from the |Sa| distinct
left factors: their |Sa| x |S| block of products is computed on the image
array, a few rows at a time, and mapped back to indices; each x keeps only
the index of its factor's row, so no full |S| x |S| table is ever formed.
Right ideals read the factor rows, left ideals read their columns, and the
j ideals reuse the same factoring: the right ideal of z depends only on
z . a, so SxS is a union of |Sa| distinct rows.  Ideal families are packed
into bit rows, so grouping is byte comparison, and every classification
is one class id per universe index.  Element objects are built only on
request, for printing classes and witnesses.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from collections.abc import Sequence
from typing import TypeVar

import numpy as np

from .elements import (
    CapacityError,
    Element,
    check_deformation,
    check_family,
    enumerate_family,
    family_element,
    family_of,
    family_size,
    range_masks,
    universe_images,
    universe_index,
)

RELATIONS = ("r", "l", "h", "d", "j")

BRUTE_CAP = 5  # the one size cap of brute force: tables, classes, structure checks
BRUTE_CACHE_SIZE = 64  # classifications kept by brute_classification
TABLE_BLOCK_ROWS = 64  # factor rows of the product table indexed per pass
J_BLOCK_ROWS = 512  # rows of the j ideal widened per float32 product

T = TypeVar("T")


def check_brute_cap(n: int) -> None:
    """Refuse brute force beyond n = BRUTE_CAP, before anything is listed."""
    if n > BRUTE_CAP:
        raise CapacityError(f"brute force is capped at n <= {BRUTE_CAP}, got n = {n}")


def variant_product(x: Element, a: Element, y: Element) -> Element:
    """x *_a y = x . a . y, left to right."""
    return x.compose(a).compose(y)  # type: ignore[arg-type]


class VariantSemigroup:
    """A family on n points under the deformed product x *_a y = x.a.y."""

    def __init__(self, family: str, n: int, a: Element):
        check_family(family)
        check_deformation(family, n, a)
        check_brute_cap(n)
        self.family = family
        self.n = n
        self.a = a
        self.size = family_size(family, n)
        self._table: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def universe(self) -> tuple[Element, ...]:
        return enumerate_family(self.family, self.n)

    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """The product table in factored form (rows, left_of), int32 indices.

        rows[k, j] is the index of z . universe[j] for the k-th distinct left
        factor z = x . a, and left_of[i] is the row of universe[i]'s factor,
        so universe[i] *_a universe[j] = universe[rows[left_of[i], j]].  The
        full |S| x |S| table rows[left_of] is never formed here.
        """
        if self._table is not None:
            return self._table
        family, n, s = self.family, self.n, self.size
        images = universe_images(family, n)
        # Padding slot 0 makes "undefined" propagate through fancy indexing.
        a_pad = np.zeros(n + 1, dtype=np.int8)
        a_pad[1:] = self.a.images
        xa = a_pad[images]  # (s, n): images of x . a
        _, reps, left_of = np.unique(
            universe_index(family, n, xa), return_index=True, return_inverse=True
        )
        left_of = left_of.ravel().astype(np.int32)
        if len(reps) == s:  # x -> x . a is injective: each row is its own factor
            reps = left_of = np.arange(s, dtype=np.int32)
        # by_point[k, y] = y(k), so by_point[left[f]] holds the images of
        # left[f] . y for every y, one point per row.
        by_point = np.zeros((n + 1, s), dtype=np.int8)
        by_point[1:] = images.T
        left = xa[reps]
        rows = np.empty((len(reps), s), dtype=np.int32)
        for start in range(0, len(reps), TABLE_BLOCK_ROWS):
            block = slice(start, start + TABLE_BLOCK_ROWS)
            rows[block] = universe_index(family, n, by_point[left[block]].transpose(0, 2, 1))
        if rows.min() < 0:
            raise AssertionError("a product left the universe")
        self._spot_check_associativity(rows, left_of)
        self._table = rows, left_of
        return self._table

    def _spot_check_associativity(self, rows: np.ndarray, left_of: np.ndarray) -> None:
        # On a few picked elements: the table is associative, and its
        # pick-pair entries agree with the object-level product.
        s = self.size
        picks = sorted({0, s - 1, s // 2, s // 3, s // 7})

        def product(i: np.ndarray, j: np.ndarray) -> np.ndarray:
            return rows[left_of[i], j]

        x, y, z = np.ix_(picks, picks, picks)
        if (product(product(x, y), z) != product(x, product(y, z))).any():
            raise AssertionError("variant product is not associative")
        images = universe_images(self.family, self.n)
        picked = [family_element(self.family, images[i].tolist()) for i in picks]
        expected = [variant_product(x, self.a, y).images for x in picked for y in picked]
        if not np.array_equal(images[product(*np.ix_(picks, picks))].reshape(-1, self.n), expected):
            raise AssertionError("product table disagrees with the variant product")


@functools.lru_cache(maxsize=4)
def variant_semigroup(family: str, n: int, a: Element) -> VariantSemigroup:
    """Shared instances so repeated classifications reuse one product table."""
    return VariantSemigroup(family, n, a)


@dataclasses.dataclass(frozen=True, eq=False)
class GreenClassification:
    """A full partition of a variant semigroup under one of the equivalences.

    labels[i] is the class id of the i-th universe element (canonical
    order), and classes are numbered by least member, so two
    classifications describe the same partition exactly when their labels
    are equal.  The labels are a read-only int64 array; the element tuples
    of ``classes`` (members ascending) are built on first use.
    """

    family: str
    n: int
    a: Element
    relation: str
    method: str  # "brute", "closed-corrected" or "closed-literal"
    labels: np.ndarray

    def __post_init__(self) -> None:
        labels = np.array(self.labels, dtype=np.int64)
        if labels.shape != (family_size(self.family, self.n),):
            raise ValueError("labels do not cover the universe")
        if labels.min() < 0 or not np.bincount(labels).all():
            raise ValueError("class ids must be 0..k-1, each one used")
        # Ids first occur in increasing order exactly when no label exceeds
        # every label before it by more than one.
        if labels[0] != 0 or (labels[1:] > np.maximum.accumulate(labels)[:-1] + 1).any():
            raise ValueError("classes must be numbered by least member")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @functools.cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.labels).tolist())

    @property
    def singleton_count(self) -> int:
        return self.sizes.count(1)

    def grouped(self, values: Sequence[T]) -> list[list[T]]:
        """values[i] for every universe index i, class by class, in class
        order and ascending within each class."""
        ordered = [values[i] for i in np.argsort(self.labels, kind="stable").tolist()]
        groups, start = [], 0
        for size in self.sizes:
            groups.append(ordered[start : start + size])
            start += size
        return groups

    @functools.cached_property
    def classes(self) -> tuple[tuple[Element, ...], ...]:
        return tuple(map(tuple, self.grouped(enumerate_family(self.family, self.n))))

    @functools.cached_property
    def _position(self) -> dict[Element, int]:
        return {x: i for i, c in enumerate(self.classes) for x in c}

    def class_of(self, x: Element) -> tuple[Element, ...]:
        return self.classes[self._position[x]]

    @property
    def representatives(self) -> tuple[Element, ...]:
        return tuple(c[0] for c in self.classes)

    @property
    def multi_classes(self) -> tuple[tuple[Element, ...], ...]:
        return tuple(c for c in self.classes if len(c) > 1)

    def same_partition(self, other: "GreenClassification") -> bool:
        return np.array_equal(self.labels, other.labels)

    def first_divergence(self, other: "GreenClassification") -> int | None:
        """The least universe index whose class differs between the two
        partitions; None when they agree."""
        if self.same_partition(other):
            return None
        # The classes of i agree when the pair (self, other) of labels of i
        # is shared by as many elements as each of its two classes holds.
        _, pair, shared = np.unique(
            self.labels * len(other.sizes) + other.labels,
            return_inverse=True,
            return_counts=True,
        )
        shared = shared[pair.ravel()]
        differs = (shared != np.bincount(self.labels)[self.labels]) | (
            shared != np.bincount(other.labels)[other.labels]
        )
        return int(np.argmax(differs))


def canonical_labels(keys: np.ndarray) -> np.ndarray:
    """Class ids for rows grouped by equal keys, numbered by least row."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse.ravel()]


def _row_ids(mat: np.ndarray) -> np.ndarray:
    # Equal rows share an id; ids are numbered by first row, so canonically.
    seen: dict[bytes, int] = {}
    return np.array(
        [seen.setdefault(row.tobytes(), len(seen)) for row in np.packbits(mat, axis=1)]
    )


def _factor_rows(v: VariantSemigroup) -> np.ndarray:
    """Membership of zS for each distinct left factor z . a, as a (|Sa|, |S|) matrix."""
    rows, _ = v.table()
    mat = np.zeros(rows.shape, dtype=bool)
    mat[np.arange(rows.shape[0])[:, None], rows] = True
    return mat


def _membership(v: VariantSemigroup, *, columns: bool) -> np.ndarray:
    """Ideal rows with the identity adjoined: row x is {x} | x *_a S, or
    {x} | S *_a x when columns is set."""
    s = v.size
    rows, left_of = v.table()
    if columns:  # S *_a x = (Sa) . x: column x of the distinct factor rows
        mat = np.zeros((s, s), dtype=bool)
        mat[np.arange(s)[:, None], rows.T] = True
    else:  # x *_a S = (x . a) . S: the factor row of x
        mat = _factor_rows(v)[left_of]
    mat[np.arange(s), np.arange(s)] = True
    return mat


def green_classes_brute(v: VariantSemigroup, relation: str) -> GreenClassification:
    """Classify the whole universe by ideal comparison (or their join for d)."""
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
    s = v.size

    if relation in ("r", "l"):
        labels = _row_ids(_membership(v, columns=relation == "l"))
    elif relation in ("h", "d"):
        r_ids = _row_ids(_membership(v, columns=False))
        l_ids = _row_ids(_membership(v, columns=True))
        if relation == "h":
            labels = canonical_labels(r_ids * s + l_ids)
        else:
            # The join: each element takes the least index it reaches through
            # shared r- and l-classes, until nothing changes.
            least = np.arange(s)
            while True:
                reached = least
                for ids in (r_ids, l_ids):
                    low = np.full(s, s)
                    np.minimum.at(low, ids, reached)
                    reached = low[ids]
                if np.array_equal(reached, least):
                    break
                least = reached
            labels = canonical_labels(least)
    else:  # j: two-sided ideals; zS depends on z only through its left factor z . a
        rows, left_of = v.table()
        right = _factor_rows(v)
        ideal = _membership(v, columns=True)  # S x, widened in place to the whole ideal
        # factors[x, k]: some z in Sx has left factor k, so SxS is the union
        # of the rows of right that factors[x] selects (a boolean product).
        # When left_of is the identity, the left ideal rows serve as factors:
        # their diagonal adds only xS, which the ideal holds anyway.  Each
        # block of rows is read as factors before it is widened.
        if len(rows) == s:
            factors = ideal
        else:
            factors = np.zeros((s, len(rows)), dtype=bool)
            factors[np.arange(s)[:, None], left_of[rows.T]] = True
        right32 = right.astype(np.float32)
        for start in range(0, s, J_BLOCK_ROWS):
            block = slice(start, start + J_BLOCK_ROWS)
            sxs = (factors[block].astype(np.float32) @ right32) > 0
            ideal[block] |= sxs
            ideal[block] |= right[left_of[block]]
        labels = _row_ids(ideal)

    return GreenClassification(
        family=v.family,
        n=v.n,
        a=v.a,
        relation=relation,
        method="brute",
        labels=labels,
    )


@functools.lru_cache(maxsize=BRUTE_CACHE_SIZE)
def brute_classification(
    family: str, n: int, a: Element, relation: str
) -> GreenClassification:
    """Cached front door for sweeps that revisit the same deformation."""
    return green_classes_brute(variant_semigroup(family, n, a), relation)


def verify_d_equals_j(
    v: VariantSemigroup,
) -> tuple[bool, tuple[Element, Element] | None]:
    """Check the finite-semigroup identity d = j; a witness pair on failure."""
    d = green_classes_brute(v, "d")
    j = green_classes_brute(v, "j")
    x = d.first_divergence(j)
    if x is None:
        return True, None
    differ = (d.labels == d.labels[x]) != (j.labels == j.labels[x])
    return False, (v.universe[x], v.universe[int(np.argmax(differ))])


@dataclasses.dataclass(frozen=True)
class EggBox:
    """One d-class laid out as a grid: rows are r-classes, columns l-classes,
    and each cell the h-class where they cross (cell = row intersect column)."""

    family: str
    n: int
    a: Element
    d_class: tuple[Element, ...]
    rows: tuple[tuple[Element, ...], ...]
    cols: tuple[tuple[Element, ...], ...]
    cells: tuple[tuple[tuple[Element, ...], ...], ...]

    @property
    def representative(self) -> Element:
        return self.d_class[0]


def egg_box(v: VariantSemigroup, d_class: tuple[Element, ...]) -> EggBox:
    """Grid layout of one d-class from green_classes_brute(v, "d")."""
    r = brute_classification(v.family, v.n, v.a, "r")
    l = brute_classification(v.family, v.n, v.a, "l")
    return _egg_box(v, d_class, r, l)


def _egg_box(
    v: VariantSemigroup,
    d_class: tuple[Element, ...],
    r: GreenClassification,
    l: GreenClassification,
) -> EggBox:
    # Rows and columns are the r- and l-classes whose least member lies in
    # the d-class, found from the members themselves in ascending order.
    members = set(d_class)
    ordered = sorted(x for x in members if family_of(x) == v.family and x.n == v.n)
    rows = tuple(c for x in ordered if (c := r.class_of(x))[0] == x)
    cols = tuple(c for x in ordered if (c := l.class_of(x))[0] == x)
    for c in rows + cols:
        if not members.issuperset(c):
            raise ValueError("d_class is not a union of r- and l-classes")
    row_of = {x: i for i, c in enumerate(rows) for x in c}
    col_of = {x: j for j, c in enumerate(cols) for x in c}
    grid: list[list[list[Element]]] = [[[] for _ in cols] for _ in rows]
    for x in ordered:
        if x in row_of and x in col_of:
            grid[row_of[x]][col_of[x]].append(x)
    cells = tuple(tuple(tuple(cell) for cell in row) for row in grid)
    return EggBox(
        family=v.family, n=v.n, a=v.a, d_class=tuple(d_class),
        rows=rows, cols=cols, cells=cells,
    )


def all_egg_boxes(v: VariantSemigroup) -> tuple[EggBox, ...]:
    r, l, d = (brute_classification(v.family, v.n, v.a, rel) for rel in "rld")
    return tuple(_egg_box(v, c, r, l) for c in d.classes)


@dataclasses.dataclass(frozen=True)
class ClassCountSummary:
    """Multi-class census of one classification, grouped by member rank.

    size_lines rows are (rank, class size, how many classes of that shape);
    the members of any multi r- or l-class share their rank, so the least
    member's rank stands for the class.
    """

    singleton_count: int
    multi_class_count: int
    size_lines: tuple[tuple[int, int, int], ...]


def summarize_classes_by_rank(classification: GreenClassification) -> ClassCountSummary:
    c = classification
    sizes = np.bincount(c.labels)
    _, least = np.unique(c.labels, return_index=True)
    ranks = np.bitwise_count(range_masks(universe_images(c.family, c.n)[least]))
    multi = sizes > 1
    lines = Counter(zip(ranks[multi].tolist(), sizes[multi].tolist()))
    return ClassCountSummary(
        singleton_count=int((sizes == 1).sum()),
        multi_class_count=int(multi.sum()),
        size_lines=tuple(sorted((k, sz, cnt) for (k, sz), cnt in lines.items())),
    )
