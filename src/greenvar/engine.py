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
array, a few rows at a time, checked to stay in the universe and stored as
uint16 indices (every universe with n <= 6 has fewer than 65,536
elements); each x keeps only the index of its factor's row, so no full
|S| x |S| table is ever formed.

Ideals are packed bit rows, one bit per universe element, built a block
at a time, so no |S| x |S| matrix of any dtype is formed and grouping is
byte comparison.  Grouping follows the singleton lemma, which holds in any
semigroup: if x is not in xS then R_x = {x}, and likewise for Sx and L_x,
and for xS | Sx | SxS and J_x.  So only the x inside their own ideal are
grouped, by that ideal alone.  For r, x in xS is bit x of x's packed
factor row, and only the |Sa| factor rows are grouped.  For l the columns
of the factor block are packed a block of columns at a time, and only the
x in Sx are grouped; j ORs xS and SxS into the same blocks.  SxS depends on x
only through L(x): if L(x) = L(y) then x is in S^1 y and y in S^1 x, so
SxS = SyS.  SxS is the union of the factor rows of the left factors in Sx,
so it is taken and stored once per distinct set of those factors among
the l-class representatives, and read back through the l ids.  Every
classification is one class id per universe index, and an egg box is
tuples of universe indices.  Element objects are built only at the edges,
through ``elements_at``: the members of one class asked for by element, a
failure witness, and the spot-checked products.

The count audit of both families is stated here once: a CountReport holds
the literal and corrected formula censuses of the r- and l-classes beside
the censuses of the brute-force classes; its rows compare each value with
enumeration once, and its flags are read from the rows.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from collections.abc import Callable, Iterable
from typing import NamedTuple

import numpy as np

from . import elements
from .elements import (
    CapacityError,
    Element,
    check_deformation,
    check_family,
    elements_at,
    family_of,
    family_size,
    format_element,
    universe_images,
    universe_index,
    universe_ranges,
)

RELATIONS = ("r", "l", "h", "d", "j")

BRUTE_CAP = 5  # the one size cap of brute force: tables, classes, structure checks
BRUTE_CACHE_SIZE = 64  # classifications kept by brute_classification
TABLE_BLOCK_ROWS = 16  # factor rows of the product table indexed per pass
IDEAL_BLOCK = 128  # ideal or factor-set rows unpacked, or pair rows compared, per pass


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
        self._ideal_ids: dict[str, np.ndarray] = {}  # r and l ids, reused by h and d
        self._factor_rows: np.ndarray | None = None  # packed once, read by r and j

    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """The product table in factored form (rows, left_of) of indices,
        uint16 when |S| < 65,536 and int32 otherwise.

        rows[k, j] is the index of z . universe[j] for the k-th distinct left
        factor z = x . a, and left_of[i] is the row of universe[i]'s factor,
        so universe[i] *_a universe[j] = universe[rows[left_of[i], j]].  The
        full |S| x |S| table rows[left_of] is never formed here.
        """
        if self._table is not None:
            return self._table
        family, n, s = self.family, self.n, self.size
        index = np.uint16 if s < 2**16 else np.int32
        images = universe_images(family, n)
        # Padding slot 0 makes "undefined" propagate through fancy indexing.
        a_pad = np.zeros(n + 1, dtype=np.int8)
        a_pad[1:] = self.a.images
        xa = a_pad[images]  # (s, n): images of x . a
        _, reps, left_of = np.unique(
            universe_index(family, n, xa), return_index=True, return_inverse=True
        )
        left_of = left_of.ravel().astype(index)
        # by_point[k, y] = y(k), so by_point[left[f, i]] holds the image of
        # point i under left[f] . y for every y.  The codes of the products
        # are accumulated point by point, in buffers allocated once.  Every
        # index given to np.take is in range, and mode "clip" keeps it from
        # buffering its output.
        by_point = np.zeros((n + 1, s), dtype=np.int8)
        by_point[1:] = images.T
        left = xa[reps]
        lookup = elements._index_lookup(family, n)  # code -> index, -1 for no element
        rows = np.empty((len(reps), s), dtype=index)
        point = np.empty((TABLE_BLOCK_ROWS, s), dtype=np.int8)
        codes = np.empty((TABLE_BLOCK_ROWS, s), dtype=np.int32)
        products = np.empty((TABLE_BLOCK_ROWS, s), dtype=np.int32)
        for start in range(0, len(reps), TABLE_BLOCK_ROWS):
            b = min(TABLE_BLOCK_ROWS, len(reps) - start)
            code, found = codes[:b], products[:b]
            code[:] = 0
            for i in range(n):
                np.take(by_point, left[start : start + b, i], axis=0, out=point[:b], mode="clip")
                code *= n + 1
                code += point[:b]
            np.take(lookup, code, out=found, mode="clip")
            # Checked on the int32 indices: cast to uint16, a -1 would pass.
            if found.min() < 0:
                raise AssertionError("a product left the universe")
            rows[start : start + b] = found
        self._spot_check_associativity(rows, left_of)
        self._table = rows, left_of
        return self._table

    def products(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The indices of universe[xs] *_a universe[ys], for index arrays
        that broadcast together."""
        rows, left_of = self.table()
        return rows[left_of[xs], ys]

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
        picked = elements_at(self.family, self.n, picks)
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
    are equal.  The labels are a read-only int64 array.  Elements are built
    only by ``class_of``, and only the members of the one class asked for.
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

    def _members(self, x: Element) -> np.ndarray:
        """The universe indices of x's class, ascending."""
        # n is checked first: universe_index would read only n of x's images.
        if family_of(x) == self.family and x.n == self.n:
            i = int(universe_index(self.family, self.n, np.array(x.images)))
            if i >= 0:
                return np.flatnonzero(self.labels == self.labels[i])
        raise ValueError(f"{format_element(x)} is not an element of {self.family.upper()}_{self.n}")

    def class_of(self, x: Element) -> tuple[Element, ...]:
        """The members of x's class, ascending; no other element is built."""
        return elements_at(self.family, self.n, self._members(x))

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


def _row_ids(packed: np.ndarray, seen: dict[bytes, int] | None = None) -> np.ndarray:
    # Equal packed rows share an id; ids are numbered by first row, so
    # canonically.  seen carries the ids over from earlier blocks of rows.
    seen = {} if seen is None else seen
    return np.array([seen.setdefault(row.tobytes(), len(seen)) for row in packed], dtype=np.int64)


def _bits(rows: np.ndarray, s: int) -> np.ndarray:
    """Bool rows over the universe: row i has the bits of rows[i], an array
    of indices, set."""
    bits = np.zeros((len(rows), s), dtype=bool)
    bits[np.arange(len(rows))[:, None], rows] = True
    return bits


def _pack(members: np.ndarray, s: int) -> np.ndarray:
    """_bits(members, s) as packed bit rows, built IDEAL_BLOCK rows at a time."""
    packed = np.empty((len(members), (s + 7) // 8), dtype=np.uint8)
    for start in range(0, len(members), IDEAL_BLOCK):
        packed[start : start + IDEAL_BLOCK] = np.packbits(
            _bits(members[start : start + IDEAL_BLOCK], s), axis=1
        )
    return packed


def _has_bit(packed: np.ndarray, rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Whether bit xs[i] of packed row rows[i] is set."""
    return (packed[rows, xs >> 3] << (xs & 7) & 0x80).astype(bool)


def _factor_rows(v: VariantSemigroup) -> np.ndarray:
    """zS for each distinct left factor z . a, packed: the rows of the table,
    packed once per semigroup."""
    if v._factor_rows is None:
        v._factor_rows = _pack(v.table()[0], v.size)
    return v._factor_rows


def _singletons_apart(inside: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Class ids under "equal ideals" by the singleton lemma, from the keys
    of the ideals I(x) without their {x} term.

    If x is outside I(x) its class is {x}: were x ~ y with y != x, y would
    lie in I(x) and x in I(y), which lies within I(x).  Every other x has
    {x} | I(x) = I(x), so keys[x] decides its class.  Each singleton is
    keyed past every row id, and row ids are below |S|.
    """
    s = len(keys)
    return canonical_labels(np.where(inside, keys, s + np.arange(s)))


def _column_ids(
    v: VariantSemigroup, more: Callable[[np.ndarray], np.ndarray] | None = None
) -> np.ndarray:
    """Class ids under equal S^1 *_a x (l), or under equal S^1 *_a x *_a S^1
    (j) when more(xs) gives the packed xS | SxS of the elements xs.

    S *_a x = (Sa) . x is column x of the factor rows, so the ideals are
    packed IDEAL_BLOCK columns at a time, from views of the table; only the
    x inside their own ideal are grouped (see _singletons_apart).
    """
    rows, s = v.table()[0], v.size
    inside = np.empty(s, dtype=bool)
    keys = np.zeros(s, dtype=np.int64)
    seen: dict[bytes, int] = {}
    for start in range(0, s, IDEAL_BLOCK):
        block = rows[:, start : start + IDEAL_BLOCK].T
        xs = np.arange(start, start + len(block))
        packed = np.packbits(_bits(block, s), axis=1)
        if more is not None:
            packed |= more(xs)
        inside[xs] = mine = _has_bit(packed, np.arange(len(xs)), xs)
        keys[xs[mine]] = _row_ids(packed[mine], seen)
    return _singletons_apart(inside, keys)


def _ideal_ids(v: VariantSemigroup, relation: str) -> np.ndarray:
    """The r or l class ids of v, grouped once per semigroup.

    x *_a S = (x . a) . S is the factor row of x, so r groups the |Sa|
    factor rows and tests x in xS as bit x of x's factor row; l groups the
    columns of the table (_column_ids).
    """
    if relation not in v._ideal_ids:
        if relation == "r":
            left_of = v.table()[1]
            factor_rows = _factor_rows(v)
            inside = _has_bit(factor_rows, left_of, np.arange(v.size))
            v._ideal_ids[relation] = _singletons_apart(inside, _row_ids(factor_rows)[left_of])
        else:
            v._ideal_ids[relation] = _column_ids(v)
    return v._ideal_ids[relation]


def _sxs_rows(v: VariantSemigroup, reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S x S for each x in reps, packed, as (unions, set_of): S reps[i] S is
    unions[set_of[i]].

    S x S is the union of zS over z in Sx, and zS is the factor row of z's
    left factor.  Sx is column x of the table, so S x S depends on x only
    through the set of left factors in that column.  The sets are packed
    IDEAL_BLOCK reps at a time and grouped, and the factor rows are OR-ed
    once per distinct set.
    """
    rows, left_of = v.table()
    blocks = (reps[i : i + IDEAL_BLOCK] for i in range(0, len(reps), IDEAL_BLOCK))
    sets = np.concatenate([_pack(left_of[rows[:, block].T], len(rows)) for block in blocks])
    set_of = _row_ids(sets)
    _, first = np.unique(set_of, return_index=True)
    masks = (np.unpackbits(sets[i], count=len(rows)).view(bool) for i in first)
    factor_rows = _factor_rows(v)
    return np.array([np.bitwise_or.reduce(factor_rows[mask]) for mask in masks]), set_of


def green_classes_brute(v: VariantSemigroup, relation: str) -> GreenClassification:
    """Classify the whole universe by ideal comparison (or their join for d)."""
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
    s = v.size

    if relation in ("r", "l"):
        labels = _ideal_ids(v, relation)
    elif relation in ("h", "d"):
        r_ids, l_ids = _ideal_ids(v, "r"), _ideal_ids(v, "l")
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
    else:  # j: J(x) = {x} | Sx | xS | SxS, with SxS read through the l ids
        left_of = v.table()[1]
        factor_rows = _factor_rows(v)
        l_ids = _ideal_ids(v, "l")
        _, reps = np.unique(l_ids, return_index=True)  # least member of each l-class
        unions, set_of = _sxs_rows(v, reps)
        labels = _column_ids(
            v, lambda xs: factor_rows[left_of[xs]] | unions[set_of[l_ids[xs]]]
        )

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
    first, second = elements_at(v.family, v.n, (x, int(np.argmax(differ))))
    return False, (first, second)


@dataclasses.dataclass(frozen=True, slots=True)
class EggBox:
    """One d-class laid out as a grid: rows are r-classes, columns l-classes,
    and each cell the h-class where they cross (cell = row intersect column).

    The layout is held as universe indices only, ascending within each
    tuple: ``members`` is the d-class, and ``row_members``, ``col_members``
    and ``cell_members`` its rows, columns and cells.  Rows and columns are
    ordered by least member, so ``members[0]`` represents the d-class.
    """

    members: tuple[int, ...]
    row_members: tuple[tuple[int, ...], ...]
    col_members: tuple[tuple[int, ...], ...]
    cell_members: tuple[tuple[tuple[int, ...], ...], ...]


def egg_box(v: VariantSemigroup, x: Element) -> EggBox:
    """Grid layout of x's d-class, read from the cached r, l and d labels."""
    r, l, d = (brute_classification(v.family, v.n, v.a, rel) for rel in "rld")
    members = d._members(x)
    return _egg_boxes(members, np.zeros(len(members), dtype=np.int64), r, l)[0]


def _egg_boxes(
    members: np.ndarray, box_of: np.ndarray, r: GreenClassification, l: GreenClassification
) -> tuple[EggBox, ...]:
    # members are ascending universe indices and box_of[i] the box of
    # members[i], boxes numbered by least member.  A line (row or column)
    # is a (box, class) pair; sorted, the lines of each box come out by
    # least member, since class ids are, and each class must lie wholly in
    # its box.  Cell (i, j) of box b is numbered cells[b] + i * w + j.
    boxes = int(box_of.max()) + 1
    ints = members.tolist()  # one int object per member, shared by every tuple

    def runs(keys: np.ndarray, count: int) -> list[tuple[int, ...]]:
        # The members with key 0, 1, ..., count - 1, each run ascending.
        order = [ints[i] for i in np.argsort(keys, kind="stable").tolist()]
        ends = np.cumsum(np.bincount(keys, minlength=count)).tolist()
        return [tuple(order[i:j]) for i, j in zip([0, *ends], ends)]

    line_of, firsts = [], []
    for c in (r, l):
        k = len(c.sizes)
        lines, line, size = np.unique(
            box_of * k + c.labels[members], return_inverse=True, return_counts=True
        )
        if (size != np.bincount(c.labels)[lines % k]).any():
            raise ValueError("a box is not a union of r- and l-classes")
        line_of.append(line.ravel())
        firsts.append(np.searchsorted(lines // k, np.arange(boxes + 1)))  # each box's first line
    (row, col), (row_first, col_first) = line_of, firsts
    width = np.diff(col_first)
    cells = np.concatenate([[0], np.cumsum(np.diff(row_first) * width)])
    place = cells[box_of] + (row - row_first[box_of]) * width[box_of] + col - col_first[box_of]
    member_runs, row_runs, col_runs, cell_runs = (
        runs(box_of, boxes), runs(row, row_first[-1]), runs(col, col_first[-1]),
        runs(place, cells[-1]),
    )
    row_first, col_first, width, cells = (x.tolist() for x in (row_first, col_first, width, cells))
    return tuple(
        EggBox(
            members=member_runs[b],
            row_members=tuple(row_runs[row_first[b] : row_first[b + 1]]),
            col_members=tuple(col_runs[col_first[b] : col_first[b + 1]]),
            cell_members=tuple(
                tuple(cell_runs[i : i + width[b]]) for i in range(cells[b], cells[b + 1], width[b])
            ),
        )
        for b in range(boxes)
    )


def all_egg_boxes(v: VariantSemigroup) -> tuple[EggBox, ...]:
    r, l, d = (brute_classification(v.family, v.n, v.a, rel) for rel in "rld")
    return _egg_boxes(np.arange(v.size), d.labels, r, l)


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

    @classmethod
    def census(cls, size: int, size_lines: Iterable[tuple[int, int, int]]) -> ClassCountSummary:
        """The census of a universe of size elements whose multi classes are
        size_lines: every element they leave uncovered is a singleton."""
        size_lines = tuple(size_lines)
        return cls(
            singleton_count=size - sum(count * sz for _, sz, count in size_lines),
            multi_class_count=sum(count for *_, count in size_lines),
            size_lines=size_lines,
        )


def summarize_classes_by_rank(classification: GreenClassification) -> ClassCountSummary:
    c = classification
    sizes = np.bincount(c.labels)
    _, least = np.unique(c.labels, return_index=True)
    ranks = np.bitwise_count(universe_ranges(c.family, c.n)[least])
    multi = sizes > 1
    lines = Counter(zip(ranks[multi].tolist(), sizes[multi].tolist()))
    return ClassCountSummary(
        singleton_count=int((sizes == 1).sum()),
        multi_class_count=int(multi.sum()),
        size_lines=tuple(sorted((k, sz, cnt) for (k, sz), cnt in lines.items())),
    )


COUNT_SIDES = ("r", "l")
COUNT_QUANTITIES = ("singleton_count", "multi_class_count", "size_lines")
COUNT_MARKS = ("literal", "corrected")
CountPair = tuple[ClassCountSummary, ClassCountSummary]


class CountRow(NamedTuple):
    """One value a CountReport compares, in column order: marks name the
    formulas that differ from enumerated, census the field it comes from."""

    side: str
    quantity: str
    literal: int
    corrected: int
    enumerated: int
    marks: tuple[str, ...]
    census: str


@dataclasses.dataclass(frozen=True)
class CountReport:
    """Formula-vs-enumeration audit of the r- and l-class counts of one
    deformation a of rank p.

    literal, corrected and enumerated each hold one census per side, r then
    l: the count formulas as published, as repaired, and the census of the
    brute-force classes.  flags name each quantity where a formula differs
    from enumeration, as "literal:quantity:side" (expected findings) or
    "corrected:quantity:side" (bugs).
    """

    n: int
    p: int
    a: Element
    literal: CountPair
    corrected: CountPair
    enumerated: CountPair

    @property
    def rows(self) -> tuple[CountRow, ...]:
        """Per side: the singleton and multi-class counts, then the count of
        each size line (k, size) of any census, as classes_rank_{k}_size_{size}."""
        rows = []
        for side, *censuses in zip(COUNT_SIDES, self.literal, self.corrected, self.enumerated):
            values = [
                (quantity, quantity, *(getattr(c, quantity) for c in censuses))
                for quantity in COUNT_QUANTITIES[:2]
            ]
            lit, cor, enu = ({(k, sz): cnt for k, sz, cnt in c.size_lines} for c in censuses)
            values += [
                ("size_lines", f"classes_rank_{k}_size_{sz}", lit.get((k, sz), 0),
                 cor.get((k, sz), 0), enu.get((k, sz), 0))
                for k, sz in sorted(set(lit) | set(cor) | set(enu))
            ]
            for census, quantity, *formulas, enumerated in values:
                marks = tuple(m for m, v in zip(COUNT_MARKS, formulas) if v != enumerated)
                rows.append(CountRow(side, quantity, *formulas, enumerated, marks, census))
        return tuple(rows)

    @property
    def flags(self) -> tuple[str, ...]:
        marked = {(row.side, row.census, mark) for row in self.rows for mark in row.marks}
        return tuple(
            f"{mark}:{census}:{side}"
            for side in COUNT_SIDES
            for census in COUNT_QUANTITIES
            for mark in COUNT_MARKS
            if (side, census, mark) in marked
        )


def count_report(
    family: str, n: int, a: Element, literal: CountPair, corrected: CountPair
) -> CountReport:
    """The formula censuses of a, side r then side l, beside the censuses
    of its brute-force r- and l-classes."""
    enumerated = tuple(
        summarize_classes_by_rank(brute_classification(family, n, a, side)) for side in COUNT_SIDES
    )
    return CountReport(n, a.rank, a, literal, corrected, enumerated)
