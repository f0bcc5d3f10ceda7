"""Variant products and brute-force equivalence classes via principal ideals.

A deformation element a turns its family S on its n points into the
variant semigroup (S, *_a) with ``x *_a y = x . a . y`` (left to right);
a states both, so every entry point here takes a alone.  The five
classic equivalences are computed here from first principles:

- r: equal right ideals  {x} | x *_a S
- l: equal left ideals   {x} | S *_a x
- h: r and l together
- d: smallest equivalence containing r and l (their join)
- j: equal two-sided ideals  {x} | xS | Sx | SxS

The adjoined identity never enters products; it only contributes the {x}
term to each ideal, which is what the unions above encode.

Everything is exact integer work under one size rule, check_brute_cost,
computed from a's rank before any universe is listed.  By associativity
``x *_a y = (x . a) . y = x . (a . y)``, so a product depends on x only
through its left factor x . a and on y only through its right factor a . y.
The table is the |Sa| x |aS| block of products of the distinct left
factors by one y per right factor, computed on the image array a few rows
at a time, checked to stay in the universe and stored as uint16 indices;
each x keeps the indices of its two factors, so no |S| x |S| table is ever
formed.  A VariantSemigroup owns what is built from it, each thing once:
its table, its packed factor rows and columns, the ids of its distinct
columns and every classification asked of it; whatever is handed a
semigroup reads them.

Ideals are packed bit rows, one bit per universe element, built a block
at a time, so no |S| x |S| matrix of any dtype is formed and grouping is
byte comparison.  Grouping follows the singleton lemma, which holds in any
semigroup: if x is not in xS then R_x = {x}, and likewise for Sx and L_x,
and for xS | Sx | SxS and J_x.  So only the x inside their own ideal are
grouped, by that ideal alone.  xS is the packed row of x's left factor and
Sx the packed column of x's right factor, so r and l take one path: x in
its ideal is one bit of that row or column, and only the distinct rows
(|Sa|) or columns (|aS|) are grouped.  SxS is the union of zS over z in
Sx, so it depends on x only through its packed column: it is OR-ed from
the factor rows once per distinct column.  j ORs xS, Sx and SxS a block
of elements at a time, and reads no l labels.  Every classification is
one class id per universe index, and the egg boxes are one record of
index arrays: members box by box, row by row, cell by cell, with CSR
offsets.  Element objects are built only at the edges, through
``elements_at``: the members of one class asked for by element, a failure
witness, and the spot-checked products.

This module is the referee alone.  The classification type it fills is
in ``classes``, shared with the closed forms, so a closed-form command
never executes this module; the count audit (``counts``) reaches it for
the brute-force r- and l-classes whose census it sets beside the formula
censuses.
"""

from __future__ import annotations

import functools
from math import comb, factorial
from typing import NamedTuple

import numpy as np

from . import elements
from .classes import RELATIONS, GreenClassification, canonical_labels
from .elements import (
    FAMILY_T,
    CapacityError,
    Element,
    elements_at,
    family_size,
    universe_images,
    universe_index,
)

BRUTE_BUDGET = 512 * 2**20  # bytes of table and packed factor rows one semigroup may take
BRUTE_CACHE_SIZE = 64  # classifications kept by brute_classification
TABLE_BLOCK_ROWS = 16  # factor rows of the product table indexed per pass
IDEAL_BLOCK = 128  # ideal or factor-set rows unpacked, or pair rows compared, per pass


def check_brute_cost(a: Element) -> tuple[int, int]:
    """The one size rule of brute force, on a's family, n and rank alone:
    refuse unless |S| fits the table's uint16 indices and the table and
    packed factor rows, 2 |Sa| |aS| + (|Sa| + |aS|) ceil(|S| / 8) bytes, fit
    BRUTE_BUDGET; return the table's shape (|Sa|, |aS|).  x . a is any map
    into ran(a) and a . y any map on the r points a reaches: r^n and n^r of
    them in T_n, and in IS_n sum_k C(n,k) C(r,k) k! each."""
    n, r, s = a.n, a.rank, family_size(a.family, a.n)
    name = f"brute force on {a.family.upper()}_{n}"
    if s > (limit := np.iinfo(np.uint16).max):
        raise CapacityError(f"{name} needs more than uint16 indices: {s} elements, over {limit}")
    injections = sum(comb(n, k) * comb(r, k) * factorial(k) for k in range(r + 1))
    left, right = (r**n, n**r) if a.family == FAMILY_T else (injections, injections)
    if (need := 2 * left * right + (left + right) * ((s + 7) // 8)) > BRUTE_BUDGET:
        mib, budget = need / 2**20, BRUTE_BUDGET >> 20
        raise CapacityError(f"{name} at a = {a} needs {mib:,.1f} MiB, over the {budget} MiB budget")
    return left, right


def variant_product(x: Element, a: Element, y: Element) -> Element:
    """x *_a y = x . a . y, left to right."""
    return x.compose(a).compose(y)  # type: ignore[arg-type]


class VariantSemigroup:
    """a's family on a's n points under the deformed product x *_a y = x.a.y."""

    def __init__(self, a: Element):
        check_brute_cost(a)
        self.a, self.family, self.n = a, a.family, a.n
        self.size = family_size(a.family, a.n)
        self._table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._classes: dict[str, GreenClassification] = {}  # kept by green_classes_brute

    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The product table in factored form (rows, left_of, right_of) of
        uint16 indices: rows[k, c] is the index of z . w for the k-th distinct
        left factor z = x . a and the c-th distinct right factor w = a . y,
        and left_of[i] and right_of[i] are the row and column of universe[i]'s
        factors, so universe[i] *_a universe[j] is
        universe[rows[left_of[i], right_of[j]]].  No |S| x |S| table is formed.
        """
        if self._table is not None:
            return self._table
        family, n = self.family, self.n
        images = universe_images(family, n)
        # Padding slot 0 makes "undefined" propagate through fancy indexing.
        padded = np.pad(images, ((0, 0), (1, 0)))
        xa = np.array((0, *self.a.images), dtype=np.int8)[images]  # (s, n): images of x . a
        ay = padded[:, self.a.images]  # (s, n): images of a . y
        # Each side's first element with each distinct factor, and the
        # factor of every element.
        (reps, left_of), (cols, right_of) = (
            np.unique(universe_index(family, n, f), return_index=True, return_inverse=True)[1:]
            for f in (xa, ay)
        )
        left_of, right_of = left_of.ravel().astype(np.uint16), right_of.ravel().astype(np.uint16)
        # x . a . y = x . (a . y), so a product depends on y only through its
        # right factor, and y_c = universe[cols[c]] stands for column c.
        # by_point[k, c] = y_c(k), so by_point[left[f, i]] holds the image of
        # point i under left[f] . y_c for every c.  The codes of the products
        # are accumulated point by point, in buffers allocated once.  Every
        # index given to np.take is in range, and mode "clip" keeps it from
        # buffering its output.
        w = len(cols)
        by_point = np.ascontiguousarray(padded[cols].T)
        left = xa[reps]
        lookup = elements._index_lookup(family, n)  # code -> index, -1 for no element
        rows = np.empty((len(reps), w), dtype=np.uint16)
        point = np.empty((TABLE_BLOCK_ROWS, w), dtype=np.int8)
        codes = np.empty((TABLE_BLOCK_ROWS, w), dtype=np.int32)
        products = np.empty((TABLE_BLOCK_ROWS, w), dtype=np.int32)
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
        self._spot_check_associativity(rows, left_of, right_of)
        self._table = rows, left_of, right_of
        return self._table

    def products(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The indices of universe[xs] *_a universe[ys], for index arrays
        that broadcast together."""
        rows, left_of, right_of = self.table()
        return rows[left_of[xs], right_of[ys]]

    @functools.cached_property
    def factor_rows(self) -> np.ndarray:
        """zS for each distinct left factor z . a, packed: the rows of the
        table, packed once and read by r and j."""
        return _pack(self.table()[0], self.size)

    @functools.cached_property
    def factor_cols(self) -> np.ndarray:
        """Sw for each distinct right factor w = a . y, packed: the columns
        of the table, packed once and read by l and j."""
        return _pack(self.table()[0].T, self.size)

    @functools.cached_property
    def factor_col_ids(self) -> np.ndarray:
        """The id of each packed factor column, equal columns sharing one:
        computed once and read by l and j."""
        return _row_ids(self.factor_cols)

    def _spot_check_associativity(
        self, rows: np.ndarray, left_of: np.ndarray, right_of: np.ndarray
    ) -> None:
        # On a few picked elements: the table is associative, and its
        # pick-pair entries agree with the object-level product.
        s = self.size
        picks = sorted({0, s - 1, s // 2, s // 3, s // 7})

        def product(i: np.ndarray, j: np.ndarray) -> np.ndarray:
            return rows[left_of[i], right_of[j]]

        x, y, z = np.ix_(picks, picks, picks)
        if (product(product(x, y), z) != product(x, product(y, z))).any():
            raise AssertionError("variant product is not associative")
        images = universe_images(self.family, self.n)
        picked = elements_at(self.family, self.n, picks)
        expected = [variant_product(x, self.a, y).images for x in picked for y in picked]
        if not np.array_equal(images[product(*np.ix_(picks, picks))].reshape(-1, self.n), expected):
            raise AssertionError("product table disagrees with the variant product")


@functools.lru_cache(maxsize=2)
def variant_semigroup(a: Element) -> VariantSemigroup:
    """Shared instances so repeated classifications reuse one product table:
    the last two built, as many as iso and dual read at once."""
    return VariantSemigroup(a)


def _row_ids(packed: np.ndarray, seen: dict[bytes, int] | None = None) -> np.ndarray:
    # Equal packed rows share an id; ids are numbered by first row, so
    # canonically.  seen carries the ids over from earlier blocks of rows.
    seen = {} if seen is None else seen
    return np.array([seen.setdefault(row.tobytes(), len(seen)) for row in packed], dtype=np.int64)


def _bits(rows: np.ndarray, s: int) -> np.ndarray:
    """Bool rows over the universe: row i has the bits of rows[i], an array
    of indices, set."""
    bits = np.zeros((len(rows), s), dtype=bool)
    # One flat index scatters faster than a 2-D fancy index.
    bits.ravel()[(np.arange(len(rows)) * s)[:, None] + rows] = True
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


def _ideal_classes(packed: np.ndarray, ids: np.ndarray, of: np.ndarray) -> np.ndarray:
    """Class ids under equal ideals {x} | I(x), where I(x) is packed row
    of[x] and ids the _row_ids of packed: r reads the factor rows through
    left_of, l the factor columns through right_of.  Only the distinct
    packed rows are grouped, and only the x inside I(x): by the singleton
    lemma, an x outside has the class {x}, for were x ~ y with y != x, y
    would lie in I(x) and x in I(y), which lies within I(x)."""
    return canonical_labels(ids[of], _has_bit(packed, of, np.arange(len(of))))


def _sxs_rows(v: VariantSemigroup) -> tuple[np.ndarray, np.ndarray]:
    """S x S for each right factor, packed, as (unions, set_of): S x S is
    unions[set_of[right_of[x]]].

    S x S is the union of zS over z in Sx, and zS is the factor row of z's
    left factor.  Sx is column right_of[x] of the table, so S x S depends on
    x only through that packed column; the factor rows are OR-ed once per
    distinct packed column.
    """
    rows, left_of, _ = v.table()
    set_of = v.factor_col_ids
    _, first = np.unique(set_of, return_index=True)
    factors = (np.bincount(left_of[rows[:, c]], minlength=len(rows)) > 0 for c in first)
    return np.array([np.bitwise_or.reduce(v.factor_rows[f]) for f in factors]), set_of


def green_classes_brute(v: VariantSemigroup, relation: str) -> GreenClassification:
    """Classify the whole universe by ideal comparison (or their join for d),
    once per semigroup: v keeps each classification it is asked for.

    x *_a S is the factor row of x's left factor and S *_a x the factor
    column of x's right factor, so r and l group the packed rows and columns
    of the table (_ideal_classes).  h and d read the r and l labels; j ORs
    xS, Sx and SxS a block of elements at a time.
    """
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
    if relation in v._classes:
        return v._classes[relation]
    s, (_, left_of, right_of) = v.size, v.table()

    if relation == "r":
        labels = _ideal_classes(v.factor_rows, _row_ids(v.factor_rows), left_of)
    elif relation == "l":
        labels = _ideal_classes(v.factor_cols, v.factor_col_ids, right_of)
    elif relation in ("h", "d"):
        r_ids, l_ids = (green_classes_brute(v, side).labels for side in "rl")
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
    else:  # j: J(x) = {x} | xS | Sx | SxS, packed IDEAL_BLOCK elements at a time
        unions, set_of = _sxs_rows(v)
        inside = np.empty(s, dtype=bool)
        keys = np.zeros(s, dtype=np.int64)
        seen: dict[bytes, int] = {}
        for start in range(0, s, IDEAL_BLOCK):
            xs = np.arange(start, min(start + IDEAL_BLOCK, s))
            col = right_of[xs]
            packed = v.factor_rows[left_of[xs]] | v.factor_cols[col] | unions[set_of[col]]
            inside[xs] = mine = _has_bit(packed, np.arange(len(xs)), xs)
            keys[xs[mine]] = _row_ids(packed[mine], seen)
        labels = canonical_labels(keys, inside)  # the singleton lemma, as in _ideal_classes

    v._classes[relation] = GreenClassification(
        a=v.a, relation=relation, method="brute", labels=labels
    )
    return v._classes[relation]


@functools.lru_cache(maxsize=BRUTE_CACHE_SIZE)
def brute_classification(a: Element, relation: str) -> GreenClassification:
    """Cached front door for sweeps that revisit the same deformation."""
    return green_classes_brute(variant_semigroup(a), relation)


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


class EggBoxes(NamedTuple):
    """D-classes laid out as grids: rows are r-classes, columns l-classes,
    and each cell the h-class where they cross (cell = row intersect column).

    The layout is index arrays only.  ``members`` holds universe indices box
    by box, each box row by row, each row cell by cell, ascending within a
    cell.  Boxes, and the rows and columns of each box, are numbered by
    least member, so a box's first member represents it.  The other three
    are CSR offsets, one longer than what they count: box b has the rows
    ``rows[b]`` to ``rows[b + 1] - 1``, the columns ``cols[b]`` to
    ``cols[b + 1] - 1`` and the cells from ``boxes[b]`` on, its cell (i, j)
    being ``boxes[b] + i * width + j``; cell c is
    ``members[cells[c] : cells[c + 1]]``.
    """

    members: np.ndarray
    boxes: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    cells: np.ndarray


def egg_box(v: VariantSemigroup, x: Element) -> EggBoxes:
    """Grid layout of x's d-class, read from v's r, l and d classes."""
    r, l, d = (green_classes_brute(v, rel) for rel in "rld")
    members = d._members(x)
    return _egg_boxes(members, np.zeros(len(members), dtype=np.int64), r, l)


def _egg_boxes(
    members: np.ndarray, box_of: np.ndarray, r: GreenClassification, l: GreenClassification
) -> EggBoxes:
    # members are ascending universe indices and box_of[i] the box of
    # members[i], boxes numbered by least member.  A line (row or column)
    # is a (box, class) pair; sorted, the lines of each box come out by
    # least member, since class ids are, and each class must lie wholly in
    # its box.  Cell (i, j) of box b is numbered first[b] + i * w + j, and
    # a stable sort by cell keeps each cell ascending.  np.unique is asked
    # for first indices only so that it sorts stably, as canonical_labels
    # does: its default quicksort pages in code of its own, about 0.3 MB
    # of peak RSS in a T_5 eggbox process.
    boxes = int(box_of.max()) + 1
    line_of, firsts = [], []
    for c in (r, l):
        k = len(c.counts)
        lines, _, line, size = np.unique(
            box_of * k + c.labels[members], return_index=True, return_inverse=True,
            return_counts=True,
        )
        if (size != c.counts[lines % k]).any():
            raise ValueError("a box is not a union of r- and l-classes")
        line_of.append(line.ravel())
        firsts.append(np.searchsorted(lines // k, np.arange(boxes + 1)))  # each box's first line
    (row, col), (row_first, col_first) = line_of, firsts
    width = np.diff(col_first)
    first = np.concatenate([[0], np.cumsum(np.diff(row_first) * width)])  # each box's first cell
    place = first[box_of] + (row - row_first[box_of]) * width[box_of] + col - col_first[box_of]
    return EggBoxes(
        members=members[np.argsort(place, kind="stable")],
        boxes=first,
        rows=row_first,
        cols=col_first,
        cells=np.concatenate([[0], np.cumsum(np.bincount(place, minlength=first[-1]))]),
    )


def all_egg_boxes(v: VariantSemigroup) -> EggBoxes:
    r, l, d = (green_classes_brute(v, rel) for rel in "rld")
    return _egg_boxes(np.arange(v.size), d.labels, r, l)
