"""Variant products and brute-force equivalence classes via principal ideals.

A deformation element a turns a family S on n points into the variant
semigroup (S, *_a) with ``x *_a y = x . a . y`` (left to right).  The five
classic equivalences are computed here from first principles:

- r: equal right ideals  {x} | x *_a S
- l: equal left ideals   {x} | S *_a x
- h: r and l together
- d: smallest equivalence containing r and l (join, via union-find)
- j: equal two-sided ideals  {x} | xS | Sx | SxS

The adjoined identity never enters products; it only contributes the {x}
term to each ideal, which is what the unions above encode.

Everything is exact integer work on small universes.  By associativity
``x *_a y = (x . a) . y``, so a row of the product table depends on x only
through its left factor x . a.  The table is built from the |Sa| distinct
left factors: their |Sa| x |S| block of products is computed once (as
mixed-radix int32 codes mapped back to indices), and each x keeps only the
index of its factor's row; no full |S| x |S| table is ever formed.  Right
ideals read the factor rows, left ideals read their columns, and the j
ideals reuse the same factoring: the right ideal of z depends only on
z . a, so SxS is a union of |Sa| distinct rows.  Ideal families are packed
into bit rows, so grouping is byte comparison.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from typing import Iterable

import numpy as np

from .elements import (
    CapacityError,
    Element,
    check_deformation,
    check_family,
    enumerate_family,
    family_size,
    universe_images,
)

RELATIONS = ("r", "l", "h", "d", "j")

BRUTE_CAP = 5  # classification, product-table and structure-check cap
BRUTE_CACHE_SIZE = 64  # classifications kept by brute_classification

BUDGET_ENV = "GREENVAR_MAX_PRODUCTS"
DEFAULT_PRODUCT_BUDGET = 20_000_000


class BudgetError(ValueError):
    """A classification would evaluate more products than the budget allows."""


def product_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_PRODUCT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV} must be positive, got {value}")
    return value


def variant_product(x: Element, a: Element, y: Element) -> Element:
    """x *_a y = x . a . y, left to right."""
    return x.compose(a).compose(y)  # type: ignore[arg-type]


class VariantSemigroup:
    """A family on n points under the deformed product x *_a y = x.a.y."""

    def __init__(self, family: str, n: int, a: Element):
        check_family(family)
        check_deformation(family, n, a)
        self.family = family
        self.n = n
        self.a = a
        self.universe: tuple[Element, ...] = enumerate_family(family, n)
        self.index: dict[Element, int] = {x: i for i, x in enumerate(self.universe)}
        self._table: tuple[np.ndarray, np.ndarray] | None = None
        self._spot_check_associativity()

    @property
    def size(self) -> int:
        return len(self.universe)

    def product(self, x: Element, y: Element) -> Element:
        if x not in self.index or y not in self.index:
            raise ValueError("operands must belong to the universe")
        return variant_product(x, self.a, y)

    def _spot_check_associativity(self) -> None:
        s = self.size
        picks = sorted({0, s - 1, s // 2, s // 3, s // 7})
        for i in picks:
            for j in picks:
                for k in picks:
                    x, y, z = self.universe[i], self.universe[j], self.universe[k]
                    left = self.product(self.product(x, y), z)
                    right = self.product(x, self.product(y, z))
                    if left != right:
                        raise AssertionError("variant product is not associative")

    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """The product table in factored form (rows, left_of), int32 indices.

        rows[k, j] is the index of z . universe[j] for the k-th distinct left
        factor z = x . a, and left_of[i] is the row of universe[i]'s factor,
        so universe[i] *_a universe[j] = universe[rows[left_of[i], j]].  The
        full |S| x |S| table rows[left_of] is never formed here.
        """
        if self._table is not None:
            return self._table
        if self.n > BRUTE_CAP:
            raise CapacityError(
                f"product tables are capped at n <= {BRUTE_CAP}, got n = {self.n}"
            )
        n, s = self.n, self.size
        images = universe_images(self.family, n)
        # Padding slot 0 makes "undefined" propagate through fancy indexing.
        a_pad = np.zeros(n + 1, dtype=np.int8)
        a_pad[1:] = self.a.images
        xa = a_pad[images]  # (s, n): images of x . a
        radix = (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int32)
        lookup = np.full((n + 1) ** n, -1, dtype=np.int32)
        lookup[images.astype(np.int32) @ radix] = np.arange(s, dtype=np.int32)
        _, reps, left_of = np.unique(
            xa.astype(np.int32) @ radix, return_index=True, return_inverse=True
        )
        left_of = left_of.ravel().astype(np.int32)
        if len(reps) == s:  # x -> x . a is injective: each row is its own factor
            reps = left_of = np.arange(s, dtype=np.int32)
        # by_point[k, y] = y(k), so by_point[left[:, i]] holds point i of
        # left . y for every distinct left factor and every y.
        by_point = np.zeros((n + 1, s), dtype=np.int8)
        by_point[1:] = images.T
        left = xa[reps]
        codes = np.zeros((len(reps), s), dtype=np.int32)
        for i in range(n):
            codes *= n + 1
            codes += by_point[left[:, i]]
        block = lookup[codes]
        del codes
        if block.min() < 0:
            raise AssertionError("a product left the universe")
        self._table = block, left_of
        return self._table


@functools.lru_cache(maxsize=4)
def variant_semigroup(family: str, n: int, a: Element) -> VariantSemigroup:
    """Shared instances so repeated classifications reuse one product table."""
    return VariantSemigroup(family, n, a)


@dataclasses.dataclass(frozen=True)
class GreenClassification:
    """A full partition of a variant semigroup under one of the equivalences.

    Classes are canonically ordered: members ascending, classes by least
    member.  Two classifications describe the same partition exactly when
    their ``classes`` attributes are equal.
    """

    family: str
    n: int
    a: Element
    relation: str
    method: str  # "brute", "closed-corrected" or "closed-literal"
    classes: tuple[tuple[Element, ...], ...]

    def __post_init__(self) -> None:
        total = sum(len(c) for c in self.classes)
        if total != family_size(self.family, self.n):
            raise ValueError("classes do not partition the universe")
        for c in self.classes:
            if not c or list(c) != sorted(c):
                raise ValueError("class members must be sorted and nonempty")
        reps = [c[0] for c in self.classes]
        if reps != sorted(reps):
            raise ValueError("classes must be sorted by least member")

    @functools.cached_property
    def _position(self) -> dict[Element, int]:
        return {x: i for i, c in enumerate(self.classes) for x in c}

    def class_of(self, x: Element) -> tuple[Element, ...]:
        return self.classes[self._position[x]]

    @property
    def representatives(self) -> tuple[Element, ...]:
        return tuple(c[0] for c in self.classes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    @property
    def singleton_count(self) -> int:
        return sum(1 for c in self.classes if len(c) == 1)

    @property
    def multi_classes(self) -> tuple[tuple[Element, ...], ...]:
        return tuple(c for c in self.classes if len(c) > 1)

    def same_partition(self, other: "GreenClassification") -> bool:
        return self.classes == other.classes


def _grouping_to_classes(
    v: VariantSemigroup, groups: Iterable[Iterable[int]]
) -> tuple[tuple[Element, ...], ...]:
    classes = [tuple(v.universe[i] for i in sorted(g)) for g in groups]
    classes.sort(key=lambda c: c[0])
    return tuple(classes)


def _ideal_row_groups(mat: np.ndarray) -> list[list[int]]:
    packed = np.packbits(mat, axis=1)
    groups: dict[bytes, list[int]] = {}
    for i in range(packed.shape[0]):
        groups.setdefault(packed[i].tobytes(), []).append(i)
    return list(groups.values())


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


def _check_brute_limits(v: VariantSemigroup) -> None:
    if v.n > BRUTE_CAP:
        raise CapacityError(
            f"brute-force classification is capped at n <= {BRUTE_CAP}, got n = {v.n}"
        )
    budget = product_budget()
    needed = v.size * v.size
    if needed > budget:
        raise BudgetError(
            f"classification needs {needed} products, over the budget {budget} "
            f"(override with {BUDGET_ENV})"
        )


def _class_ids(groups: list[list[int]], size: int) -> np.ndarray:
    ids = np.empty(size, dtype=np.int64)
    for gid, members in enumerate(groups):
        ids[members] = gid
    return ids


def green_classes_brute(v: VariantSemigroup, relation: str) -> GreenClassification:
    """Classify the whole universe by ideal comparison (or their join for d)."""
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
    _check_brute_limits(v)
    s = v.size

    if relation in ("r", "l"):
        groups = _ideal_row_groups(_membership(v, columns=relation == "l"))
    elif relation == "h":
        r_ids = _class_ids(_ideal_row_groups(_membership(v, columns=False)), s)
        l_ids = _class_ids(_ideal_row_groups(_membership(v, columns=True)), s)
        pairs: dict[tuple[int, int], list[int]] = {}
        for i in range(s):
            pairs.setdefault((int(r_ids[i]), int(l_ids[i])), []).append(i)
        groups = list(pairs.values())
    elif relation == "d":
        r_groups = _ideal_row_groups(_membership(v, columns=False))
        l_groups = _ideal_row_groups(_membership(v, columns=True))
        parent = list(range(s))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri == rj:
                return
            if ri < rj:  # keep the least member as root
                parent[rj] = ri
            else:
                parent[ri] = rj

        for members in r_groups + l_groups:
            for m in members[1:]:
                union(members[0], m)
        roots: dict[int, list[int]] = {}
        for i in range(s):
            roots.setdefault(find(i), []).append(i)
        groups = list(roots.values())
    else:  # j: two-sided ideals; zS depends on z only through its left factor z . a
        rows, left_of = v.table()
        right = _factor_rows(v)
        left = _membership(v, columns=True)
        # factors[x, k]: some z in Sx has left factor k, so SxS is the union
        # of the rows of right that factors[x] selects (a boolean product).
        # When left_of is the identity, left serves as factors: its diagonal
        # adds only xS, which the ideal holds anyway.
        if len(rows) == s:
            factors = left
        else:
            factors = np.zeros((s, len(rows)), dtype=bool)
            factors[np.arange(s)[:, None], left_of[rows.T]] = True
        sxs = (factors.astype(np.float32) @ right.astype(np.float32)) > 0
        groups = _ideal_row_groups(right[left_of] | left | sxs)

    return GreenClassification(
        family=v.family,
        n=v.n,
        a=v.a,
        relation=relation,
        method="brute",
        classes=_grouping_to_classes(v, groups),
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
    if d.same_partition(j):
        return True, None
    for x in v.universe:
        dc, jc = set(d.class_of(x)), set(j.class_of(x))
        if dc != jc:
            y = min(dc.symmetric_difference(jc))
            return False, (x, y)
    raise AssertionError("partitions differ but no witness found")


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
    ordered = sorted(x for x in members if x in v.index)
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
    singles = 0
    lines: dict[tuple[int, int], int] = {}
    for c in classification.classes:
        if len(c) == 1:
            singles += 1
        else:
            key = (c[0].rank, len(c))
            lines[key] = lines.get(key, 0) + 1
    return ClassCountSummary(
        singleton_count=singles,
        multi_class_count=sum(lines.values()),
        size_lines=tuple(sorted((k, sz, cnt) for (k, sz), cnt in lines.items())),
    )
