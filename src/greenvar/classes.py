"""Green classifications and the count audit's censuses, shared by both methods.

The brute-force referee (engine) and the closed forms (closedform_is,
closedform_t) each partition a universe, and a GreenClassification holds
one partition as a class id per universe index.  Nothing here runs brute
force, so a closed-form command never executes the referee.

The count audit of both families is stated here once: a CountReport holds
the literal and corrected formula censuses (ClassCountSummary) of the r-
and l-classes, which the closed forms state, beside the censuses of the
brute-force classes, which ``engine.count_report`` takes; its rows compare
each value with enumeration once, and its flags are read from the rows.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .elements import (
    Element,
    elements_at,
    family_of,
    family_size,
    format_element,
    universe_index,
)

RELATIONS = ("r", "l", "h", "d", "j")
MODES = ("corrected", "literal")


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
    order = np.argsort(keys, kind="stable")  # equal keys keep their rows in order
    ordered = keys[order]
    starts = np.empty(len(keys), dtype=bool)  # where each run of equal keys begins
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    del ordered
    least = order[starts]  # the least row of each key
    is_least = np.zeros(len(keys), dtype=bool)
    is_least[least] = True
    ids = np.cumsum(is_least)[least] - 1  # class ids, numbered by least row
    run = np.cumsum(starts)
    run -= 1
    labels = np.empty(len(keys), dtype=np.int64)
    labels[order] = ids[run]
    return labels


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
