"""Green classifications, shared by both methods, and the closed forms'
keying, shared by both families.

The brute-force referee (engine) and the closed forms (closedform_is,
closedform_t) each partition the universe of a deformation a, which a
states itself: its family a.family on a.n points.  A GreenClassification
holds a and one partition as a class id per universe index.  Nothing here
runs brute force, so a closed-form command never executes the referee.

The closed forms of both families are evaluated the same way, stated here
once: a family's case split keys every universe row by the first clause
that holds (clause_keys), and classify_by_key numbers the classes by least
member, sorting only the rows some clause took: every other row is a
singleton.  So a closed-form command executes only its own family's module.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable

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
CLOSED_RELATIONS = ("r", "l", "h", "d")


@dataclasses.dataclass(frozen=True, eq=False)
class GreenClassification:
    """A full partition of a variant semigroup under one of the equivalences.

    The deformation a states the universe: its family and its n points.
    labels[i] is the class id of the i-th element of that universe
    (canonical order), and classes are numbered by least member, so two
    classifications describe the same partition exactly when their labels
    are equal.  The labels are a read-only int64 array, and counts[i], read
    only too, is the size of class i.  Elements are built only by
    ``class_of``, and only the members of the one class asked for.
    """

    a: Element
    relation: str
    method: str  # "brute", "closed-corrected" or "closed-literal"
    labels: np.ndarray
    counts: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        labels = np.array(self.labels, dtype=np.int64)
        if labels.shape != (family_size(self.a.family, self.a.n),):
            raise ValueError("labels do not cover the universe")
        if labels.min() < 0 or not (counts := np.bincount(labels)).all():
            raise ValueError("class ids must be 0..k-1, each one used")
        # Ids first occur in increasing order exactly when no label exceeds
        # every label before it by more than one.
        bound = np.maximum.accumulate(labels)
        bound += 1
        if labels[0] != 0 or (labels[1:] > bound[:-1]).any():
            raise ValueError("classes must be numbered by least member")
        for name, array in (("labels", labels), ("counts", counts)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(self.counts.tolist())

    @property
    def singleton_count(self) -> int:
        return int(np.count_nonzero(self.counts == 1))

    def _members(self, x: Element) -> np.ndarray:
        """The universe indices of x's class, ascending."""
        family, n = self.a.family, self.a.n
        # n is checked first: universe_index would read only n of x's images.
        if family_of(x) == family and x.n == n:
            i = int(universe_index(family, n, np.array(x.images)))
            if i >= 0:
                return np.flatnonzero(self.labels == self.labels[i])
        raise ValueError(f"{format_element(x)} is not an element of {family.upper()}_{n}")

    def class_of(self, x: Element) -> tuple[Element, ...]:
        """The members of x's class, ascending; no other element is built."""
        return elements_at(self.a.family, self.a.n, self._members(x))

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
            self.labels * len(other.counts) + other.labels,
            return_inverse=True,
            return_counts=True,
        )
        shared = shared[pair.ravel()]
        differs = (shared != self.counts[self.labels]) | (shared != other.counts[other.labels])
        return int(np.argmax(differs))


def canonical_labels(keys: np.ndarray, inside: np.ndarray | None = None) -> np.ndarray:
    """Class ids for rows grouped by equal keys, numbered by least row.
    Only the rows in the mask inside (every row by default) are grouped;
    each other row is a class of its own, whatever its key."""
    rows = np.arange(len(keys)) if inside is None else np.flatnonzero(inside)
    order = rows[np.argsort(keys[rows], kind="stable")]  # equal keys keep their rows in order
    ordered = keys[order]
    starts = np.empty(len(order), dtype=bool)  # where each run of equal keys begins
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    del ordered, rows
    least = order[starts]  # the least row of each key
    is_least = np.ones(len(keys), dtype=bool)  # a row outside is its own least row
    is_least[order] = starts
    labels = is_least.astype(np.int64)
    np.cumsum(labels, out=labels)  # in place: a cumsum of bools would cast them to a copy
    labels -= 1  # class ids, numbered by least row
    run = np.cumsum(starts)
    run -= 1
    labels[order] = labels[least][run]
    return labels


def check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


# Class keys are int64: clause t of a case split keys a row as
# (t + 1) * _CLAUSE + value, and a row no clause takes keeps its own index.
# Every value (a mask, a kernel code, a rank) stays below _CLAUSE.
_CLAUSE = 1 << 40


def clause_keys(clauses: list[tuple[np.ndarray, np.ndarray | int]], rows: int) -> np.ndarray:
    """One key per row from the first (condition, value) clause that holds,
    as an if-chain would take them; rows no clause takes stay singletons."""
    keys = np.arange(rows, dtype=np.int64)
    for t in reversed(range(len(clauses))):  # earlier clauses overwrite later ones
        cond, value = clauses[t]
        np.add(value, (t + 1) * _CLAUSE, out=keys, where=cond, dtype=np.int64)
    return keys


def point_mask(points: Iterable[int]) -> int:
    """The bitmask of a set of points: bit i - 1 for point i."""
    return sum(1 << (i - 1) for i in points)


def classify_by_key(a: Element, relation: str, mode: str, key: Callable) -> GreenClassification:
    """a's whole universe partitioned in one pass by its family's class key:
    universe rows share a class exactly when key(a, relation, mode) gives
    them equal keys.  The caller checks that a is of key's family."""
    check_mode(mode)
    if relation not in CLOSED_RELATIONS:
        raise ValueError(f"relation must be one of {CLOSED_RELATIONS}, got {relation!r}")
    keys = key(a, relation, mode)
    labels = canonical_labels(keys, keys >= _CLAUSE)  # a row no clause takes is a singleton
    del keys  # before the labels are checked, which copies them
    return GreenClassification(a=a, relation=relation, method=f"closed-{mode}", labels=labels)
