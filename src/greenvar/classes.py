"""Green classifications, shared by both methods, and the closed forms'
keying, shared by both families.

The brute-force referee (engine) and the closed forms (closedform_is,
closedform_t) each partition a universe, and a GreenClassification holds
one partition as a class id per universe index.  Nothing here runs brute
force, so a closed-form command never executes the referee.

The closed forms of both families are evaluated the same way, stated here
once: a family's case split keys every universe row by the first clause
that holds (clause_keys), and classify_by_key numbers the classes by least
member.  So a closed-form command executes only its own family's module.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable, Iterable

import numpy as np

from .elements import (
    Element,
    check_deformation,
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


def classify_by_key(
    family: str, n: int, a: Element, relation: str, mode: str, key: Callable
) -> GreenClassification:
    """The whole universe partitioned in one pass by a family's class key:
    universe rows share a class exactly when key(n, a, relation, mode)
    gives them equal keys."""
    check_mode(mode)
    if relation not in CLOSED_RELATIONS:
        raise ValueError(f"relation must be one of {CLOSED_RELATIONS}, got {relation!r}")
    check_deformation(family, n, a)
    keys = key(n, a, relation, mode)
    return GreenClassification(
        family=family,
        n=n,
        a=a,
        relation=relation,
        method=f"closed-{mode}",
        labels=canonical_labels(keys),
    )
