"""The count audit: class-count formulas against the brute-force census.

The count audit of both families is stated here once: a CountReport holds
a deformation a, which states its family, n and rank p, and the literal
and corrected formula censuses (ClassCountSummary) of the r- and
l-classes, which the closed forms state (closedform_is.count_is_classes,
closedform_t.count_t_classes), beside the censuses of the brute-force
classes, which count_report takes; its rows compare each value with
enumeration once, and its flags are read from the rows.  Only the count
and verify commands audit counts, so only they execute this module.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .classes import GreenClassification
from .elements import Element, universe_ranges
from .engine import brute_classification


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
    deformation a, on a's universe; a.rank is the p of the formulas.

    literal, corrected and enumerated each hold one census per side, r then
    l: the count formulas as published, as repaired, and the census of the
    brute-force classes.  flags name each quantity where a formula differs
    from enumeration, as "literal:quantity:side" (expected findings) or
    "corrected:quantity:side" (bugs).
    """

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


def summarize_classes_by_rank(classification: GreenClassification) -> ClassCountSummary:
    c = classification
    _, least = np.unique(c.labels, return_index=True)
    ranks = np.bitwise_count(universe_ranges(c.a.family, c.a.n)[least])
    multi = c.counts > 1
    lines = Counter(zip(ranks[multi].tolist(), c.counts[multi].tolist()))
    return ClassCountSummary(
        singleton_count=c.singleton_count,
        multi_class_count=int(multi.sum()),
        size_lines=tuple(sorted((k, sz, cnt) for (k, sz), cnt in lines.items())),
    )


def count_report(a: Element, literal: CountPair, corrected: CountPair) -> CountReport:
    """The formula censuses of a, side r then side l, beside the censuses
    of its brute-force r- and l-classes."""
    enumerated = tuple(
        summarize_classes_by_rank(brute_classification(a, side)) for side in COUNT_SIDES
    )
    return CountReport(a, literal, corrected, enumerated)
