"""Closed-form classes and class counts for partial injections under x *_a y.

For a deformation a of rank p, the equivalence classes of (IS_n, *_a) admit
direct descriptions in terms of domains and ranges:

- r-class of x:  all y with dom(y) = dom(x) and ran(y) inside dom(a),
  provided ran(x) lies inside dom(a); otherwise just {x}.
- l-class: the mirror image (ranges fixed, domains inside ran(a)).
- h-class: both equalities when both side conditions hold.
- d-class: r- or l-class when exactly one side condition holds; when both
  hold, every y with dom(y) inside ran(a) and ran(y) inside dom(a), further
  restricted to rank(y) = rank(x) in corrected mode.

Two evaluation modes exist because the known published description of the
joint d case admits every rank at once; exhaustive computation shows the
equal-rank restriction is required.  "literal" evaluates the description
exactly as stated, "corrected" applies the repair.  r, l and h need no
repair and ignore the mode.

Each description is evaluated once over the whole universe IS_n, with
n = a.n, on the universe's dom and ran bitmasks, which are computed once
per n beside its image array (elements.universe_domains,
elements.universe_ranges); the case split in _class_key_is gives every row
one integer key, so that equal keys share a class, and the classification
is one class id per row.  No element
object is built on the way.

The class-count formulas audited by count_is_classes follow the same split:
the literal singleton count misses the nowhere-defined map's class (always
a singleton), so corrected = literal + 1 whenever p > 1.
"""

from __future__ import annotations

import dataclasses
from math import comb, factorial
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .classes import GreenClassification, classify_by_key, clause_keys, point_mask
from .elements import (
    FAMILY_IS,
    PartialPerm,
    check_deformation,
    family_of,
    family_size,
    universe_domains,
    universe_ranges,
)

if TYPE_CHECKING:
    from .counts import CountReport


def falling_factorial(p: int, k: int) -> int:
    """p (p-1) ... (p-k+1); empty product 1 for k = 0.

    >>> falling_factorial(5, 3)
    60
    >>> falling_factorial(2, 0)
    1
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = 1
    for i in range(k):
        out *= p - i
    return out


def _check_is_pair(x: PartialPerm, a: PartialPerm) -> None:
    if family_of(x) != FAMILY_IS or family_of(a) != FAMILY_IS:
        raise TypeError("expected partial injections")
    if x.n != a.n:
        raise ValueError(f"point-set sizes differ: {x.n} vs {a.n}")


class DivisibilityVerdict(NamedTuple):
    """Outcome of asking whether x = y *_a u has a solution u.

    When solvable, witness is one solution, built as the composite
    a^{-1} . y^{-1} . x (so its domain sits inside ran(a)).
    """

    solvable: bool
    witness: PartialPerm | None


def right_divisible(x: PartialPerm, y: PartialPerm, a: PartialPerm) -> DivisibilityVerdict:
    """Decide x = y *_a u by the stated criterion:
    dom(x) inside dom(y) and ran(y) inside dom(a).

    The criterion is sufficient (the witness is checked to multiply out to x)
    but its converse has a gap: solvability really needs only the image
    y(dom(x)) inside dom(a), not all of ran(y), so any x whose domain avoids
    the escaping part of y stays reachable (the nowhere-defined x is the
    simplest case).  The stated criterion is kept as the contract; inside an
    r-class both conditions are forced, so the class theorems are unaffected.
    """
    _check_is_pair(x, a)
    _check_is_pair(y, a)
    if not (x.dom <= y.dom and y.ran <= a.dom):
        return DivisibilityVerdict(solvable=False, witness=None)
    u = a.inverse().compose(y.inverse()).compose(x)
    if y.compose(a).compose(u) != x:
        raise AssertionError("witness failed to multiply out")
    return DivisibilityVerdict(solvable=True, witness=u)


def _class_key_is(a: PartialPerm, relation: str, mode: str) -> np.ndarray:
    """The closed-form case split, one key per row of a's universe: equal
    keys share a class."""
    n = a.n
    dom, ran = universe_domains(n), universe_ranges(FAMILY_IS, n)
    r_ok = (ran & point_mask(a.dom)) == ran
    l_ok = (dom & point_mask(a.ran)) == dom
    if relation == "r":
        clauses = [(r_ok, dom)]
    elif relation == "l":
        clauses = [(l_ok, ran)]
    elif relation == "h":
        clauses = [(r_ok & l_ok, np.left_shift(dom, n, dtype=np.int64) | ran)]
    else:
        joint = np.bitwise_count(ran) if mode == "corrected" else 0
        clauses = [(r_ok & l_ok, joint), (r_ok, dom), (l_ok, ran)]
    return clause_keys(clauses, len(ran))


def closed_classification_is(
    a: PartialPerm, relation: str, mode: str = "corrected"
) -> GreenClassification:
    """IS_n, for n = a.n, partitioned by the closed forms in one pass; a
    transformation a is a ValueError."""
    check_deformation(FAMILY_IS, a)
    return classify_by_key(a, relation, mode, _class_key_is)


def _literal_singleton_count_is(n: int, p: int) -> int:
    # Double sum over rank k and the number m >= 1 of range points outside
    # dom(a): such elements keep a one-element r-class.
    total = 0
    for k in range(n + 1):
        for m in range(1, k + 1):
            total += comb(n - p, m) * comb(p, k - m) * comb(n, k) * factorial(k)
    return total


def count_is_classes(a: PartialPerm) -> CountReport:
    """The r-class count formulas of IS_n, for n = a.n, against enumeration.
    By the dom/ran mirror symmetry the l side has the same census, so the
    same formulas serve both sides.  size_lines rows are (rank k, class size
    [p]_k, class count C(n, k)); rank(a) <= 1 leaves every class a singleton."""
    from .counts import ClassCountSummary, count_report  # executed only where counts are audited

    check_deformation(FAMILY_IS, a)
    n, p = a.n, a.rank
    lines = [(k, falling_factorial(p, k), comb(n, k)) for k in range(1, p + 1)] if p > 1 else []
    corrected = literal = ClassCountSummary.census(family_size(FAMILY_IS, n), lines)
    if p > 1:
        literal = dataclasses.replace(corrected, singleton_count=_literal_singleton_count_is(n, p))
        # The literal double sum misses the nowhere-defined map's class.
        if corrected.singleton_count != literal.singleton_count + 1:
            raise AssertionError("census identity failed")
    return count_report(a, (literal,) * 2, (corrected,) * 2)
