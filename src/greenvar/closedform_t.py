"""Closed-form classes and class counts for total maps under x *_a y.

Everything is phrased through two per-element predicates against the
deformation a with range ran(a) and fiber partition ker(a):

- spread(x):  ran(x) meets every ker(a) block at most once
  (so ran(x) is a partial transversal of the fibers of a).
- fed(x):     every fiber of x contains a point of ran(a).

The classes of (T_n, *_a):

- r-class of x: all y with ker(y) = ker(x) and spread(y), when spread(x);
  otherwise {x}.
- l-class: all y with ran(y) = ran(x) and fed(y), when rank(a) > 1 and
  fed(x); otherwise {x}.  rank(a) = 1 leaves every l-class a singleton.
- h-class: ker and ran both fixed when spread(x) and fed(x), else {x}.
- d-class: the r-class when spread(x) but some fiber of x misses ran(a)
  (or rank(a) = 1); the l-class when fed(x) but not spread(x); when both
  predicates hold, all y with spread(y) and fed(y), restricted to
  rank(y) = rank(x) in corrected mode.

The descriptions are evaluated once over the whole universe, on its image
array and on two invariants computed once per n beside it
(elements.universe_ranges, elements.universe_kernels): ran is a bitmask,
ker is an integer code (the least point of each point's fiber, read in
base n), spread(x) holds when m & (m - 1) == 0 for
m = ran(x) & B and every fiber B of a, fed(x) when the bits of x(ran(a))
make up all of ran(x), and the case split in _class_key_t gives every row
one integer key.

Literal mode again follows the known published description word for word.
It deviates twice, and exhaustive computation pins both deviations: the
middle d case is printed with "every fiber of a meets ran(x) more than
once", which together with rank(x) <= rank(a) is unsatisfiable, and the
joint d case lacks the equal-rank restriction.

The class-count formulas audited by count_t_classes: the r side is used
as printed; the published l-side class size is short a factor m! (and an
m = 1 term is counted as multi although those classes are singletons), so
corrected values are carried alongside.
"""

from __future__ import annotations

import functools
from math import comb, factorial
from typing import TYPE_CHECKING

import numpy as np

from .classes import GreenClassification, classify_by_key, clause_keys, point_mask
from .elements import (
    FAMILY_T,
    Transformation,
    check_deformation,
    family_size,
    range_masks,
    universe_images,
    universe_kernels,
    universe_ranges,
)

if TYPE_CHECKING:
    from .counts import CountReport


@functools.lru_cache(maxsize=None)
def stirling2(q: int, k: int) -> int:
    """Partitions of a q-set into k nonempty blocks.

    >>> stirling2(4, 2)
    7
    """
    if q < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    if q == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > q:
        return 0
    return k * stirling2(q - 1, k) + stirling2(q - 1, k - 1)


def _overfull_blocks(ran: np.ndarray, a: Transformation) -> np.ndarray:
    # Row per fiber B of a: whether the range mask meets B more than once,
    # i.e. m & (m - 1) != 0 for m = ran & B.
    blocks = np.array([point_mask(a.preimage(v)) for v in sorted(a.ran)], dtype=ran.dtype)[:, None]
    m = ran & blocks
    return (m & (m - 1)) != 0


def _fed(images: np.ndarray, ran: np.ndarray, a: Transformation) -> np.ndarray:
    # Every fiber of x meets ran(a) exactly when x(ran(a)) is all of ran(x).
    return range_masks(images[:, [i - 1 for i in sorted(a.ran)]]) == ran


def _one_row(x: Transformation) -> tuple[np.ndarray, np.ndarray]:
    images = np.array([x.images])
    return images, range_masks(images)


def spread(x: Transformation, a: Transformation) -> bool:
    """ran(x) meets each fiber of a at most once."""
    _, ran = _one_row(x)
    return not _overfull_blocks(ran, a).any()


def fed(x: Transformation, a: Transformation) -> bool:
    """Every fiber of x contains a point of ran(a)."""
    return bool(_fed(*_one_row(x), a)[0])


def _crowded_everywhere(x: Transformation, a: Transformation) -> bool:
    # The literal middle d condition: every fiber of a meets ran(x) more than
    # once.  With rank(x) <= rank(a) alongside it forces 2 rank(a) <= rank(a),
    # so it never holds; kept verbatim for the audit.
    _, ran = _one_row(x)
    return bool(_overfull_blocks(ran, a).all())


def _class_key_t(n: int, a: Transformation, relation: str, mode: str) -> np.ndarray:
    """The closed-form case split, one key per row: equal keys share a class."""
    images = universe_images(FAMILY_T, n)
    ran, ker = universe_ranges(FAMILY_T, n), universe_kernels(n)
    overfull = _overfull_blocks(ran, a)
    sp, fd = ~overfull.any(axis=0), _fed(images, ran, a)
    if relation == "r":
        clauses = [(sp, ker)]
    elif relation == "l":
        clauses = [(fd & (a.rank > 1), ran)]
    elif relation == "h":
        clauses = [(sp & fd, np.left_shift(ker, n, dtype=np.int64) | ran)]
    else:
        rank = np.bitwise_count(ran)
        clauses = [(sp & (~fd | (a.rank == 1)), ker)]
        if mode == "corrected":
            clauses.append((~sp & (a.rank > 1) & fd, ran))
            clauses.append((sp & fd, rank))
        else:
            clauses.append(((rank <= a.rank) & overfull.all(axis=0) & fd, ran))
            clauses.append((sp & fd, 0))
    return clause_keys(clauses, len(images))


def closed_classification_t(
    n: int, a: Transformation, relation: str, mode: str = "corrected"
) -> GreenClassification:
    """The whole universe partitioned by the closed forms in one pass."""
    return classify_by_key(FAMILY_T, n, a, relation, mode, _class_key_t)


def _elementary_symmetric(values: tuple[int, ...]) -> list[int]:
    # e[m] for m = 0..len(values), by multiplying out prod (1 + w t).
    coeffs = [1]
    for w in values:
        coeffs = [c + w * prev for c, prev in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _l_size_literal(n: int, p: int, m: int) -> int:
    return stirling2(p, m) * sum(
        stirling2(n - p, j) * comb(m, j) * factorial(j) for j in range(1, m + 1)
    )


def _l_size_corrected(n: int, p: int, m: int) -> int:
    # Surjections of ran(a) onto the m range values, times free choices for
    # the n - p points outside ran(a).
    return factorial(m) * stirling2(p, m) * m ** (n - p)


def count_t_classes(n: int, a: Transformation) -> CountReport:
    """The class count formulas against enumeration.  size_lines rows are
    (rank m, class size, class count).  The r side is a single set of
    formulas (printed and corrected coincide); rank(a) = 1 leaves every
    l-class a singleton."""
    from .counts import ClassCountSummary, count_report  # executed only where counts are audited

    check_deformation(FAMILY_T, n, a)
    if n < 2:
        raise ValueError("class counts need n >= 2")
    p = a.rank
    size = family_size(FAMILY_T, n)
    e = _elementary_symmetric(tuple(len(a.preimage(v)) for v in sorted(a.ran)))
    r = ClassCountSummary.census(
        size, [(m, e[m] * factorial(m), stirling2(n, m)) for m in range(1, p + 1)]
    )
    l_literal = ClassCountSummary.census(
        size, [(m, _l_size_literal(n, p, m), comb(n, m)) for m in range(1, p + 1)] if p > 1 else []
    )
    l_corrected = ClassCountSummary.census(
        size, [(m, _l_size_corrected(n, p, m), comb(n, m)) for m in range(2, p + 1)]
    )
    return count_report(FAMILY_T, n, a, (r, l_literal), (r, l_corrected))
