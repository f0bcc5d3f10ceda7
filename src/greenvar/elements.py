"""Finite maps on {1, ..., n}: total transformations and injective partial maps.

The two families, tagged ``"is"`` (injective partial maps, the symmetric
inverse monoid) and ``"t"`` (total transformations), share one body; each
class adds only its tag and its own methods.  One rule, ``_check_images``,
says what an element is, for built and parsed elements alike, so parsing
only splits text into tokens.  Conventions used throughout the package:

- Points are 1-based.  An element is stored as its tuple of images; slot i-1
  holds the image of point i, with 0 marking "undefined" (partial maps only).
- Composition is left to right: ``(x * y)(i) = y(x(i))``.
- The text form is comma-separated images, ASCII digits or ``-`` for
  undefined, so the partial map 1 -> 2, 3 -> 1 on three points reads ``"2,-,1"``.
- The canonical order on a family is lexicographic on image tuples with
  undefined sorting before point 1; it is exactly tuple order on ``images``.
  Elements of different families are never equal and do not compare.
"""

from __future__ import annotations

import dataclasses
import functools
from math import comb, factorial
from typing import ClassVar, Iterable

import numpy as np

UNDEFINED = 0

FAMILY_IS = "is"
FAMILY_T = "t"
FAMILIES = (FAMILY_IS, FAMILY_T)

# Listing caps: beyond these the universe no longer fits comfortable memory
# (|IS_7| = 130922, |T_8| = 16777216).
ENUMERATION_CAP = {FAMILY_IS: 6, FAMILY_T: 7}


class ParseError(ValueError):
    """Malformed element text (bad token, out-of-range point, repeated image, ...)."""


class CapacityError(ValueError):
    """A requested computation exceeds the configured size caps."""


def _check_images(images: tuple[int | None, ...], *, total: bool) -> None:
    """The one statement of what an element is, for built and parsed
    elements alike: each point's image is a point 1..n, or None where it is
    undefined; a total map leaves no point undefined, and a partial map
    repeats no image.  The ValueError names the point at fault."""
    n = len(images)
    if n == 0:
        raise ValueError("an element needs at least one point")
    for point, v in enumerate(images, start=1):
        if v is None:
            if total:
                raise ValueError(f"point {point}: total maps cannot be undefined")
        elif not isinstance(v, int):
            raise ValueError(f"point {point}: image {v!r} is not an integer")
        elif not 1 <= v <= n:
            raise ValueError(f"point {point}: image {v} outside 1..{n}")
    defined = [v for v in images if v is not None]
    if not total and len(set(defined)) != len(defined):
        raise ValueError("repeated image; partial maps here are injective")


# Frozen by hand, so that one decorator serves both families: a frozen
# dataclass's generated __setattr__ lets instances of an undecorated
# subclass take new attributes.
@dataclasses.dataclass(order=True, unsafe_hash=True, init=False)
class _Map:
    """The body both families share."""

    images: tuple[int, ...]
    family: ClassVar[str]

    def __init__(self, images: tuple[int, ...]) -> None:
        checked = tuple(None if isinstance(v, int) and v == UNDEFINED else v for v in images)
        _check_images(checked, total=self.family == FAMILY_T)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name: str, value: object) -> None:
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int | None:
        v = self.images[i - 1]
        return None if v == UNDEFINED else v

    @functools.cached_property
    def ran(self) -> frozenset[int]:
        return frozenset(v for v in self.images if v != UNDEFINED)

    @property
    def rank(self) -> int:
        return len(self.ran)

    def compose(self, other: _Map) -> _Map:
        """Left-to-right composite: first self, then other.  Undefined stays
        undefined, and a defined image may fall out of dom(other)."""
        cls = type(self)
        if not isinstance(other, cls):
            raise TypeError(f"can only compose with another {cls.__name__}")
        if other.n != self.n:
            raise ValueError(f"point-set sizes differ: {self.n} vs {other.n}")
        return cls(tuple(UNDEFINED if v == UNDEFINED else other.images[v - 1] for v in self.images))

    __mul__ = compose

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.images!r})"


class PartialPerm(_Map):
    """An injective partial map on {1, ..., n}, stored as its image tuple.

    >>> x = PartialPerm((2, 0, 1))
    >>> str(x)
    '2,-,1'
    >>> x.dom, x.ran
    (frozenset({1, 3}), frozenset({1, 2}))
    >>> str(x.inverse())
    '3,1,-'
    >>> str(x * PartialPerm((3, 1, 2)))
    '1,-,3'
    """

    family = FAMILY_IS

    @functools.cached_property
    def dom(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.images, start=1) if v != UNDEFINED)

    def inverse(self) -> "PartialPerm":
        inv = [UNDEFINED] * self.n
        for i, v in enumerate(self.images, start=1):
            if v != UNDEFINED:
                inv[v - 1] = i
        return PartialPerm(tuple(inv))

    def is_permutation(self) -> bool:
        return len(self.dom) == self.n


class Transformation(_Map):
    """A total map on {1, ..., n}, stored as its image tuple.

    >>> x = Transformation((2, 3, 1))
    >>> str(x * Transformation((1, 1, 2)))
    '1,2,1'
    """

    family = FAMILY_T

    def preimage(self, v: int) -> frozenset[int]:
        return frozenset(i for i, w in enumerate(self.images, start=1) if w == v)


Element = PartialPerm | Transformation


def family_element(family: str, images: Iterable[int]) -> Element:
    """The element of the family with these images (0 marks undefined)."""
    return (Transformation if family == FAMILY_T else PartialPerm)(tuple(images))


def identity(family: str, n: int) -> Element:
    return family_element(family, range(1, n + 1))


def empty_map(n: int) -> PartialPerm:
    """The nowhere-defined partial map."""
    return PartialPerm((UNDEFINED,) * n)


def constant(n: int, v: int) -> Transformation:
    return Transformation((v,) * n)


def compose(x: Element, y: Element) -> Element:
    """Left-to-right composite of two same-family, same-n elements."""
    return x.compose(y)  # type: ignore[arg-type]


def check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def check_deformation(family: str, a: Element) -> None:
    """Reject a deformation of the other family: a states its own n."""
    if family_of(a) != family:
        article = "an" if family == FAMILY_IS else "a"
        raise ValueError(
            f"deformation {format_element(a)} is not {article} {family.upper()}_{a.n} element"
        )


def family_size(family: str, n: int) -> int:
    """|T_n| = n^n;  |IS_n| = sum_k C(n,k)^2 k!."""
    check_family(family)
    if n < 1:
        raise ValueError("n must be at least 1")
    if family == FAMILY_T:
        return n**n
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


@functools.lru_cache(maxsize=None)
def universe_images(family: str, n: int) -> np.ndarray:
    """The family's image tuples as a read-only (s, n) int8 array, in canonical order.

    Row i holds ``enumerate_family(family, n)[i].images``, and each family is
    built directly in that order.  For ``t`` the rows are the mixed-radix
    digits of i, plus one, so column j repeats each image n**(n-1-j) times
    and that block n**j times.  For ``is`` the rows grow one point at a time:
    each prefix, in order, extends by 0 and then by every image it does not
    use yet, in increasing order.

    >>> universe_images("is", 2).tolist()
    [[0, 0], [0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]]
    """
    check_family(family)
    cap = ENUMERATION_CAP[family]
    if not 1 <= n <= cap:
        size = family_size(family, n) if n >= 1 else 0
        raise CapacityError(
            f"listing {family.upper()}_{n} ({size} elements) exceeds the cap n <= {cap}"
        )
    if family == FAMILY_T:
        images = np.empty((n**n, n), dtype=np.int8)
        points = np.arange(1, n + 1, dtype=np.int8)
        for j in range(n):
            images[:, j] = np.tile(np.repeat(points, n ** (n - 1 - j)), n**j)
    else:
        bits = range_masks(np.arange(n + 1)[:, None])  # image 0 uses no bit
        images = np.zeros((1, 0), dtype=np.int8)
        used = np.zeros(1, dtype=np.uint8)
        for _ in range(n):
            prefix, image = np.nonzero((used[:, None] & bits) == 0)  # row-major: canonical
            images = np.column_stack((images[prefix], image.astype(np.int8)))
            used = used[prefix] | bits[image]
    images.setflags(write=False)
    return images


@functools.lru_cache(maxsize=None)
def universe_chars(family: str, n: int) -> np.ndarray:
    """The element texts of the family on n points as a read-only (s, 2n - 1)
    uint8 array, in canonical order: every image is one character (n is at
    most 7), so row i spells ``format_element(enumerate_family(family, n)[i])``.
    """
    images = universe_images(family, n)
    chars = np.full((len(images), 2 * n - 1), ord(","), dtype=np.uint8)
    chars[:, ::2] = np.where(images == UNDEFINED, ord("-"), images + ord("0"))
    chars.setflags(write=False)
    return chars


def elements_at(family: str, n: int, indices: Iterable[int]) -> tuple[Element, ...]:
    """The elements at these canonical indices, built from their image rows
    alone: the one way from universe indices back to Element objects.

    >>> [str(x) for x in elements_at("is", 2, [6, 0])]
    ['2,1', '-,-']
    """
    rows = universe_images(family, n)[np.fromiter(indices, dtype=np.intp)]
    return tuple(family_element(family, row) for row in rows.tolist())


@functools.lru_cache(maxsize=None)
def enumerate_family(family: str, n: int) -> tuple[Element, ...]:
    """All elements of the family on n points, in canonical order.

    >>> [str(x) for x in enumerate_family("is", 2)]
    ['-,-', '-,1', '-,2', '1,-', '1,2', '2,-', '2,1']
    """
    return elements_at(family, n, range(len(universe_images(family, n))))


def _row_codes(images: np.ndarray, n: int) -> np.ndarray:
    codes = np.zeros(images.shape[:-1], dtype=np.int32)
    for i in range(n):
        codes *= n + 1
        codes += images[..., i]
    return codes


@functools.lru_cache(maxsize=None)
def _index_lookup(family: str, n: int) -> np.ndarray:
    # Read-only: entry c is the canonical index of the row with base-(n+1)
    # code c, or -1 when no element of the family has that row.
    lookup = np.full((n + 1) ** n, -1, dtype=np.int32)
    images = universe_images(family, n)
    lookup[_row_codes(images, n)] = np.arange(len(images), dtype=np.int32)
    lookup.setflags(write=False)
    return lookup


def universe_index(family: str, n: int, images: np.ndarray) -> np.ndarray:
    """Canonical indices of image rows: the last axis of images holds n
    images per row, and the result has the remaining shape, int32, with -1
    for a row that is no element of the family on n points.

    >>> universe_index("is", 2, np.array([[2, 1], [0, 0], [1, 1]])).tolist()
    [6, 0, -1]
    """
    return _index_lookup(family, n)[_row_codes(images, n)]


def range_masks(images: np.ndarray) -> np.ndarray:
    """ran of each row of a 2-d integer image array, any integer dtype, as a
    uint8 bitmask (bit i - 1 for point i); undefined entries set no bit.
    The bits are ORed in one column at a time, so no wider temporary of the
    array's shape is formed.  Points beyond 8 have no bit: ValueError.

    >>> range_masks(np.array([[8, 1, 0], [0, 0, 0]])).tolist()
    [129, 0]
    """
    if images.size and not 0 <= images.min() <= images.max() <= 8:
        raise ValueError("a uint8 range mask holds the points 1..8 only")
    ran = np.zeros(len(images), dtype=np.uint8)
    shift = np.empty(len(images), dtype=np.uint8)
    for column in images.T:
        np.copyto(shift, column, casting="unsafe")
        shift -= 1  # point i shifts by i - 1; undefined wraps to 255 and sets no bit
        ran |= np.left_shift(1, shift, out=shift)
    return ran


# The per-universe invariants of the closed forms, each computed once per
# (family, n), one image column at a time, and kept read-only in the
# narrowest dtype that holds it: n <= 7 points fit a mask in uint8, and
# 7**7 kernel codes fit int32.


@functools.lru_cache(maxsize=None)
def universe_ranges(family: str, n: int) -> np.ndarray:
    """``range_masks(universe_images(family, n))``, read-only."""
    ran = range_masks(universe_images(family, n))
    ran.setflags(write=False)
    return ran


@functools.lru_cache(maxsize=None)
def universe_domains(n: int) -> np.ndarray:
    """dom of each row of the IS_n universe as a read-only uint8 bitmask
    (bit i - 1 for point i).  Points beyond 8 have no bit: ValueError,
    before the universe is listed."""
    if n > 8:
        raise ValueError("a uint8 domain mask holds the points 1..8 only")
    images = universe_images(FAMILY_IS, n)
    dom = np.zeros(len(images), dtype=np.uint8)
    for i in range(n):
        dom |= (images[:, i] != UNDEFINED).astype(np.uint8) << i
    dom.setflags(write=False)
    return dom


@functools.lru_cache(maxsize=None)
def universe_kernels(n: int) -> np.ndarray:
    """ker of each row of the T_n universe as a read-only int32 code: the
    least point of each point's fiber, 0-based, read as a base-n integer.
    Equal codes mean equal kernels."""
    images = universe_images(FAMILY_T, n)
    ker = np.zeros(len(images), dtype=np.int32)
    least = np.empty(len(images), dtype=np.int8)
    same = np.empty(len(images), dtype=bool)
    for i in range(n):
        least.fill(i)
        for j in reversed(range(i)):  # the least earlier point with the same image wins
            np.equal(images[:, j], images[:, i], out=same)
            np.copyto(least, j, where=same)
        ker *= n
        ker += least
    ker.setflags(write=False)
    return ker


def family_of(x: Element) -> str:
    return x.family


def parse_element(family: str, text: str) -> Element:
    """Parse comma-separated 1-based images; ``-`` marks an undefined point.

    The number of points is the number of entries.  Each entry is ASCII
    digits or ``-``, with spaces allowed around it; the element it spells
    must pass the same check as a built element.

    >>> parse_element("is", "2, -, 1")
    PartialPerm((2, 0, 1))
    >>> parse_element("t", "1,1,2")
    Transformation((1, 1, 2))
    """
    check_family(family)
    tokens = [t.strip() for t in text.split(",")]
    if tokens == [""]:
        raise ParseError("empty element text")
    for pos, tok in enumerate(tokens, start=1):
        if tok != "-" and not (tok.isascii() and tok.isdigit()):
            raise ParseError(f"point {pos}: bad image token {tok!r}")
    # "-" reads as None, not 0, so that a written 0 names no point.
    images = tuple(None if tok == "-" else int(tok) for tok in tokens)
    try:
        _check_images(images, total=family == FAMILY_T)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return family_element(family, (UNDEFINED if v is None else v for v in images))


def format_element(x: Element) -> str:
    return ",".join("-" if v == UNDEFINED else str(v) for v in x.images)
