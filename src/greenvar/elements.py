"""Finite maps on {1, ..., n}: total transformations and injective partial maps.

Conventions used throughout the package:

- Points are 1-based.  An element is stored as its tuple of images; slot i-1
  holds the image of point i, with 0 marking "undefined" (partial maps only).
- Composition is left to right: ``(x * y)(i) = y(x(i))``.
- The text form is comma-separated images with ``-`` for undefined, so the
  partial map 1 -> 2, 3 -> 1 on three points reads ``"2,-,1"``.
- The canonical order on a family is lexicographic on image tuples with
  undefined sorting before point 1; it is exactly tuple order on ``images``.

Families are named by short tags: ``"is"`` for injective partial maps
(the symmetric inverse monoid) and ``"t"`` for total transformations.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from math import comb, factorial
from typing import Iterable

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


def _check_images(images: tuple[int, ...], *, total: bool) -> None:
    n = len(images)
    if n == 0:
        raise ValueError("an element needs at least one point")
    seen = set()
    for v in images:
        if not isinstance(v, int):
            raise ValueError(f"image {v!r} is not an integer")
        if total and not 1 <= v <= n:
            raise ValueError(f"image {v} outside 1..{n} for a total map")
        if not total:
            if not 0 <= v <= n:
                raise ValueError(f"image {v} outside 0..{n}")
            if v != UNDEFINED:
                if v in seen:
                    raise ValueError(f"image {v} repeated; partial maps here are injective")
                seen.add(v)


def _compose_images(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    # Left to right, with 0 propagating: undefined stays undefined and a
    # defined value may fall out of dom(y).
    return tuple(0 if v == UNDEFINED else y[v - 1] for v in x)


@dataclasses.dataclass(frozen=True, order=True)
class PartialPerm:
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

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_images(self.images, total=False)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int | None:
        v = self.images[i - 1]
        return None if v == UNDEFINED else v

    @functools.cached_property
    def dom(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.images, start=1) if v != UNDEFINED)

    @functools.cached_property
    def ran(self) -> frozenset[int]:
        return frozenset(v for v in self.images if v != UNDEFINED)

    @property
    def rank(self) -> int:
        return len(self.ran)

    def compose(self, other: "PartialPerm") -> "PartialPerm":
        """Left-to-right composite: first self, then other."""
        if not isinstance(other, PartialPerm):
            raise TypeError("can only compose with another PartialPerm")
        if other.n != self.n:
            raise ValueError(f"point-set sizes differ: {self.n} vs {other.n}")
        return PartialPerm(_compose_images(self.images, other.images))

    __mul__ = compose

    def inverse(self) -> "PartialPerm":
        inv = [UNDEFINED] * self.n
        for i, v in enumerate(self.images, start=1):
            if v != UNDEFINED:
                inv[v - 1] = i
        return PartialPerm(tuple(inv))

    def is_permutation(self) -> bool:
        return len(self.dom) == self.n

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"PartialPerm({self.images!r})"


@dataclasses.dataclass(frozen=True, order=True)
class Transformation:
    """A total map on {1, ..., n}, stored as its image tuple.

    >>> x = Transformation((2, 3, 1))
    >>> str(x * Transformation((1, 1, 2)))
    '1,2,1'
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_images(self.images, total=True)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @functools.cached_property
    def ran(self) -> frozenset[int]:
        return frozenset(self.images)

    @property
    def rank(self) -> int:
        return len(self.ran)

    def compose(self, other: "Transformation") -> "Transformation":
        """Left-to-right composite: first self, then other."""
        if not isinstance(other, Transformation):
            raise TypeError("can only compose with another Transformation")
        if other.n != self.n:
            raise ValueError(f"point-set sizes differ: {self.n} vs {other.n}")
        return Transformation(_compose_images(self.images, other.images))

    __mul__ = compose

    def preimage(self, v: int) -> frozenset[int]:
        return frozenset(i for i, w in enumerate(self.images, start=1) if w == v)

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"Transformation({self.images!r})"


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


def check_deformation(family: str, n: int, a: Element) -> None:
    """Reject a deformation that is not an element of the family on n points."""
    if family_of(a) != family or a.n != n:
        article = "an" if family == FAMILY_IS else "a"
        raise ValueError(
            f"deformation {format_element(a)} is not {article} {family.upper()}_{n} element"
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

    Row i holds ``enumerate_family(family, n)[i].images``: the mixed-radix
    digits of i, plus one, for ``t``; for ``is`` the base-(n+1) digits of
    0..(n+1)^n - 1, keeping the rows with no repeated defined image.

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
    base = n if family == FAMILY_T else n + 1
    codes = np.arange(base**n, dtype=np.int32)
    images = np.empty((base**n, n), dtype=np.int8)
    for i in range(n):
        images[:, i] = codes // base ** (n - 1 - i) % base
    if family == FAMILY_T:
        images += 1
    else:
        injective = np.ones(len(images), dtype=bool)
        for i, j in itertools.combinations(range(n), 2):
            injective &= (images[:, i] != images[:, j]) | (images[:, i] == UNDEFINED)
        images = images[injective]
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


@functools.lru_cache(maxsize=None)
def universe_texts(family: str, n: int) -> tuple[str, ...]:
    """The rows of ``universe_chars(family, n)``, decoded.

    >>> universe_texts("is", 2)[:3]
    ('-,-', '-,1', '-,2')
    """
    return tuple(universe_chars(family, n).view(f"S{2 * n - 1}").ravel().astype(str).tolist())


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
    """ran of each row of an image array as a bitmask (bit i - 1 for point i);
    undefined entries set no bit."""
    bits = (np.int64(1) << images.astype(np.int64)) >> 1
    return np.bitwise_or.reduce(bits, axis=1)


# The per-universe invariants of the closed forms, each computed once per
# (family, n) and kept read-only in the narrowest dtype that holds it: n <= 7
# points fit a mask in uint8, and 7**7 kernel codes fit int32.


@functools.lru_cache(maxsize=None)
def universe_ranges(family: str, n: int) -> np.ndarray:
    """``range_masks(universe_images(family, n))`` as read-only uint8."""
    ran = range_masks(universe_images(family, n)).astype(np.uint8)
    ran.setflags(write=False)
    return ran


@functools.lru_cache(maxsize=None)
def universe_domains(n: int) -> np.ndarray:
    """dom of each row of the IS_n universe as a read-only uint8 bitmask
    (bit i - 1 for point i), an OR of shifted bits as in range_masks."""
    bits = (universe_images(FAMILY_IS, n) != UNDEFINED).astype(np.uint8) << np.arange(n, dtype=np.uint8)
    dom = np.bitwise_or.reduce(bits, axis=1)
    dom.setflags(write=False)
    return dom


@functools.lru_cache(maxsize=None)
def universe_kernels(n: int) -> np.ndarray:
    """ker of each row of the T_n universe as a read-only int32 code: the
    least point of each point's fiber, 0-based, read as a base-n integer.
    Equal codes mean equal kernels."""
    images = universe_images(FAMILY_T, n)
    codes = np.zeros(len(images), dtype=np.int64)
    for i in range(n):
        codes = codes * n + np.argmax(images[:, : i + 1] == images[:, i : i + 1], axis=1)
    ker = codes.astype(np.int32)
    ker.setflags(write=False)
    return ker


def family_of(x: Element) -> str:
    return FAMILY_IS if isinstance(x, PartialPerm) else FAMILY_T


def parse_element(family: str, text: str) -> Element:
    """Parse comma-separated 1-based images; ``-`` marks an undefined point.

    The number of points is the number of entries.

    >>> parse_element("is", "2, -, 1")
    PartialPerm((2, 0, 1))
    >>> parse_element("t", "1,1,2")
    Transformation((1, 1, 2))
    """
    check_family(family)
    tokens = [t.strip() for t in text.split(",")]
    if tokens == [""]:
        raise ParseError("empty element text")
    n = len(tokens)
    images = []
    for pos, tok in enumerate(tokens, start=1):
        if tok == "-":
            if family == FAMILY_T:
                raise ParseError(f"point {pos}: total maps cannot be undefined")
            images.append(UNDEFINED)
            continue
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"point {pos}: bad image token {tok!r}") from None
        if not 1 <= v <= n:
            raise ParseError(f"point {pos}: image {v} outside 1..{n}")
        images.append(v)
    if family == FAMILY_T:
        return Transformation(tuple(images))
    defined = [v for v in images if v != UNDEFINED]
    if len(defined) != len(set(defined)):
        raise ParseError("repeated image; partial maps here are injective")
    return PartialPerm(tuple(images))


def format_element(x: Element) -> str:
    return ",".join("-" if v == UNDEFINED else str(v) for v in x.images)
