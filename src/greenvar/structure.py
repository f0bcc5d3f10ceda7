"""Structure maps between deformations of the partial-injection family.

Two facts are made executable here:

- Self-duality: inversion turns (IS_n, *_{a^{-1}}) into the mirror of
  (IS_n, *_a), since (x . a^{-1} . y)^{-1} = y^{-1} . a . x^{-1}.  As a
  consequence inversion carries the r-partition for a onto the l-partition
  for a^{-1}, block by block.
- Rank determines the deformation up to isomorphism: for rank(a) = rank(b)
  there are permutations g, h with g . b . h = a, and then
  phi(x) = h . x . g is an isomorphism (IS_n, *_a) -> (IS_n, *_b).
  Unequal ranks give no isomorphism; that direction is not re-proved here,
  only the constructed witnesses are machine-verified.

All checks are exhaustive over the universe (or all pairs), so they are
capped at the brute-force size, n <= BRUTE_CAP.  Both maps are index
arrays computed on the image array: the pair checks compare product
tables through them, a block of rows at a time read from the factored
tables, and a partition carried across a map is compared by its labels.
Element objects are built only for a reported pair.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

import numpy as np

from .elements import (
    FAMILY_IS,
    PartialPerm,
    UNDEFINED,
    family_of,
    universe_images,
    universe_index,
)
from .engine import (
    IDEAL_BLOCK,
    VariantSemigroup,
    brute_classification,
    canonical_labels,
    check_brute_cap,
    variant_semigroup,
)


def _check_is(a: PartialPerm) -> None:
    if family_of(a) != FAMILY_IS:
        raise TypeError("structure maps are defined for partial injections")
    check_brute_cap(a.n)


def _products(v: VariantSemigroup, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # The indices of xs *_a ys, broadcast, read through the factored table.
    rows, left_of = v.table()
    return rows[left_of[xs], ys]


def _first_failing_pair(
    v: VariantSemigroup, mismatch: Callable[[np.ndarray], np.ndarray]
) -> tuple[PartialPerm, PartialPerm] | None:
    # mismatch(xs) marks the failing pairs (x, y) of a column xs of
    # consecutive indices, one row per x; it is asked IDEAL_BLOCK rows at a
    # time, and the first failing pair in row-major order is returned as
    # elements.
    for start in range(0, v.size, IDEAL_BLOCK):
        xs = np.arange(start, min(start + IDEAL_BLOCK, v.size))[:, None]
        failing = np.argwhere(mismatch(xs))
        if len(failing):
            i, j = failing[0]
            return v.universe[start + i], v.universe[j]
    return None


def rank_representative(n: int, k: int) -> PartialPerm:
    """The canonical deformation of rank k: the identity on {1, ..., k}."""
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} outside 0..{n}")
    return PartialPerm(tuple(range(1, k + 1)) + (UNDEFINED,) * (n - k))


@dataclasses.dataclass(frozen=True)
class DualCheckReport:
    a: PartialPerm
    holds: bool
    counterexample: tuple[PartialPerm, PartialPerm] | None
    classes_match: bool | None  # r-partition for a vs inverted l-partition for a^{-1}


def _inversion_map(n: int) -> np.ndarray:
    # inv[x] is the index of x^{-1}: where x sends point i to j, x^{-1}
    # sends j to i.
    images = universe_images(FAMILY_IS, n)
    inverse = np.zeros_like(images)
    xs, points = np.nonzero(images)
    inverse[xs, images[xs, points] - 1] = points + 1
    return universe_index(FAMILY_IS, n, inverse)


def dual_check(a: PartialPerm, *, check_classes: bool = True) -> DualCheckReport:
    """Verify inverse(x *_{a^{-1}} y) = inverse(y) *_a inverse(x) for all pairs,
    and optionally the induced r-to-l partition correspondence.

    Over the product tables T this is the identity
    inv[T_{a^{-1}}] == T_a[inv][:, inv].T, with inv the index map of inversion,
    compared a block of rows at a time.
    """
    _check_is(a)
    a_inv = a.inverse()
    v = variant_semigroup(FAMILY_IS, a.n, a)
    v_inv = variant_semigroup(FAMILY_IS, a.n, a_inv)
    inv = _inversion_map(a.n)
    # Row x of T_a[inv][:, inv].T holds T_a[inv[y], inv[x]] for every y.
    failing = _first_failing_pair(
        v,
        lambda xs: inv[_products(v_inv, xs, np.arange(v.size))] != _products(v, inv, inv[xs]),
    )
    if failing is not None:
        return DualCheckReport(a, False, failing, None)
    classes_match = None
    if check_classes:
        r = brute_classification(FAMILY_IS, a.n, a, "r")
        l = brute_classification(FAMILY_IS, a.n, a_inv, "l")
        classes_match = np.array_equal(canonical_labels(l.labels[inv]), r.labels)
    return DualCheckReport(a, True, None, classes_match)


@dataclasses.dataclass(frozen=True)
class IsoWitness:
    """Permutations g, h with g . b . h = a; phi(x) = h . x . g maps
    (IS_n, *_a) isomorphically onto (IS_n, *_b)."""

    a: PartialPerm
    b: PartialPerm
    g: PartialPerm
    h: PartialPerm

    def __post_init__(self) -> None:
        if not (self.g.is_permutation() and self.h.is_permutation()):
            raise ValueError("g and h must be permutations")
        if self.g.compose(self.b).compose(self.h) != self.a:
            raise ValueError("g . b . h differs from a")

    def apply(self, x: PartialPerm) -> PartialPerm:
        return self.h.compose(x).compose(self.g)


def _matched_permutation(sources: list[int], targets: list[int], n: int) -> PartialPerm:
    # Send the listed sources to the listed targets and the leftover points to
    # the leftover points, both in ascending order.
    images = [0] * n
    for s, t in zip(sources, targets):
        images[s - 1] = t
    rest_src = sorted(set(range(1, n + 1)) - set(sources))
    rest_tgt = sorted(set(range(1, n + 1)) - set(targets))
    for s, t in zip(rest_src, rest_tgt):
        images[s - 1] = t
    return PartialPerm(tuple(images))


def iso_witness(a: PartialPerm, b: PartialPerm) -> IsoWitness | None:
    """Construct the deterministic witness for rank(a) = rank(b); None when
    the ranks differ (no isomorphism exists in that case)."""
    _check_is(a)
    _check_is(b)
    if a.n != b.n:
        raise ValueError(f"point-set sizes differ: {a.n} vs {b.n}")
    if a.rank != b.rank:
        return None
    n = a.n
    dom_a, dom_b = sorted(a.dom), sorted(b.dom)
    g = _matched_permutation(dom_a, dom_b, n)
    # h must finish the chain i -> g(i) -> b(g(i)) -> a(i) on dom(a).
    h = _matched_permutation([b(g(i)) for i in dom_a], [a(i) for i in dom_a], n)
    return IsoWitness(a=a, b=b, g=g, h=h)


def _iso_map(witness: IsoWitness) -> np.ndarray:
    # p[x] is the index of phi(x) = h . x . g: point i of phi(x) is
    # g(x(h(i))), undefined wherever x is.
    n = witness.a.n
    g_pad = np.zeros(n + 1, dtype=np.int8)
    g_pad[1:] = witness.g.images
    h_at = np.array(witness.h.images) - 1
    return universe_index(FAMILY_IS, n, g_pad[universe_images(FAMILY_IS, n)[:, h_at]])


def verify_isomorphism(
    witness: IsoWitness,
) -> tuple[bool, tuple[PartialPerm, PartialPerm] | None]:
    """Exhaustively confirm phi is a bijective homomorphism; a failing pair
    otherwise (the bijection check reports a pair of colliding elements).

    With p the index map of phi, the homomorphism law over the product
    tables is p[T_a] == T_b[p][:, p], compared a block of rows at a time;
    the first failing pair is reported in row-major order.
    """
    a, b = witness.a, witness.b
    _check_is(a)
    va = variant_semigroup(FAMILY_IS, a.n, a)
    p = _iso_map(witness)
    _, first, image_of = np.unique(p, return_index=True, return_inverse=True)
    earlier = first[image_of.ravel()]  # the least x with the same image as each x
    collided = np.flatnonzero(earlier < np.arange(len(p)))
    if len(collided):
        x = collided[0]
        return False, (va.universe[earlier[x]], va.universe[x])
    vb = variant_semigroup(FAMILY_IS, b.n, b)
    failing = _first_failing_pair(
        va, lambda xs: p[_products(va, xs, np.arange(va.size))] != _products(vb, p[xs], p)
    )
    if failing is not None:
        return False, failing
    return True, None


def iso_preserves_classes(
    witness: IsoWitness, relations: tuple[str, ...] = ("r", "l", "h", "d")
) -> bool:
    """phi must carry each equivalence class for a onto one for b."""
    a, b = witness.a, witness.b
    p = _iso_map(witness)
    for relation in relations:
        ca = brute_classification(FAMILY_IS, a.n, a, relation)
        cb = brute_classification(FAMILY_IS, b.n, b, relation)
        if not np.array_equal(canonical_labels(cb.labels[p]), ca.labels):
            return False
    return True
