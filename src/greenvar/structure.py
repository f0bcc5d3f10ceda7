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

All checks are exhaustive over the universe (or all pairs), so each of
their two semigroups is held to brute force's size rule.  Both maps are
index arrays computed on the image array: one pair check compares the
products of two semigroups through a map, a block of rows at a time read
through ``VariantSemigroup.products``, and one partition check compares a
partition carried across a map by its labels.  Element objects are built
only for a reported pair.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .classes import GreenClassification, canonical_labels
from .elements import (
    FAMILY_IS,
    PartialPerm,
    UNDEFINED,
    elements_at,
    family_of,
    universe_images,
    universe_index,
)
from .engine import (
    IDEAL_BLOCK,
    VariantSemigroup,
    brute_classification,
    check_brute_cost,
    green_classes_brute,
    variant_semigroup,
)


def _check_is(a: PartialPerm) -> None:
    if family_of(a) != FAMILY_IS:
        raise TypeError("structure maps are defined for partial injections")
    check_brute_cost(a)


def _first_failing_pair(
    v: VariantSemigroup, w: VariantSemigroup, p: np.ndarray, *, reverse: bool = False
) -> tuple[PartialPerm, PartialPerm] | None:
    # The first pair (x, y) in row-major order with p[x *_v y] unequal to
    # p[x] *_w p[y] (to p[y] *_w p[x] when reverse), as elements; None when
    # p carries every product.  Compared IDEAL_BLOCK rows at a time.
    ys = np.arange(v.size)
    for start in range(0, v.size, IDEAL_BLOCK):
        xs = ys[start : start + IDEAL_BLOCK, None]
        image = w.products(p[ys], p[xs]) if reverse else w.products(p[xs], p[ys])
        failing = np.argwhere(p[v.products(xs, ys)] != image)
        if len(failing):
            i, j = failing[0]
            x, y = elements_at(FAMILY_IS, v.n, (start + i, j))
            return x, y
    return None


def _carries(p: np.ndarray, source: GreenClassification, target: GreenClassification) -> bool:
    # p carries each class of source onto a class of target exactly when
    # target's labels, read through p and renumbered, are source's.
    return np.array_equal(canonical_labels(target.labels[p]), source.labels)


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


def dual_check(a: PartialPerm) -> DualCheckReport:
    """Verify inverse(x *_{a^{-1}} y) = inverse(y) *_a inverse(x) for all pairs,
    then the induced r-to-l partition correspondence.

    Over the product tables T this is the identity
    inv[T_{a^{-1}}] == T_a[inv][:, inv].T, with inv the index map of inversion,
    compared a block of rows at a time.
    """
    _check_is(a)
    a_inv = a.inverse()
    v, v_inv = variant_semigroup(a), variant_semigroup(a_inv)
    inv = _inversion_map(a.n)
    failing = _first_failing_pair(v_inv, v, inv, reverse=True)
    if failing is not None:
        return DualCheckReport(a, False, failing, None)
    r, l = green_classes_brute(v, "r"), green_classes_brute(v_inv, "l")
    return DualCheckReport(a, True, None, _carries(inv, r, l))


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
    va = variant_semigroup(a)
    p = _iso_map(witness)
    _, first, image_of = np.unique(p, return_index=True, return_inverse=True)
    earlier = first[image_of.ravel()]  # the least x with the same image as each x
    collided = np.flatnonzero(earlier < np.arange(len(p)))
    if len(collided):
        x, y = elements_at(FAMILY_IS, a.n, (earlier[collided[0]], collided[0]))
        return False, (x, y)
    vb = variant_semigroup(b)
    failing = _first_failing_pair(va, vb, p)
    if failing is not None:
        return False, failing
    return True, None


def iso_preserves_classes(witness: IsoWitness) -> bool:
    """phi must carry each r, l, h and d class for a onto one for b."""
    a, b = witness.a, witness.b
    p = _iso_map(witness)
    for relation in "rlhd":
        if not _carries(p, brute_classification(a, relation), brute_classification(b, relation)):
            return False
    return True
