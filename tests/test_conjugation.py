"""Conjugation by a permutation carries every partition across.

For a permutation g, sigma(x) = g^-1 . x . g is an isomorphism from
(S, *_a) onto (S, *_{sigma(a)}), since g^-1 . x . a . y . g =
sigma(x) . sigma(a) . sigma(y).  So the partition for sigma(a), pulled back
along sigma, must be the partition for a:
canonical_labels(C_{sigma(a)}.labels[sigma]) == C_a.labels.  sigma is an
index array computed on the image array.  Brute force is checked through
n = 4; the corrected closed forms at n = 6, beyond brute-force range.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from greenvar.closedform_is import closed_classification_is
from greenvar.closedform_t import closed_classification_t
from greenvar.elements import (
    FAMILIES,
    FAMILY_IS,
    family_element,
    family_size,
    universe_images,
    universe_index,
)
from greenvar.engine import RELATIONS, brute_classification, canonical_labels


def conjugation(family, n, g):
    """The index map of x -> g^-1 . x . g, for g given as its images."""
    g_pad = np.zeros(n + 1, dtype=np.int8)
    g_pad[1:] = g
    # Point i of g^-1 . x . g is g(x(g^-1(i))); argsort(g)[i - 1] = g^-1(i) - 1.
    return universe_index(family, n, g_pad[universe_images(family, n)[:, np.argsort(g)]])


def conjugate_pair(data, family, n):
    """A drawn deformation a, its conjugate sigma(a), and sigma."""
    g = data.draw(st.permutations(range(1, n + 1)), label="g")
    i = data.draw(st.integers(0, family_size(family, n) - 1), label="a")
    sigma = conjugation(family, n, g)
    assert np.array_equal(np.sort(sigma), np.arange(len(sigma)))
    images = universe_images(family, n)
    a = family_element(family, images[i].tolist())
    b = family_element(family, images[sigma[i]].tolist())
    g_elt = family_element(family, g)
    g_inv = family_element(family, (np.argsort(g) + 1).tolist())
    assert b == g_inv.compose(a).compose(g_elt)
    return a, b, sigma


def assert_carried(ca, cb, sigma):
    assert np.array_equal(canonical_labels(cb.labels[sigma]), ca.labels), (
        ca.a.family, ca.a.n, str(ca.a), str(cb.a), ca.relation, ca.method,
    )


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_brute_classes_carried_by_conjugation(data):
    family = data.draw(st.sampled_from(FAMILIES), label="family")
    n = data.draw(st.integers(1, 4), label="n")
    a, b, sigma = conjugate_pair(data, family, n)
    for relation in RELATIONS:
        assert_carried(
            brute_classification(a, relation),
            brute_classification(b, relation),
            sigma,
        )


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_closed_corrected_classes_carried_by_conjugation_n6(data):
    family = data.draw(st.sampled_from(FAMILIES), label="family")
    closed = closed_classification_is if family == FAMILY_IS else closed_classification_t
    a, b, sigma = conjugate_pair(data, family, 6)
    for relation in ("r", "l", "h", "d"):
        assert_carried(closed(a, relation, "corrected"), closed(b, relation, "corrected"), sigma)
