"""Every closed-form partition at n <= 4, pinned by one digest per family.

The digest covers each deformation a, each relation r/l/h/d and both modes,
so a change to how the closed forms are evaluated that moves any member of
any class (literal mode included, which brute force does not referee) shows
here.  The digests were computed with the per-element evaluation that
preceded the array one.
"""

import hashlib

import pytest
from conftest import class_lists, universe_texts

from greenvar.classes import CLOSED_RELATIONS, MODES
from greenvar.closedform_is import closed_classification_is
from greenvar.closedform_t import closed_classification_t
from greenvar.elements import FAMILY_IS, FAMILY_T, enumerate_family

PINNED = {
    FAMILY_IS: "5e3670ff4fc88126659b74e5879406b391189f6b98b7fdea4dacbbdfdbf29dcd",
    FAMILY_T: "e91d042f09eb0cba57626b5d14db3de0cba7dd731e32799831316b24fdd8020c",
}

CLASSIFY = {FAMILY_IS: closed_classification_is, FAMILY_T: closed_classification_t}


def closed_partitions_digest(family: str, max_n: int = 4) -> str:
    digest = hashlib.sha256()
    for n in range(1, max_n + 1):
        texts = universe_texts(family, n)
        for a in enumerate_family(family, n):
            for relation in CLOSED_RELATIONS:
                for mode in MODES:
                    c = CLASSIFY[family](a, relation, mode)
                    digest.update(f"{n} {a} {relation} {mode}\n".encode())
                    for cls in class_lists(c, texts):
                        digest.update((" ".join(cls) + "\n").encode())
    return digest.hexdigest()


@pytest.mark.parametrize("family", (FAMILY_IS, FAMILY_T))
def test_closed_partitions_pinned_n_le_4(family):
    assert closed_partitions_digest(family) == PINNED[family]
