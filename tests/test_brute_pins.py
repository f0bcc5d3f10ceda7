"""Every brute-force partition at n <= 4, and three T_5 ones, pinned by digest.

The n <= 4 digest covers each deformation a and each relation r/l/h/d/j of
one family, so a change to how the referee builds its table or compares its
ideals that moves any element between classes shows here.  The T_5 digests
pin the labels of a rank-3, a rank-4 and a full-rank deformation, the last
of which takes the j path with no repeated left factor.  The digests were
computed with the dense boolean ideal matrices that preceded the packed
rows.
"""

import hashlib

import pytest

from greenvar.elements import FAMILY_IS, FAMILY_T, enumerate_family, parse_element
from greenvar.engine import RELATIONS, green_classes_brute, variant_semigroup

PINNED = {
    FAMILY_IS: "cc1eb65ac04c2899a1cc86013d2637ef74f0d7d7fdca62c4ba2207f2d03fb312",
    FAMILY_T: "26e297b9f6c59a6b60dc3fa3227103a4b3a69131bca80823cc5ecbe56c0dc718",
}

# d = j in every finite semigroup, so their digests coincide.
PINNED_T5 = {
    "1,1,2,2,3": {
        "r": "976acca735cb7c8227138a1ffb425b534ccd217642fce485613451820c2409a3",
        "l": "c48a53cea43d9fbb8fd3b00c8c8f0d9a6f48b7ca28fbbb4f08738ade737d2445",
        "h": "b14ddf7b6edfb4983b7caaa917fd207380c511e90d91b84603d4e4d53e283c71",
        "d": "617f7c9693b3e0b7203efe9b207035d5ca88535746844e411fb9ffff572d820c",
        "j": "617f7c9693b3e0b7203efe9b207035d5ca88535746844e411fb9ffff572d820c",
    },
    "1,2,3,4,4": {
        "r": "da14bd3f3cf635b90c0a7d9307e0a2f4776751a83b03fbba0fb971317afb350b",
        "l": "f19a76a6c075ce5ce4fb4c7493180c3830e9188f6d546b203726e6c51f8665db",
        "h": "1ea3134c421a6182eaac649162b0e11ce4e15bddc767d9abfd2c7cccbca77581",
        "d": "c9625bf6c1e441fe1047e36c400e22ce0660ea1b53743fb9ccf127f7f98d5cbb",
        "j": "c9625bf6c1e441fe1047e36c400e22ce0660ea1b53743fb9ccf127f7f98d5cbb",
    },
    "2,3,4,5,1": {
        "r": "fbaec13399a9bd2fbeacbab79961a0f94adbc10d1b1df7e5407e6126003c497a",
        "l": "c09ff9f53d64f08f84a2a4e0a19f76e8a948386979d6ba5cffed8c5165158ae5",
        "h": "9afc0dacfb9a16c58ee46ebd3d95be64147f892cbed251c1a1f28dbc6964cc44",
        "d": "63e28cdac924ddcb8d40eb15d860ff9944630133560e99574aadae6b1a2725f5",
        "j": "63e28cdac924ddcb8d40eb15d860ff9944630133560e99574aadae6b1a2725f5",
    },
}


def labels_text(classification) -> bytes:
    return (" ".join(map(str, classification.labels.tolist())) + "\n").encode()


def brute_partitions_digest(family: str, max_n: int = 4) -> str:
    digest = hashlib.sha256()
    for n in range(1, max_n + 1):
        for a in enumerate_family(family, n):
            v = variant_semigroup(a)
            for relation in RELATIONS:
                digest.update(f"{n} {a} {relation}\n".encode())
                digest.update(labels_text(green_classes_brute(v, relation)))
    return digest.hexdigest()


@pytest.mark.parametrize("family", (FAMILY_IS, FAMILY_T))
def test_brute_partitions_pinned_n_le_4(family):
    assert brute_partitions_digest(family) == PINNED[family]


@pytest.mark.parametrize("a_text", sorted(PINNED_T5))
def test_brute_partitions_pinned_t5(a_text):
    v = variant_semigroup(parse_element(FAMILY_T, a_text))
    for relation in RELATIONS:
        got = hashlib.sha256(labels_text(green_classes_brute(v, relation))).hexdigest()
        assert got == PINNED_T5[a_text][relation], relation
