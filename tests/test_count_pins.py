"""The stdout of every command, pinned by one digest per invocation.

count's CSV carries each formula value and each flag of every count
report, and verify's JSON the count flags beside the class checks, so a
change to how the count audit is stated that moves any value, flag or
exit code shows here.  The other invocations pin each command's text,
CSV, DOT and JSON views, so a change to how a view is rendered that moves
one byte shows here too.  The failure lines of iso and dual, which no
correct structure check prints, are reached by replacing the check in cli.
"""

import hashlib

import pytest

from greenvar import cli as cli_module
from greenvar.elements import parse_element
from greenvar.structure import DualCheckReport


def _digest(cli, argv, code=0):
    got, out, _ = cli(*argv)
    assert got == code
    return hashlib.sha256(out.encode()).hexdigest()


# count and verify at n = 4 over every deformation.
PINNED_N_4 = {
    ("count", "--family", "is", "--n", "4", "--all-a", "--format", "csv"):
        "90cdbb79cf78bed747b7a196ce5bd15b2ee45110fc737ce95b1d33e14c6cbf7d",
    ("count", "--family", "t", "--n", "4", "--all-a", "--format", "csv"):
        "32d5214f95b25b093f68b2d6acc96d920a81d1b7f055d7fc45af4c952dcc4349",
    ("verify", "--family", "t", "--n", "4", "--all-a", "--format", "json"):
        "a6f8575d4086485a7b805ca29e817dc5aff8b5b543b911da545ec149000f7197",
    ("verify", "--family", "is", "--n", "4", "--all-a", "--format", "json"):
        "aee12af4d1328d2a68510d580df310f30b42523ad96e9ab9673c27e75334fc07",
}


@pytest.mark.parametrize(
    "argv",
    [pytest.param(argv, id=f"{argv[0]}-{argv[2]}-{argv[-1]}") for argv in sorted(PINNED_N_4)],
)
def test_count_and_verify_stdout_pinned_n_4(cli, argv):
    assert _digest(cli, argv) == PINNED_N_4[argv]


# argv: (exit code, sha256 of stdout)
PINNED = {
    ("verify", "--family", "is", "--n", "3", "--all-a"):
        (0, "8c7f9da6f9af2d67845437c8aa1c102fded38805b435b2440ca6675139dc88e7"),
    ("count", "--family", "is", "--n", "3", "--all-a", "--format", "text"):
        (0, "e6d8ead8c9a9d4da2be99ddfaf8e54c22f705f3c9b31c85da224edfe11125181"),
    ("count", "--family", "is", "--n", "3", "--all-a", "--format", "json"):
        (0, "475f33a6eff7cb6faf57c53d220396f55a99cbeef1d661c367e7a6d1fa2c5e74"),
    ("count", "--family", "is", "--n", "3", "--all-a", "--format", "csv"):
        (0, "55df0e644449a72f71657a11bbfa284c7eebbd2de736e6909f4a6e219ab1ad42"),
    ("verify", "--family", "t", "--n", "3", "--all-a"):
        (0, "b2a56a1987d8770349a820b0efb77c9e483f0d53db486b6ccdf5093311689d1d"),
    ("count", "--family", "t", "--n", "3", "--all-a", "--format", "text"):
        (0, "3025357fc65cce57dfcbda95f5ba2e7f52454a6200705834e7e709568cae9f36"),
    ("count", "--family", "t", "--n", "3", "--all-a", "--format", "json"):
        (0, "dbdbd2d19f2a15f031ba778de3924de432234397fc4dcae732f35e7e0b74fc8c"),
    ("count", "--family", "t", "--n", "3", "--all-a", "--format", "csv"):
        (0, "251a98eff2b122670057abdb9bcac816232a3f58dd7dcc4ac040970a44c6cfac"),
    ("verify", "--family", "is", "--n", "4", "--rank-reps"):
        (0, "8c5a4477f1d50e59adc427f42737adbaaf0d05dc358f1bbc6f2a06526fd42e79"),
    ("verify", "--family", "t", "--n", "3", "--sample", "5", "--seed", "3", "--format", "json"):
        (0, "a01db234ecd00d842ef479728ea4a73cfb4ed51cc331f6bf1c49f2dee213c159"),
    ("count", "--family", "is", "--n", "4", "--rank-reps", "--format", "csv"):
        (0, "41165e547904ce72e7aec659f3628d1be7e145e6117fb681e4524af8a8b4ae22"),
    ("count", "--family", "t", "--n", "4", "--sample", "3"):
        (0, "9c3e8591d5b7b78a76c026bc536d5fa80c465c17a8fbb313d25dbbefbd7fc65d"),
    ("eggbox", "--family", "t", "--n", "3", "--a", "1,1,2"):
        (0, "9a606428e462466cd932fd277d45836cf90887201caa4fe932b605bed6a68e16"),
    ("eggbox", "--family", "t", "--n", "3", "--a", "1,1,2", "--full"):
        (0, "f4c86c0a697b2f40fecfe33e2b74ddda7e93b71a9847ba846a5495f8022ac154"),
    ("eggbox", "--family", "t", "--n", "3", "--a", "1,1,2", "--format", "json"):
        (0, "0be5fcf2373656a6848ed99daf36485a0c8d52dabebfdfdc1686690f1587ac96"),
    ("eggbox", "--family", "t", "--n", "3", "--a", "1,1,2", "--format", "json", "--full"):
        (0, "0be5fcf2373656a6848ed99daf36485a0c8d52dabebfdfdc1686690f1587ac96"),
    ("eggbox", "--family", "is", "--n", "3", "--a", "2,-,1", "--d-rep", "1,2,-"):
        (0, "68c1d6ede1f738bcd9918a4de8b417b52586fdd28f0b86d514c5ee61762edbd5"),
    ("eggbox", "--family", "is", "--n", "3", "--a", "2,-,1", "--d-rep", "1,2,-", "--format", "json"):
        (0, "b8952ab77368ebb6c61eefd3977e334dd2ee6255f5c6abaeea665288fae7de25"),
    ("iso", "--n", "3", "--a", "1,2,-", "--b", "-,1,2"):
        (0, "1bcd858386400c1d4b55a3ed446fe54f5f24996bdca87c4e67042e22d9b7533b"),
    ("iso", "--n", "3", "--a", "1,2,-", "--b", "-,1,2", "--format", "json"):
        (0, "0748d431f8a8f1c8cb42d946655b11e6147006f675452136cc9341e59905ded6"),
    ("iso", "--n", "3", "--a", "1,2,-", "--b", "1,-,-"):
        (0, "531840051ec774682cd4fdb847e8a5e9c6f2ac7c9cd54a1783b519ff22fcbedd"),
    ("iso", "--n", "3", "--a", "1,2,-", "--b", "1,-,-", "--format", "json"):
        (0, "51e935446d9456fb7ca32adf4d2d7b566130dbe031f608df2cf4aa4c2dc788fe"),
    ("dual", "--n", "3", "--all-a"):
        (0, "d3d120fd3113d3cb82137ea046af8d6e5f88e4ee2d58df25ac15b41792709b9b"),
    ("dual", "--n", "3", "--all-a", "--format", "json"):
        (0, "0cc2f29d68222c8301a0721f31bcd485941f16f5487f975c5999735b25fb9a99"),
    ("dual", "--n", "3", "--a", "2,-,1"):
        (0, "f6e7c0fea75075866b4fcc8558585d5ca0f364bafb9053fe0f85f26b692122f2"),
    ("green", "--family", "is", "--n", "3", "--a", "2,-,1", "--relation", "d", "--mode", "both"):
        (1, "c6d3820de497d4af25deee045ead7fa4c2a2b11a0ee2166bdeb42653a05a799c"),
    ("green", "--family", "is", "--n", "3", "--a", "2,-,1", "--relation", "d", "--mode", "both", "--format", "json"):
        (1, "fdf231008e4b0b796987bd9c641508f2289e83dff9ffc89bab697267620baa91"),
    ("green", "--family", "is", "--n", "3", "--a", "2,-,1", "--relation", "d", "--mode", "both", "--format", "csv"):
        (1, "45749b7a9e5a625bb36f5d8794aef1fb59f3c5390da6eef60284d2b74f33d82a"),
    ("green", "--family", "t", "--n", "3", "--a", "1,1,2", "--relation", "j", "--format", "csv", "--full"):
        (0, "872ede96ea25dfe9947689c39efbb2524e3e4eaee878b9e5902bc5952c53132e"),
}


@pytest.mark.parametrize("argv", sorted(PINNED), ids=" ".join)
def test_stdout_pinned(cli, argv):
    code, digest = PINNED[argv]
    assert _digest(cli, argv, code) == digest


def _failed_iso(witness):
    return False, (parse_element("is", "1,-,-"), parse_element("is", "-,2,-"))


def _failed_dual(a):
    # The anti-isomorphism fails at 2,- and the r-to-l correspondence at -,1.
    if str(a) == "2,-":
        pair = (parse_element("is", "1,-"), parse_element("is", "-,2"))
        return DualCheckReport(a, False, pair, None)
    return DualCheckReport(a, True, None, str(a) != "-,1")


ISO_ARGV = ("iso", "--n", "3", "--a", "1,2,-", "--b", "-,1,2")
ISO_HEAD = (
    'iso n=3 a="1,2,-" b="-,1,2"\n'
    "rank(a)=2 rank(b)=2\n"
    "witness g=2,3,1 h=1,2,3 (phi(x) = h . x . g, with g . b . h = a)\n"
)

# (the cli name replaced, its replacement, argv, text stdout, sha256 of the JSON stdout)
FAILED = {
    "iso-homomorphism": (
        "verify_isomorphism", _failed_iso, ISO_ARGV,
        ISO_HEAD + "verification FAILED at pair (1,-,-, -,2,-)\n",
        "9468cc45b586a659f1d517094ef2c19510eb0179b14dc1a7e52fc6e5cfdb3f0d",
    ),
    "iso-classes": (
        "iso_preserves_classes", lambda witness: False, ISO_ARGV,
        ISO_HEAD + "bijective homomorphism: verified on all pairs\n"
        "class preservation (r l h d): FAIL\n",
        "17fbfaf6706eddd6f3c4c26e4e4fc05dba3f8f14f3e93aa627429d59a788c240",
    ),
    "dual": (
        "dual_check", _failed_dual, ("dual", "--n", "2", "--all-a"),
        "dual n=2 deformations=7\n"
        '  a="-,-" anti-isomorphism=pass r-vs-l-classes=match\n'
        '  a="-,1" anti-isomorphism=pass r-vs-l-classes=FAIL\n'
        '  a="-,2" anti-isomorphism=pass r-vs-l-classes=match\n'
        '  a="1,-" anti-isomorphism=pass r-vs-l-classes=match\n'
        '  a="1,2" anti-isomorphism=pass r-vs-l-classes=match\n'
        '  a="2,-" anti-isomorphism=FAIL r-vs-l-classes=FAIL counterexample=(1,-, -,2)\n'
        '  a="2,1" anti-isomorphism=pass r-vs-l-classes=match\n'
        "FAIL\n",
        "db5abd0c9ccaea5570f463081537bc216cb5d5483e6d1db454ba91c236c161d8",
    ),
}


@pytest.mark.parametrize("case", sorted(FAILED))
def test_failure_stdout_pinned(cli, monkeypatch, case):
    name, check, argv, text, json_digest = FAILED[case]
    monkeypatch.setattr(cli_module, name, check)
    assert cli(*argv) == (1, text, "")
    assert _digest(cli, (*argv, "--format", "json"), 1) == json_digest
