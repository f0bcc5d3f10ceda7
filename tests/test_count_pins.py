"""The stdout of every command, pinned by one digest per invocation.

count's CSV carries each formula value and each flag of every count
report, and verify's JSON the count flags beside the class checks, so a
change to how the count audit is stated that moves any value, flag or
exit code shows here.  The other invocations pin each command's text,
CSV, DOT and JSON views, so a change to how a view is rendered that moves
one byte shows here too.  The failure lines of iso and dual, which no
correct structure check prints, are reached by replacing the check in
structure, the module cli calls it through.  Help texts and usage
errors are pinned the same way, on the stream each writes.
"""

import hashlib

import pytest

from greenvar import structure
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


# eggbox where box ids reach 4 and 5 digits and the DOT view takes several
# writes: 1,938 d-classes at T_5 and 27,927 at T_6, almost all singletons.
PINNED_EGGBOX = {
    ("eggbox", "--family", "t", "--n", "5", "--a", "4,3,4,5,5"):
        "f73d9d60ac1a4a01957c01856964aa16247604af849c7fb1d5a7f005af00212e",
    ("eggbox", "--family", "t", "--n", "5", "--a", "4,3,4,5,5", "--full"):
        "699b0403112381e98c407d29d7a06907349133ed1aa661c3befbdfa91e39d01f",
    ("eggbox", "--family", "t", "--n", "5", "--a", "4,3,4,5,5", "--format", "json"):
        "75d57043616e960d10360e8ee21a3c68921a27e9d32381e5564a048377e495ac",
    ("eggbox", "--family", "t", "--n", "6", "--a", "1,2,3,4,4,4"):
        "b8f1d2f16b5d1054ae6d0da7d767ae354e6e10e5a235bea8363d242cc29004fd",
}


@pytest.mark.parametrize("argv", sorted(PINNED_EGGBOX), ids=" ".join)
def test_eggbox_stdout_pinned_large(cli, argv):
    assert _digest(cli, argv) == PINNED_EGGBOX[argv]


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
    monkeypatch.setattr(structure, name, check)
    assert cli(*argv) == (1, text, "")
    assert _digest(cli, (*argv, "--format", "json"), 1) == json_digest


# Help and usage errors: argv -> (exit code, sha256 of the one stream
# written: stdout for help, stderr for errors), with help laid out in 80
# columns.  The errors cover a missing --n on every command, a non-integer
# --n, each element and selection check the commands make, and the capacity
# errors.
PINNED_USAGE = {
    ():
        (2, "53f76740a88dd71492b5800040389fceefdcd776ccd2199f32c45a6c24cbb86a"),
    ("bogus",):
        (2, "80e67303924a39459d49884d2bd0dc867591c44cb4eda3c947258f32a7c2bbd1"),
    ("--help",):
        (0, "2c7953fcf9715ad9c074c3a2c0e5f8ab62cdeee745f87d21f1e3d91398f2ed2f"),
    ("green", "--help"):
        (0, "88dd35aae0e384559818dd72b37cb79c68f4faa2577740335c23524d300381f5"),
    ("verify", "--help"):
        (0, "a45d02383a1e1505da8f8020248eaa569c1e44a07fc40ffc5aa1125e4f561900"),
    ("count", "--help"):
        (0, "5638932dbe315de1890ea63c4ebe5f6d75a460e4a8ce758a7f29fbd7d10b97e7"),
    ("eggbox", "--help"):
        (0, "f2c804c53e237c87b646ea4d5fd491bc8b844847e963b9eec4ccf6d2cd64138e"),
    ("iso", "--help"):
        (0, "075296c02df67624717492e4dd2f776b53066e54c239e33ea18131147d7c3fb5"),
    ("dual", "--help"):
        (0, "a726e9f906c1a199da10663eb46f71232d167fb5976f8b859298c23aad278f75"),
    ("green", "--family", "t", "--a", "1,1", "--relation", "r"):
        (2, "67e3fe577249fca116c499d2822189afc6e5420b075229743ee9939feb3b2360"),
    ("verify", "--family", "t", "--all-a"):
        (2, "57a5592bb6aa324f39e9dde6ccd5fd3a52ff6b6a98c1150bf7ec84ddb0fe257c"),
    ("count", "--family", "t", "--all-a"):
        (2, "5b1d7997ae2f9cbac1e84c975052e423a3169e34abc9772cf5f09f4dc29d6e59"),
    ("eggbox", "--family", "t", "--a", "1,1"):
        (2, "211bea937443bf31886625b25300f0a0901824d12add7cc6e87ab019276316fe"),
    ("iso", "--a", "1,-", "--b", "-,1"):
        (2, "97bbb0b59606fdc73fa6a3d35638a05d48a4b54975833a04c1339cf52aac994c"),
    ("dual", "--all-a"):
        (2, "425fae303a671ae54409c045984f4d9b9c6d6425eb5912fcc01d0b505623cc4c"),
    ("green", "--family", "t", "--n", "3", "--a", "1,4,2", "--relation", "r"):
        (2, "c64c4b01ca0bfe3d56df3c3ad2a912db1e0252aa775224480f00b23e217faeac"),
    ("green", "--family", "t", "--n", "abc", "--a", "1", "--relation", "r"):
        (2, "0ac804c949c417fd80cba0f3c0ae75df2f2fb74817c7b069f20ef2c73d3ea5fe"),
    ("green", "--family", "t", "--n", "2", "--a", "1,1", "--relation", "j", "--method", "closed"):
        (2, "ef242aad9f3f5c05dbf386d18f0d34c44692107f13c2db21da47168cea84fd80"),
    ("verify", "--family", "t", "--n", "2", "--a", "1"):
        (2, "f1fd0062c8658e847bbee654fd426960031d66e45777ec70ec471b22d843a944"),
    ("verify", "--family", "t", "--n", "2", "--rank-reps"):
        (2, "d571769c746de93e1e4c047d80d762a9e744fff12941bc22ff527d4fe486f3bb"),
    ("verify", "--family", "t", "--n", "3", "--sample", "100"):
        (2, "b29534c79cbc2a8b3a3c1cce00de443951e04b5cc0a3fd2487deae2381805d07"),
    ("verify", "--family", "t", "--n", "7", "--sample", "1"):
        (2, "a840ed4b0a3183506a99e00e02aac8c2b7b056a6501c69f23f368988a988395e"),
    ("count", "--family", "t", "--n", "1", "--all-a"):
        (2, "037bfc0cce97e1cb26624014acf7061fb58476d3aa276439c2f7f104235df453"),
    ("eggbox", "--family", "is", "--n", "3", "--a", "1,2"):
        (2, "8216891e8f61b27d93588c4d4e40c74943c9dd43878ea96d9fe7304160c7ebe5"),
    ("eggbox", "--family", "t", "--n", "2", "--a", "1,1", "--d-rep", "1,1,1"):
        (2, "780f045ad1d0879b30def66563886bef4409692893b41bb00945172624ef6d97"),
    ("eggbox", "--family", "t", "--n", "6", "--a", "2,3,4,5,6,1"):
        (2, "15b2ecef507691835af79ba2b7c96c6f986d5f2243f0bc4c637c928473786d7a"),
    ("iso", "--n", "2", "--a", "1,-", "--b", "1,1"):
        (2, "4d0ecfb1ae817b852116367bd7109e25027dddd6b776207e409bec27f40b8107"),
    ("dual", "--n", "5", "--all-a"):
        (2, "c0148d794a98dd686bb6e1933e7fa740ed4b4338ee641a33868b65f55545aaa4"),
}


@pytest.mark.parametrize("argv", sorted(PINNED_USAGE), ids=lambda argv: " ".join(argv) or "-")
def test_help_and_usage_errors_pinned(cli, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = cli(*argv)
    assert code == PINNED_USAGE[argv][0]
    assert (out, err)[code != 2] == ""
    assert hashlib.sha256((out or err).encode()).hexdigest() == PINNED_USAGE[argv][1]
