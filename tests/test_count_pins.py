"""The stdout of count and verify at n = 4 over every deformation, pinned by
one digest per command.

count's CSV carries each formula value and each flag of every count
report, and verify's JSON the count flags beside the class checks, so a
change to how the count audit is stated that moves any value, flag or
exit code shows here.
"""

import hashlib

import pytest

PINNED = {
    ("count", "is", "csv"): "90cdbb79cf78bed747b7a196ce5bd15b2ee45110fc737ce95b1d33e14c6cbf7d",
    ("count", "t", "csv"): "32d5214f95b25b093f68b2d6acc96d920a81d1b7f055d7fc45af4c952dcc4349",
    ("verify", "t", "json"): "a6f8575d4086485a7b805ca29e817dc5aff8b5b543b911da545ec149000f7197",
    ("verify", "is", "json"): "aee12af4d1328d2a68510d580df310f30b42523ad96e9ab9673c27e75334fc07",
}


@pytest.mark.parametrize("command, family, fmt", sorted(PINNED))
def test_count_and_verify_stdout_pinned_n_4(cli, command, family, fmt):
    code, out, _ = cli(command, "--family", family, "--n", "4", "--all-a", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[command, family, fmt]
