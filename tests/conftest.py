import pytest

from greenvar.cli import main


@pytest.fixture
def cli(capsys):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*args: str):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def class_lists(c, values):
    """values[i] for every universe index i, grouped by c's labels: class by
    class in class order, ascending within each class.  The reference
    reading of a classification's partition."""
    groups = [[] for _ in c.sizes]
    for i, label in enumerate(c.labels.tolist()):
        groups[label].append(values[i])
    return groups
