import pytest

from greenvar.cli import main
from greenvar.elements import Transformation, universe_chars


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


def universe_texts(family, n):
    """The element texts of the family on n points in canonical order: the
    rows of universe_chars, decoded one by one."""
    chars = universe_chars(family, n)
    return tuple(row.tobytes().decode() for row in chars)


def kernel_types(n):
    """One transformation per kernel type of T_n, the multiset of its fiber
    sizes (a partition of n), with fibers of descending size mapped to
    1, 2, ...: 1,1,1,2,2 for 3 + 2."""

    def partitions(left, most):
        if left == 0:
            yield ()
        for part in range(min(left, most), 0, -1):
            yield from ((part, *rest) for rest in partitions(left - part, part))

    return [
        Transformation(tuple(i for i, part in enumerate(parts, start=1) for _ in range(part)))
        for parts in partitions(n, n)
    ]
