"""The benchmark workloads and the checks on their outputs.

A workload is a fixed list of greenvar CLI command lines.  The workload seed
only picks deformations, and always from one isomorphism class per command:
T_n deformations are conjugates of a fixed base (conjugation by a permutation
carries (T_n, *_a) isomorphically onto (T_n, *_{g^-1 a g})), and IS_n
deformations are drawn at a fixed rank (rank alone decides the isomorphism
type).  So every seed asks the program for the same amount of work, and the
shape of every output (class sizes, counts, line structure) is the same for
every seed.  ``shape_digest`` hashes exactly that shape, which lets the
benchmark check outputs at any seed; at the default seed it also checks the
exact bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re

DEFAULT_SEED = 1


@dataclasses.dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]

    @property
    def is_json(self) -> bool:
        return any(k == "--format" and v == "json" for k, v in zip(self.argv, self.argv[1:]))

    def __str__(self) -> str:
        return "greenvar " + " ".join(self.argv)


def _text(images: list[int]) -> str:
    return ",".join(str(v) if v else "-" for v in images)


def conjugate_t(base: str, rng: random.Random) -> str:
    """g . base . g^-1 for a seeded permutation g of the points."""
    b = [int(v) for v in base.split(",")]
    n = len(b)
    p = list(range(1, n + 1))
    rng.shuffle(p)
    out = [0] * n
    for i in range(n):
        out[p[i] - 1] = p[b[i] - 1]
    return _text(out)


def partial_injection(n: int, rank: int, rng: random.Random) -> str:
    """A seeded partial injection on n points with the given rank."""
    out = [0] * n
    for d, v in zip(rng.sample(range(1, n + 1), rank), rng.sample(range(1, n + 1), rank)):
        out[d - 1] = v
    return _text(out)


def _green(family: str, n: int, a: str, relation: str, *extra: str) -> Command:
    return Command(
        ("green", "--family", family, "--n", str(n), "--a", a, "--relation", relation)
        + extra
    )


def brute_t5(rng: random.Random) -> list[Command]:
    a = conjugate_t("1,1,2,2,3", rng)  # rank 3, fibres 2+2+1
    b = partial_injection(5, 3, rng)
    c, d, e = (partial_injection(4, 2, rng) for _ in range(3))
    return [
        *(_green("t", 5, a, rel, "--method", "both") for rel in "rlhd"),
        _green("t", 5, a, "j", "--format", "json"),
        Command(("eggbox", "--family", "t", "--n", "5", "--a", a)),
        Command(("count", "--family", "t", "--n", "5", "--a", a)),
        _green("is", 5, b, "d", "--method", "both", "--format", "json"),
        # The other brute-force referees, on small universes: verify builds
        # 34 tables of 34 elements (per-deformation overhead and the d == j
        # check), dual and iso run the pure-Python object-product loops.
        Command(("verify", "--family", "is", "--n", "3", "--all-a")),
        Command(("dual", "--n", "4", "--a", c)),
        Command(("iso", "--n", "4", "--a", d, "--b", e, "--format", "json")),
    ]


def closed_n6(rng: random.Random) -> list[Command]:
    a = conjugate_t("1,1,2,2,3,3", rng)  # rank 3, fibres 2+2+2
    b = partial_injection(6, 3, rng)
    closed = ("--method", "closed", "--mode", "both")
    # Each T_6 command costs about 3 s, mostly enumeration and rendering, so
    # T_6 gets two (r through the JSON export, d in both modes) and IS_6 all
    # four relations; that keeps a round short enough for several in a run.
    return [
        _green("t", 6, a, "r", "--method", "closed", "--format", "json", "--full"),
        _green("t", 6, a, "d", *closed),
        *(_green("is", 6, b, rel, *closed) for rel in "rlhd"),
    ]


WORKLOADS = {
    "brute_t5": brute_t5,
    "closed_n6": closed_n6,
}


def commands(workload: str, seed: int) -> list[Command]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


_ELEMENT = re.compile(r"(?<![\w.])(?:[0-9]+|-)(?:,(?:[0-9]+|-))+(?![\w])")
_INDEX = re.compile(r"\[[0-9]+\]|cluster_[0-9]+|\bbox[0-9]+|\bd[0-9]+ ")
_GRID = re.compile(r"<TABLE[^>]*>(.*)</TABLE>")
_CELL = re.compile(r"<TD>(.*?)</TD>")


def _canonical_grid(line: str) -> str:
    # Rows and columns of an egg-box grid follow the element order.
    grid = _GRID.search(line)
    if grid is None:
        return line
    body = grid.group(1)
    cells = sorted(_CELL.findall(body))
    return line[: grid.start(1)] + f"rows={body.count('<TR>')} {cells}" + line[grid.end(1):]


def shape_digest(stdout: bytes) -> str:
    """sha256 of the output with element texts and class indices masked and
    lines sorted: the same for isomorphic deformations."""
    text = _INDEX.sub("#", _ELEMENT.sub("E", stdout.decode(errors="replace")))
    lines = sorted(_canonical_grid(x) if "<TABLE" in x else x for x in text.splitlines())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
