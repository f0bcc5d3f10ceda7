"""Command-line front end: compute, verify, count, audit, and export.

Six subcommands cover the workflow:

    green    classes of one relation on one variant semigroup
    verify   sweep deformations, cross-checking closed forms against brute force
    count    audit the class-count formulas against enumeration
    eggbox   d-class grids as DOT or JSON
    iso      witness an isomorphism between (IS_n, *_a) and (IS_n, *_b)
    dual     check that inversion maps (IS_n, *_{a^-1}) anti-isomorphically
             onto (IS_n, *_a) and swaps the r- and l-partitions

Exit codes: 0 success; 1 a checked property failed (green with method=both
on a class mismatch, verify and count on any corrected-mode discrepancy,
iso and dual on verification failure); 2 usage or capacity errors.
Literal-mode discrepancies are findings, reported with exit 0.

Each command first builds one payload, its JSON document, and only then
renders it: JSON dumps the payload, and the text and CSV views are read
from it.  Three things are read from elsewhere: the counterexample pairs
of iso and dual, which JSON does not carry, and, so that no large
universe is held as text, green's class lists, streamed from the label
arrays, and eggbox's DOT and JSON grids, from the egg-box index arrays.

A process compiles and executes only the code its command runs.  This
module holds the parser and main, and imports only the standard library
and the package, which states the families, relations and modes the
parser offers; so ``greenvar --help`` and every usage error exit without
loading numpy.  Every other greenvar module is registered through
``importlib.util.LazyLoader`` and called through the module
(``engine.brute_classification(...)``), so the body of each executes when
a command first reads from it: green (the green command and the helpers
every command shares), commands (the handlers of the other five),
elements, classes, the referee (engine), the two closed-form modules, the
count audit (counts) and structure.  main parses first and only then reads
the command's handler, whose module imports numpy, elements and classes;
json is imported only where JSON is written.

When main reads sys.argv, the process exists to run one command: it is the
greenvar script, ``python -m greenvar`` or this file run as __main__.  main
then calls ``gc.freeze()`` and pauses the cyclic collector before it
parses, and calls ``gc.freeze()`` again once it has read the handler, which
imports numpy and the command's modules; the collector resumes only if it
was on.  So none of the 30-odd young collections numpy's import would
trigger runs, and every object the imports built (about 32,000 tracked
containers) sits in the permanent generation: the command's own
collections and the full collection Python runs at exit skip them, and the
OS reclaims their memory when the process ends.  A caller that passes argv
(a test, a library user, a long-lived process) keeps its collector as it
set it, and so does one that only imports this module.

Output is deterministic byte-for-byte for a fixed invocation.  JSON output
validates against output_schema.json shipped in this package.  Member
lists longer than green.MEMBER_LIMIT are elided unless --full is given.
"""

# The annotations here are evaluated: `from __future__ import annotations`
# would import a module that no parse needs.
import argparse
import gc
import importlib.util
import os
import re
import sys
from collections.abc import Sequence
from types import ModuleType

from . import FAMILIES, MODES, RELATIONS

# greenvar calls no BLAS routine, and each idle OpenBLAS worker numpy starts spins a core.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _lazy(name: str) -> ModuleType:
    """greenvar's module name, registered so that its body executes when
    one of its attributes is first read; a module loaded already is
    returned as it is."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# Every greenvar module is in sys.modules from here on, so perfbench's
# span tracer finds each module it wraps; reading one executes it, and
# its imports add no greenvar module.
elements, green, commands = map(_lazy, ("elements", "green", "commands"))
for _name in ("classes", "engine", "closedform_is", "closedform_t", "counts", "structure"):
    _lazy(_name)

DEFAULT_SEED = 7
ALL_A_CAP = 4  # --all-a sweeps stop here; sample larger universes instead


def __getattr__(name: str) -> object:
    # perfbench's tests read enumerate_family from this module, which
    # imported it while --all-a was swept here.
    if name == "enumerate_family":
        return getattr(elements, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# argument plumbing


def _positive_int(text: str) -> int:
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _add_selection(sub: argparse.ArgumentParser, *, sampled: bool = True) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--a", help="one deformation, element text like 2,-,1")
    group.add_argument(
        "--all-a", action="store_true", help=f"every deformation (n <= {ALL_A_CAP})"
    )
    if not sampled:
        return
    group.add_argument(
        "--rank-reps",
        action="store_true",
        help="one deformation per rank (family is only)",
    )
    group.add_argument(
        "--sample", type=_positive_int, metavar="K", help="K seeded-random deformations"
    )
    sub.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"sampling seed (default {DEFAULT_SEED})"
    )


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenvar",
        description="Equivalence classes of variant semigroups, two ways,"
        " cross-checked.",
    )
    parser.set_defaults(status=0)
    sub = parser.add_subparsers(dest="command", required=True)

    green_p = sub.add_parser("green", help="classify one variant semigroup")
    green_p.add_argument("--family", choices=FAMILIES, required=True)
    green_p.add_argument("--n", type=_positive_int, required=True)
    green_p.add_argument("--a", required=True, help="deformation, element text")
    green_p.add_argument("--relation", choices=RELATIONS, required=True)
    green_p.add_argument(
        "--method",
        choices=("brute", "closed", "both"),
        default=None,
        help="default: both (brute for relation j)",
    )
    green_p.add_argument("--mode", choices=MODES + ("both",), default="corrected")
    green_p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    green_p.add_argument("--full", action="store_true", help="never elide member lists")

    verify = sub.add_parser("verify", help="cross-check closed forms against brute force")
    verify.add_argument("--family", choices=FAMILIES, required=True)
    verify.add_argument("--n", type=_positive_int, required=True)
    _add_selection(verify)
    verify.add_argument("--format", choices=("text", "json"), default="text")

    count = sub.add_parser("count", help="audit class-count formulas")
    count.add_argument("--family", choices=FAMILIES, required=True)
    count.add_argument("--n", type=_positive_int, required=True)
    _add_selection(count)
    count.add_argument("--format", choices=("text", "json", "csv"), default="text")

    eggbox_p = sub.add_parser("eggbox", help="export d-class grids")
    eggbox_p.add_argument("--family", choices=FAMILIES, required=True)
    eggbox_p.add_argument("--n", type=_positive_int, required=True)
    eggbox_p.add_argument("--a", required=True, help="deformation, element text")
    eggbox_p.add_argument(
        "--d-rep", default=None, help="only the d-class containing this element"
    )
    eggbox_p.add_argument("--format", choices=("dot", "json"), default="dot")
    eggbox_p.add_argument("--full", action="store_true", help="list every member")

    iso = sub.add_parser(
        "iso", help="isomorphism witness between two partial-injection variants"
    )
    iso.add_argument("--n", type=_positive_int, required=True)
    iso.add_argument("--a", required=True)
    iso.add_argument("--b", required=True)
    iso.add_argument("--format", choices=("text", "json"), default="text")

    dual = sub.add_parser(
        "dual", help="inversion anti-isomorphism onto the inverse deformation"
    )
    dual.add_argument("--n", type=_positive_int, required=True)
    _add_selection(dual, sampled=False)
    dual.add_argument("--format", choices=("text", "json"), default="text")

    return parser


_ELEMENT_OPTIONS = ("--a", "--b", "--d-rep")
_ELEMENT_RE = re.compile(r"^([0-9]+|-)(,([0-9]+|-))*$")


def _glue_element_args(argv: Sequence[str]) -> list[str]:
    # Element texts such as -,-,- start with a dash and would be taken for
    # options; fold them into --opt=value form before argparse sees them.
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _ELEMENT_OPTIONS and i + 1 < len(argv) and _ELEMENT_RE.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        # This process is the command: no collection runs while the
        # command's modules import numpy, and none examines what they built.
        collecting = gc.isenabled()
        gc.freeze()
        gc.disable()
    parser = build_parser()
    args = parser.parse_args(_glue_element_args(sys.argv[1:] if argv is None else argv))
    # green runs from its own module; the other commands' handlers are in commands.
    handler = getattr(green if args.command == "green" else commands, f"cmd_{args.command}")
    if argv is None:
        gc.freeze()
        if collecting:
            gc.enable()
    try:
        return handler(parser, args)
    except ValueError as exc:  # a ParseError or CapacityError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left early, as `| head` does: keep the flush at exit
        # quiet.  Every command set its status before it first wrote.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return args.status


if __name__ == "__main__":
    # python -m runs this file as __main__; commands imports it by its name.
    sys.modules[f"{__package__}.cli"] = sys.modules[__name__]
    sys.exit(main())
