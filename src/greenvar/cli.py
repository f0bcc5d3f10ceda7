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
arrays, and eggbox's DOT grids, written from the egg-box index tuples.

A process compiles and executes only the code its command runs.  numpy,
elements and classes, which every command uses, are imported here.  This
module holds the parser, the helpers every command shares and green;
commands holds the handlers of the other five.  commands, the referee
(engine), the two closed-form modules, the count audit (counts) and
structure are registered through ``importlib.util.LazyLoader`` and called
through the module (``engine.brute_classification(...)``), so the body of
each executes when a command first reads from it; json is imported only
where JSON is written.  ``greenvar --help`` executes none of them.

The cyclic collector stays off the imported heap.  While this module
imports numpy, elements and classes and registers the lazy modules, the
collector is paused: the 30-odd young collections numpy's import would
trigger free almost nothing.  Then every object alive moves to the oldest
generation without a collection (``gc.freeze()``, which also zeroes the
young counts, then ``gc.unfreeze()``), so the about 350 objects (55 KB) of
cycles the imports leave are not reclaimed.  The collector is left as the
caller had it: a disabled one stays disabled and a frozen heap stays
frozen, and nothing else is left frozen.

When main reads sys.argv, the process exists to run one command: it is the
greenvar script, ``python -m greenvar`` or this file run as __main__.  main
then first calls ``gc.freeze()``, which moves every object alive (the
modules, functions and classes numpy and greenvar imported, about 32,000
tracked containers) into the permanent generation.  The command's own
collections and the full collection Python runs at exit skip them, and the
OS reclaims their memory when the process ends; atexit handlers, the flush
of stdout and stderr, and exit codes are unchanged.  A caller that passes
argv (a test, a library user, a long-lived process) is untouched: its
collector keeps tracking everything.

Output is deterministic byte-for-byte for a fixed invocation.  JSON output
validates against output_schema.json shipped in this package.  Member
lists longer than MEMBER_LIMIT are elided unless --full is given.
"""

from __future__ import annotations

import gc

# The imports build most of the heap a command keeps to its end: the
# collector pauses while they run and is restored as the caller had it.
_collecting = gc.isenabled()
gc.disable()
try:
    import argparse
    import importlib.util
    import os
    import random
    import re
    import sys
    from collections.abc import Callable, Sequence
    from types import ModuleType

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

    import numpy as np

    from .classes import MODES, RELATIONS, GreenClassification
    from .elements import (
        FAMILIES,
        FAMILY_IS,
        CapacityError,
        Element,
        ParseError,
        elements_at,
        enumerate_family,
        parse_element,
        universe_chars,
        universe_images,
    )

    # Their bodies import nothing that is not loaded by now, so executing one
    # adds no entry to sys.modules: perfbench's span tracer reads attributes of
    # every greenvar module while it walks sys.modules.
    engine, closedform_is, closedform_t, structure, commands = map(
        _lazy, ("engine", "closedform_is", "closedform_t", "structure", "commands")
    )
    _lazy("counts")  # the closed forms' count audits import it
finally:
    if not gc.get_freeze_count():
        # Promote what the imports built without collecting it.
        gc.freeze()
        gc.unfreeze()
    if _collecting:
        gc.enable()

MEMBER_LIMIT = 50  # longest member list printed without --full
RENDER_BLOCK = 2048  # classes of a green class list rendered per write
DEFAULT_SEED = 7
ALL_A_CAP = 4  # --all-a sweeps stop here; sample larger universes instead


# ---------------------------------------------------------------------------
# argument plumbing


def _positive_int(text: str) -> int:
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _parse_or_error(parser: argparse.ArgumentParser, family: str, n: int, text: str) -> Element:
    try:
        x = parse_element(family, text)
    except ParseError as exc:
        parser.error(str(exc))
    if x.n != n:
        parser.error(f"element {text!r} has {x.n} points, expected n={n}")
    return x


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


def _select_deformations(
    parser: argparse.ArgumentParser, args: argparse.Namespace, family: str, n: int
) -> list[Element]:
    if args.a is not None:
        return [_parse_or_error(parser, family, n, args.a)]
    if getattr(args, "rank_reps", False):
        if family != FAMILY_IS:
            parser.error(
                "--rank-reps is only justified for family is; use --all-a or --sample"
            )
        return [structure.rank_representative(n, k) for k in range(n + 1)]
    if args.all_a:
        if n > ALL_A_CAP:
            # dual selects with --a or --all-a alone, so only verify and count can sample.
            hint = "; use --sample" if hasattr(args, "sample") else ""
            parser.error(f"--all-a is capped at n <= {ALL_A_CAP}{hint}")
        return list(enumerate_family(family, n))
    # Sampling indices draws what sampling the elements would; only the
    # drawn elements are built.  Every sampled deformation goes to brute
    # force, so its cap is checked before the universe is listed.
    engine.check_brute_cap(n)
    images = universe_images(family, n)
    if args.sample > len(images):
        parser.error(f"--sample {args.sample} exceeds the universe size {len(images)}")
    picks = random.Random(args.seed).sample(range(len(images)), args.sample)
    return list(elements_at(family, n, sorted(picks)))


def _closed_classification(
    family: str, n: int, a: Element, relation: str, mode: str
) -> GreenClassification:
    if family == FAMILY_IS:
        return closedform_is.closed_classification_is(n, a, relation, mode)
    return closedform_t.closed_classification_t(n, a, relation, mode)


# ---------------------------------------------------------------------------
# shared rendering


def _listed(size: int, full: bool) -> bool:
    """Whether a class's members are printed rather than elided."""
    return full or size <= MEMBER_LIMIT


# ---------------------------------------------------------------------------
# green

_PAD = " " * 8  # indent of a class object in a green JSON payload
_JSON_SEP = f'",\n{_PAD}    "'  # between the member texts of one class object


def _text_entry(i: object, size: object, rep: str, members: str | None) -> str:
    if size != 1:
        rep += " (members elided; --full to show)" if members is None else f": {members}"
    return f"  [{i}] size {size} rep {rep}"


def _json_entry(i: object, size: object, rep: str, members: str | None) -> str:
    # One class object exactly as json.dumps(indent=2, sort_keys=True) lays
    # it out at its depth in the payload; element texts need no escaping.
    listed = "null" if members is None else f'[\n{_PAD}    "{members}"\n{_PAD}  ]'
    return (
        f'{_PAD}{{\n{_PAD}  "members": {listed},\n{_PAD}  "representative":'
        f' "{rep}",\n{_PAD}  "size": {size}\n{_PAD}}}'
    )


def _texts(chars: np.ndarray, members: Sequence[int], sep: str) -> str:
    """The texts of the universe indices in members, joined by sep."""
    rows = chars[members].view(f"S{chars.shape[1]}").ravel().tolist()
    return sep.encode().join(rows).decode()


def _singleton_rows(template: str, index: np.ndarray, reps: np.ndarray, chars: np.ndarray) -> np.ndarray:
    """template as one row of bytes per singleton class index[k]: {i}
    becomes the class index, which has the same number of digits for all
    of them, and {x} the text of the class's one member reps[k]."""
    digits = index[:, None] // 10 ** np.arange(len(str(index.max(initial=0))))[::-1] % 10
    fields = {"x": chars[reps], "i": (digits + ord("0")).astype(np.uint8)}
    parts = re.split(r"\{([ix])\}", template)  # literal, field, literal, ..., literal
    return np.hstack([
        fields[p] if k % 2 else np.broadcast_to(np.frombuffer(p.encode(), np.uint8), (len(reps), len(p)))
        for k, p in enumerate(parts)
    ])


def _write_classes(
    c: GreenClassification, chars: np.ndarray, full: bool,
    entry: Callable[[object, object, str, str | None], str], sep: str,
    *, first: str = "", end: str = "\n", last: str = "\n",
) -> None:
    """Write first, then entry(i, size, rep, members) for each class i of c,
    followed by end, or by last for the final class; members is the member
    texts joined by sep, or None when elided.  Classes go out RENDER_BLOCK
    to a write.  The singletons among a block's indices of one number of
    digits are byte rows of the template entry("{i}", 1, "{x}", "{x}")."""
    sizes = np.bincount(c.labels)
    order = np.argsort(c.labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    template = entry("{i}", 1, "{x}", "{x}") + end
    k = len(sizes)
    for lo in range(0, k, RENDER_BLOCK):
        hi = min(lo + RENDER_BLOCK, k)
        tens = [10**d for d in range(len(str(lo)), len(str(hi - 1)))]
        pieces = [first] if lo == 0 else []
        for p, q in zip([lo, *tens], [*tens, hi]):
            ids = np.arange(p, q)
            one = sizes[p:q] == 1
            rows = _singleton_rows(template, ids[one], order[starts[ids[one]]], chars)
            text, width, done = rows.tobytes().decode(), rows.shape[1], 0
            for m, i in enumerate(ids[~one].tolist()):  # i - p - m singletons precede i
                pieces.append(text[done * width : (i - p - m) * width])
                done = i - p - m
                members = order[starts[i] : starts[i] + sizes[i]]
                listed = _texts(chars, members, sep) if _listed(int(sizes[i]), full) else None
                pieces.append(entry(i, int(sizes[i]), _texts(chars, members[:1], ""), listed) + end)
            pieces.append(text[done * width :])
        block = "".join(pieces)
        sys.stdout.write(block[: len(block) - len(end)] + last if hi == k else block)


def cmd_green(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    family, n, relation = args.family, args.n, args.relation
    a = _parse_or_error(parser, family, n, args.a)
    method = args.method
    if method is None:
        method = "brute" if relation == "j" else "both"
    if relation == "j" and method != "brute":
        parser.error("relation j has no closed form; use --method brute")

    modes = list(MODES) if args.mode == "both" else [args.mode]
    results: list[GreenClassification] = []
    if method in ("brute", "both"):
        results.append(engine.brute_classification(family, n, a, relation))
    if method in ("closed", "both"):
        results.extend(
            _closed_classification(family, n, a, relation, mode) for mode in modes
        )

    agreement = None
    if method == "both":
        agreement = [
            {"closed": c.method, "matches_brute": c.same_partition(results[0])}
            for c in results[1:]
        ]
    # main's status if the reader leaves early
    args.status = exit_code = int(not all(e["matches_brute"] for e in agreement or ()))

    chars = universe_chars(family, n)
    placeholder = "<classes>"
    payload = {
        "command": "green",
        "family": family,
        "n": n,
        "a": str(a),
        "relation": relation,
        "method": method,
        "mode": args.mode,
        "results": [
            {
                "method": c.method,
                "class_count": len(c.sizes),
                "singleton_count": c.singleton_count,
                "classes": placeholder,
            }
            for c in results
        ],
        "agreement": agreement,
    }
    if args.format == "json":
        import json

        # The class lists are written from the text table where json.dumps
        # put a placeholder; the indenting encoder is pure Python.
        pieces = (json.dumps(payload, indent=2, sort_keys=True) + "\n").split(f'"{placeholder}"')
        sys.stdout.write(pieces[0])
        for c, piece in zip(results, pieces[1:]):
            _write_classes(c, chars, args.full, _json_entry, _JSON_SEP,
                           first="[\n", end=",\n", last="\n      ]" + piece)
    elif args.format == "csv":
        sys.stdout.write("family,n,a,relation,method,class_index,size,representative,members\n")
        # Element texts hold a comma from n = 2 on, so csv quotes them.
        q = '"' if chars.shape[1] > 1 else ""
        for c, result in zip(results, payload["results"]):
            prefix = f"{family},{n},{q}{a}{q},{relation},{result['method']},"
            _write_classes(c, chars, args.full, lambda i, size, rep, members: (
                f"{prefix}{i},{size},{q}{rep}{q}," + ("" if members is None else f"{q}{members}{q}")
            ), " ")
    else:
        sys.stdout.write(
            'green family={family} n={n} a="{a}" relation={relation} method={method}'
            " mode={mode}\n".format_map(payload)
        )
        for c, result in zip(results, payload["results"]):
            _write_classes(
                c, chars, args.full, _text_entry, " ",
                first=f"{result['method']}: {result['class_count']} classes"
                f" ({result['singleton_count']} singletons)\n",
            )
        for c, entry in zip(results[1:], agreement or ()):
            line = f"diff {entry['closed']} vs brute: "
            if entry["matches_brute"]:
                sys.stdout.write(line + "none\n")
                continue
            x = c.first_divergence(results[0])
            closed_cls, brute_cls = (
                _texts(chars, np.flatnonzero(k.labels == k.labels[x]), " ") for k in (c, results[0])
            )
            sys.stdout.write(
                f"{line}class of {_texts(chars, [x], '')} differs;"
                f" {entry['closed']} has {{{closed_cls}}}, brute has {{{brute_cls}}}\n"
            )
    return exit_code


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

    green = sub.add_parser("green", help="classify one variant semigroup")
    green.add_argument("--family", choices=FAMILIES, required=True)
    green.add_argument("--n", type=_positive_int, required=True)
    green.add_argument("--a", required=True, help="deformation, element text")
    green.add_argument("--relation", choices=RELATIONS, required=True)
    green.add_argument(
        "--method",
        choices=("brute", "closed", "both"),
        default=None,
        help="default: both (brute for relation j)",
    )
    green.add_argument("--mode", choices=MODES + ("both",), default="corrected")
    green.add_argument("--format", choices=("text", "json", "csv"), default="text")
    green.add_argument("--full", action="store_true", help="never elide member lists")

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
        # This process is the command: its collector skips the imported heap.
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(_glue_element_args(sys.argv[1:] if argv is None else argv))
    # green runs here; the other commands' handlers are in commands.
    handler = cmd_green if args.command == "green" else getattr(commands, f"cmd_{args.command}")
    try:
        return handler(parser, args)
    except (ParseError, CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left early, as `| head` does: keep the flush at exit
        # quiet.  green, which writes a block at a time, set its status first.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return args.status


if __name__ == "__main__":
    # python -m runs this file as __main__; commands imports it by its name.
    sys.modules[f"{__package__}.cli"] = sys.modules[__name__]
    sys.exit(main())
