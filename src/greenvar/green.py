"""The green command, and the option checks and renderers every command
shares.

cli registers this module lazily, and executes it only after the
arguments are parsed, so ``greenvar --help`` and every usage error never
compile it; commands imports the shared helpers from here.  green streams
its class lists from the label arrays, so that no large universe is held as
text.  Almost every class of a closed form is a singleton, so green sorts
only the members of the other classes.  One writer, _write_listing, writes
both green's class lists and eggbox's DOT grids a block at a time: the
singletons of each block are byte rows filled into one buffer per index
width, and only the other entries are formatted.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from . import MODES, closedform_is, closedform_t, engine
from .classes import GreenClassification
from .elements import FAMILY_IS, Element, ParseError, parse_element, universe_chars

MEMBER_LIMIT = 50  # longest member list printed without --full
RENDER_BLOCK = 2048  # classes of a green class list per write: the rows a singleton buffer may need


# ---------------------------------------------------------------------------
# options and classifications every command reads


def _parse_or_error(parser: argparse.ArgumentParser, family: str, n: int, text: str) -> Element:
    try:
        x = parse_element(family, text)
    except ParseError as exc:
        parser.error(str(exc))
    if x.n != n:
        parser.error(f"element {text!r} has {x.n} points, expected n={n}")
    return x


def _closed_classification(a: Element, relation: str, mode: str) -> GreenClassification:
    if a.family == FAMILY_IS:
        return closedform_is.closed_classification_is(a, relation, mode)
    return closedform_t.closed_classification_t(a, relation, mode)


# ---------------------------------------------------------------------------
# shared rendering


def _listed(size: int | np.ndarray, full: bool) -> bool | np.ndarray:
    """Whether a class's members are printed rather than elided; for an
    array of class sizes, a mask."""
    return full | (size <= MEMBER_LIMIT)


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


def _singleton_rows(
    buffers: dict[int, np.ndarray], parts: list[str], index: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """An entry template, split into parts literal, field, literal, ...,
    literal, as one row of bytes per singleton class index[k]: field i is
    the index, which has the same number of digits d for all of them, and
    field x the text xs[k] of the class's one member.  The rows are filled
    into buffers[d], whose literal columns are written when it is made or
    outgrown."""
    d = len(str(index[0])) if len(index) else 0
    widths = [len(p) if k % 2 == 0 else d if p == "i" else xs.shape[1] for k, p in enumerate(parts)]
    cols = np.cumsum([0, *widths]).tolist()
    if d not in buffers or len(buffers[d]) < len(index):
        buffers[d] = np.empty((len(index), cols[-1]), dtype=np.uint8)
        for k in range(0, len(parts), 2):
            buffers[d][:, cols[k] : cols[k + 1]] = np.frombuffer(parts[k].encode(), np.uint8)
    rows = buffers[d][: len(index)]
    for k in range(1, len(parts), 2):
        field, rest = rows[:, cols[k] : cols[k + 1]], index
        if parts[k] == "x":
            field[:] = xs
            continue
        decimal = np.empty((d, len(index)), dtype=np.uint8)  # digit t of index[k] at [t, k]
        for t in reversed(range(d)):
            rest, decimal[t] = np.divmod(rest, 10)
        field[:] = decimal.T + ord("0")
    return rows


def _write_listing(
    chars: np.ndarray, apart: np.ndarray, solo: np.ndarray, parts: list[str],
    entries: Iterator[str], block: int, first: str,
) -> None:
    """Write first, then entry i of a listing for each i < len(apart),
    block entries to a write.  Where apart[i], entry i is the next of
    entries.  The others are singletons, and the t-th of them is a byte row
    of the template parts (see _singleton_rows) whose field x is the text of
    universe index solo[t].  Each block is split where the index gains a
    digit, and the singleton rows of each split are filled in one pass."""
    k = len(apart)
    own = np.flatnonzero(apart).tolist()
    buffers: dict[int, np.ndarray] = {}  # one per number of digits, reused by later blocks
    # own[j] is the next entry from entries, solo[t] the next singleton's member.
    j, t = 0, 0
    for lo in range(0, k, block):
        hi = min(lo + block, k)
        tens = [10**d for d in range(len(str(lo)), len(str(hi - 1)))]
        pieces = [first.encode()] if lo == 0 else []
        for p, q in zip([lo, *tens], [*tens, hi]):
            ids = np.flatnonzero(~apart[p:q]) + p
            singles = _singleton_rows(buffers, parts, ids, chars[solo[t : t + len(ids)]])
            t, done, j0 = t + len(ids), 0, j
            while j < len(own) and own[j] < q:
                before = own[j] - p - (j - j0)  # singletons before own[j]
                pieces += [singles[done:before], next(entries).encode()]
                done, j = before, j + 1
            pieces.append(singles[done:])
        sys.stdout.write(b"".join(pieces).decode())


def _write_classes(
    c: GreenClassification, chars: np.ndarray, full: bool,
    entry: Callable[[object, object, str, str | None], str], sep: str,
    *, first: str = "", end: str = "\n", last: str = "\n",
) -> None:
    """Write first, then entry(i, size, rep, members) for each class i of c,
    followed by end, or by last for the final class; members is the member
    texts joined by sep, or None when elided.  _write_listing writes them,
    RENDER_BLOCK classes to a write.  Each class of more than one, and the
    final class, is an entry of its own: only their members are sorted, and
    the member texts of those listed are laid out in one pass.  The other
    classes are singletons, byte rows of the template
    entry("{i}", 1, "{x}", "{x}")."""
    counts, labels, width = c.counts, c.labels, chars.shape[1]
    k = len(counts)
    apart = counts > 1
    apart[-1] = True
    single = ~apart[labels]
    solo = np.flatnonzero(single)  # each singleton's member: they come in class order
    rows = np.flatnonzero(~single)
    rows = rows[np.argsort(labels[rows], kind="stable")]  # class by class, each ascending
    own = np.flatnonzero(apart)
    sizes = counts[own]
    listed = _listed(sizes, full)
    # Each member text of the listed classes followed by sep, in one string.
    stride = width + len(sep)
    texts = np.empty((int(sizes[listed].sum()), stride), dtype=np.uint8)
    texts[:, :width] = chars[rows[np.repeat(listed, sizes)]]
    texts[:, width:] = np.frombuffer(sep.encode(), np.uint8)
    listing = texts.tobytes().decode()
    reps = chars[rows[np.cumsum(sizes) - sizes]].tobytes().decode()
    stops = (np.cumsum(sizes * listed) * stride).tolist()
    own, sizes, listed = own.tolist(), sizes.tolist(), listed.tolist()

    def entries() -> Iterator[str]:
        for j, (i, size) in enumerate(zip(own, sizes)):
            rep = reps[j * width : (j + 1) * width]
            start = stops[j] - size * stride
            members = listing[start : stops[j] - len(sep)] if listed[j] else None
            yield entry(i, size, rep, members) + (last if i == k - 1 else end)

    parts = re.split(r"\{([ix])\}", entry("{i}", 1, "{x}", "{x}") + end)
    _write_listing(chars, apart, solo, parts, entries(), RENDER_BLOCK, first)


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
        results.append(engine.brute_classification(a, relation))
    if method in ("closed", "both"):
        results.extend(_closed_classification(a, relation, mode) for mode in modes)

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
                "class_count": len(c.counts),
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
