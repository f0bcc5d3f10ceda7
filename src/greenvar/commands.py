"""The verify, count, eggbox, iso and dual commands of the greenvar CLI.

cli registers this module lazily and calls its handlers by command name,
so it executes only in the processes that run one of these five commands;
``greenvar green`` and ``greenvar --help`` never compile it.  The option
checks and renderers these commands share with green are green's, imported
from it; the deformations a sweep checks are selected here.  Every listing
of a universe, eggbox's DOT and JSON documents alike, goes out through
green's _write_listing, the one writer of green's class lists too.  _emit
writes only the reports of verify, count, iso and dual: each builds its
payload, the JSON document, which JSON dumps and the text and CSV views
are read from; json and csv are imported only when a command writes them.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

import numpy as np

from . import closedform_is, closedform_t, engine, structure
from .cli import ALL_A_CAP
from .elements import (
    FAMILY_IS,
    FAMILY_T,
    Element,
    elements_at,
    enumerate_family,
    family_element,
    universe_chars,
    universe_images,
)
from .green import _closed_classification, _listed, _parse_or_error, _texts, _write_listing

if TYPE_CHECKING:
    from .counts import CountReport

VERIFY_RELATIONS = ("r", "l", "h", "d")
BOX_BLOCK = 256  # d-classes of an egg-box document per write: 52 KB of DOT singletons at n = 6
# The count table's columns after family, n, a and p, as named in JSON and CSV.
COUNT_COLUMNS = ("side", "quantity", "literal_value", "corrected_value", "enumerated_value", "flag")


# ---------------------------------------------------------------------------
# selection, count reports and output


def _select_deformations(
    parser: argparse.ArgumentParser, args: argparse.Namespace, family: str, n: int
) -> list[Element]:
    # Every deformation is held to brute force's size rule before any is classified.
    if args.a is not None:
        selected = [_parse_or_error(parser, family, n, args.a)]
    elif getattr(args, "rank_reps", False):
        if family != FAMILY_IS:
            parser.error(
                "--rank-reps is only justified for family is; use --all-a or --sample"
            )
        selected = [structure.rank_representative(n, k) for k in range(n + 1)]
    elif args.all_a:
        if n > ALL_A_CAP:
            # dual selects with --a or --all-a alone, so only verify and count can sample.
            hint = "; use --sample" if hasattr(args, "sample") else ""
            parser.error(f"--all-a is capped at n <= {ALL_A_CAP}{hint}")
        selected = list(enumerate_family(family, n))
    else:
        # Sampling indices draws what sampling the elements would; only the
        # drawn elements are built.  If the rule refuses the cheapest, the
        # empty or a constant map, the universe is not listed.
        engine.check_brute_cost(family_element(family, (int(family != FAMILY_IS),) * n))
        images = universe_images(family, n)
        if args.sample > len(images):
            parser.error(f"--sample {args.sample} exceeds the universe size {len(images)}")
        picks = random.Random(args.seed).sample(range(len(images)), args.sample)
        selected = list(elements_at(family, n, sorted(picks)))
    for a in selected:
        engine.check_brute_cost(a)
    return selected


def _count_report(a: Element) -> CountReport:
    if a.family == FAMILY_IS:
        return closedform_is.count_is_classes(a)
    return closedform_t.count_t_classes(a)


def _emit(
    fmt: str, payload: dict,
    text: Callable[[dict], list[str]] | None = None,
    rows: Callable[[dict], Iterable[list]] | None = None,
) -> None:
    """Write payload in format fmt: JSON dumps it, text writes the lines
    text(payload) and CSV the rows rows(payload)."""
    if fmt == "json":
        import json

        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif fmt == "csv":
        import csv

        csv.writer(sys.stdout, lineterminator="\n").writerows(rows(payload))
    else:
        sys.stdout.write("\n".join(text(payload)) + "\n")


# ---------------------------------------------------------------------------
# verify


def _verify_one(a: Element) -> dict:
    corrected = {
        relation: _closed_classification(a, relation, "corrected").same_partition(
            engine.brute_classification(a, relation)
        )
        for relation in VERIFY_RELATIONS
    }
    d_equals_j, _ = engine.verify_d_equals_j(engine.variant_semigroup(a))
    literal_d = _closed_classification(a, "d", "literal").same_partition(
        engine.brute_classification(a, "d")
    )
    if a.family == FAMILY_T and a.n < 2:
        count_flags: tuple[str, ...] = ()
    else:
        count_flags = _count_report(a).flags
    return {
        "a": str(a),
        "corrected": corrected,
        "d_equals_j": d_equals_j,
        "literal_d_matches_brute": literal_d,
        "count_flags": list(count_flags),
    }


def _verify_lines(p: dict) -> list[str]:
    summary, k = p["summary"], p["summary"]["deformation_count"]
    lines = ["verify family={family} n={n} deformations=".format_map(p) + str(k)]
    for e in p["deformations"]:
        checks = [f"{rel}={'ok' if e['corrected'][rel] else 'MISMATCH'}" for rel in p["relations"]]
        lines.append(
            f"  a=\"{e['a']}\" {' '.join(checks)} d==j={'ok' if e['d_equals_j'] else 'MISMATCH'}"
            f" literal-d={'ok' if e['literal_d_matches_brute'] else 'drift'}"
            f" counts={','.join(e['count_flags']) or 'ok'}"
        )
    return [
        *lines,
        "corrected closed forms vs brute force: "
        + ("all agree" if summary["corrected_ok"] else "MISMATCH (bug)"),
        f"literal d-description drift: {summary['literal_d_drift_count']} of {k} deformations",
        f"literal count findings: {summary['count_finding_count']} of {k} deformations",
    ]


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    family, n = args.family, args.n
    entries = [_verify_one(a) for a in _select_deformations(parser, args, family, n)]
    corrected_ok = all(
        all(e["corrected"].values())
        and e["d_equals_j"]
        and not any(f.startswith("corrected:") for f in e["count_flags"])
        for e in entries
    )
    payload = {
        "command": "verify",
        "family": family,
        "n": n,
        "relations": list(VERIFY_RELATIONS),
        "deformations": entries,
        "summary": {
            "deformation_count": len(entries),
            "corrected_ok": corrected_ok,
            "literal_d_drift_count": sum(not e["literal_d_matches_brute"] for e in entries),
            "count_finding_count": sum(
                any(f.startswith("literal:") for f in e["count_flags"]) for e in entries
            ),
        },
    }
    args.status = int(not corrected_ok)  # main's status if the reader leaves early
    _emit(args.format, payload, _verify_lines)
    return args.status


# ---------------------------------------------------------------------------
# count


def _count_bug(p: dict) -> bool:
    """Whether a corrected formula differs from enumeration in some row."""
    return any(
        "corrected" in row["flag"].split(",") for report in p["reports"] for row in report["rows"]
    )


def _count_rows(p: dict) -> Iterable[list]:
    yield ["family", "n", "a", "p", *COUNT_COLUMNS]
    for report in p["reports"]:
        for row in report["rows"]:
            yield [p["family"], p["n"], report["a"], report["p"], *map(row.get, COUNT_COLUMNS)]


def _count_lines(p: dict) -> list[str]:
    lines = ["count family={family} n={n} deformations=".format_map(p) + str(len(p["reports"]))]
    header = tuple(column.removesuffix("_value") for column in COUNT_COLUMNS)
    for report in p["reports"]:
        lines.append('a="{a}" p={p}'.format_map(report))
        grid = [header] + [tuple(str(row[c]) for c in COUNT_COLUMNS) for row in report["rows"]]
        widths = [max(map(len, column)) for column in zip(*grid)]
        lines += ["  " + "  ".join(map(str.ljust, r, widths)).rstrip() for r in grid]
    lines.append(
        "corrected formulas vs enumeration: " + ("MISMATCH (bug)" if _count_bug(p) else "all agree")
    )
    return lines


def cmd_count(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    family, n = args.family, args.n
    if family == FAMILY_T and n < 2:
        parser.error("count needs n >= 2 for family t")
    reports = [_count_report(a) for a in _select_deformations(parser, args, family, n)]
    payload = {"command": "count", "family": family, "n": n, "reports": [
        {"a": str(rep.a), "p": rep.a.rank, "rows": [
            dict(zip(COUNT_COLUMNS, (*row[:5], ",".join(row.marks)))) for row in rep.rows
        ]}
        for rep in reports
    ]}
    args.status = int(_count_bug(payload))  # main's status if the reader leaves early
    _emit(args.format, payload, _count_lines, _count_rows)
    return args.status


# ---------------------------------------------------------------------------
# eggbox


def _cell_text(texts: list[str], full: bool) -> str:
    if full or len(texts) == 1:
        return " ".join(texts)
    return f"{texts[0]} ({len(texts)})"


def _grid(boxes: engine.EggBoxes, b: int, chars: np.ndarray) -> list[list[list[str]]]:
    """Box b's member texts, row by row and cell by cell."""
    first, end = boxes.boxes[b : b + 2].tolist()
    bounds = boxes.cells[first : end + 1].tolist()
    texts = _texts(chars, boxes.members[bounds[0] : bounds[-1]], " ").split(" ")
    bounds = [x - bounds[0] for x in bounds]
    cells = [texts[i:j] for i, j in zip(bounds, bounds[1:])]
    width = int(boxes.cols[b + 1] - boxes.cols[b])
    return [cells[t : t + width] for t in range(0, len(cells), width)]


def _dot_box(b: object, grid: list[list[list[str]]], full: bool) -> str:
    """Box b's DOT cluster."""
    size = sum(len(cell) for row in grid for cell in row)
    rows_html = "".join(
        "<TR>" + "".join(f"<TD>{_cell_text(cell, full)}</TD>" for cell in row) + "</TR>"
        for row in grid
    )
    return (
        f"  subgraph cluster_{b} {{\n"
        f'    label="d{b} rep {grid[0][0][0]} size {size} ({len(grid)}x{len(grid[0])})";\n'
        f'    box{b} [label=<<TABLE BORDER="0" CELLBORDER="1"'
        f' CELLSPACING="0">{rows_html}</TABLE>>];\n'
        "  }\n"
    )


def _class_entry(texts: list[str], full: bool) -> dict:
    members = texts if _listed(len(texts), full) else None
    return {"representative": texts[0], "size": len(texts), "members": members}


def _json_box(b: object, grid: list[list[list[str]]], full: bool) -> str:
    """Box b's d-class object exactly as json.dumps(indent=2, sort_keys=True)
    lays it out at its depth in the eggbox payload.  Element texts order as
    their universe indices, so the least text of a row or column is its
    least member."""
    import json

    box = {
        "representative": grid[0][0][0],
        "size": sum(len(cell) for row in grid for cell in row),
        "rows": [min(cell[0] for cell in row) for row in grid],
        "cols": [min(cell[0] for cell in column) for column in zip(*grid)],
        "cells": [[_class_entry(cell, full) for cell in row] for row in grid],
    }
    return "    " + json.dumps(box, indent=2, sort_keys=True).replace("\n", "\n    ")


def cmd_eggbox(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Write the egg boxes of a's semigroup through green's _write_listing,
    BOX_BLOCK d-classes to a write.  Almost every d-class is a singleton, a
    byte row of one template: only the boxes of more than one member are
    formatted, and in JSON the last box too, which no comma follows."""
    family, n = args.family, args.n
    a = _parse_or_error(parser, family, n, args.a)
    v = engine.variant_semigroup(a)
    if args.d_rep is not None:
        boxes = engine.egg_box(v, _parse_or_error(parser, family, n, args.d_rep))
    else:
        boxes = engine.all_egg_boxes(v)

    chars = universe_chars(family, n)
    starts = boxes.cells[boxes.boxes]  # each box's first member, and the end
    apart = np.diff(starts) > 1
    k = len(apart)
    if args.format == "dot":
        box, end, tail = _dot_box, "", "}\n"
        head = (
            "digraph eggbox {\n"
            f'  label="family={family} n={n} a=\\"{a}\\" d_classes={k}";\n'
            '  labelloc="t";\n'
            "  node [shape=plaintext];\n"
        )
    else:
        import json

        box, end = _json_box, ",\n"
        apart[-1] = True
        # The boxes are written where json.dumps put a placeholder.
        payload = {"command": "eggbox", "family": family, "n": n, "a": str(a), "d_classes": "<>"}
        head, tail = (json.dumps(payload, indent=2, sort_keys=True) + "\n").split('"<>"')
        head, tail = head + "[\n", "\n  ]" + tail
    solo = boxes.members[starts[:-1][~apart]]  # each singleton's one member
    grids = (
        box(b, _grid(boxes, b, chars), args.full) + (end if b < k - 1 else "")
        for b in np.flatnonzero(apart).tolist()
    )
    parts = re.split(r"\{([ix])\}", box("{i}", [[["{x}"]]], args.full) + end)
    _write_listing(chars, apart, solo, parts, grids, BOX_BLOCK, head)
    sys.stdout.write(tail)
    return 0


# ---------------------------------------------------------------------------
# iso and dual


def _iso_lines(p: dict, counterexample: tuple[Element, Element] | None) -> list[str]:
    lines = [
        'iso n={n} a="{a}" b="{b}"'.format_map(p),
        "rank(a)={rank_a} rank(b)={rank_b}".format_map(p),
    ]
    w = p["witness"]
    if w is None:
        return [*lines, "rank mismatch: no isomorphism exists between deformations of unequal rank"]
    lines.append(f"witness g={w['g']} h={w['h']} (phi(x) = h . x . g, with g . b . h = a)")
    if not p["verified"]:
        x, y = counterexample
        return [*lines, f"verification FAILED at pair ({x}, {y})"]
    return [
        *lines,
        "bijective homomorphism: verified on all pairs",
        "class preservation (r l h d): " + ("pass" if p["classes_preserved"] else "FAIL"),
    ]


def cmd_iso(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    n = args.n
    a = _parse_or_error(parser, FAMILY_IS, n, args.a)
    b = _parse_or_error(parser, FAMILY_IS, n, args.b)
    witness = structure.iso_witness(a, b)
    verified = classes_preserved = counterexample = None
    if witness is not None:
        verified, counterexample = structure.verify_isomorphism(witness)
        classes_preserved = verified and structure.iso_preserves_classes(witness)
    payload = {
        "command": "iso",
        "n": n,
        "a": str(a),
        "b": str(b),
        "rank_a": a.rank,
        "rank_b": b.rank,
        "witness": None if witness is None else {"g": str(witness.g), "h": str(witness.h)},
        "verified": verified,
        "classes_preserved": classes_preserved,
    }
    args.status = int(witness is not None and not classes_preserved)  # if the reader leaves early
    _emit(args.format, payload, lambda p: _iso_lines(p, counterexample))
    return args.status


def _dual_lines(p: dict, counterexamples: list[tuple[Element, Element] | None]) -> list[str]:
    lines = [f"dual n={p['n']} deformations={len(p['deformations'])}"]
    for e, pair in zip(p["deformations"], counterexamples):
        line = (
            f"  a=\"{e['a']}\" anti-isomorphism={'pass' if e['holds'] else 'FAIL'}"
            f" r-vs-l-classes={'match' if e['classes_match'] else 'FAIL'}"
        )
        lines.append(line if pair is None else f"{line} counterexample=({pair[0]}, {pair[1]})")
    return [*lines, "all deformations pass" if p["all_ok"] else "FAIL"]


def cmd_dual(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    deformations = _select_deformations(parser, args, FAMILY_IS, args.n)
    reports = [structure.dual_check(a) for a in deformations]
    entries = [
        {"a": str(r.a), "holds": r.holds, "classes_match": r.classes_match} for r in reports
    ]
    payload = {
        "command": "dual",
        "n": args.n,
        "deformations": entries,
        "all_ok": all(e["holds"] and e["classes_match"] for e in entries),
    }
    args.status = int(not payload["all_ok"])  # main's status if the reader leaves early
    _emit(args.format, payload, lambda p: _dual_lines(p, [r.counterexample for r in reports]))
    return args.status
