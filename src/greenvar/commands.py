"""The verify, count, eggbox, iso and dual commands of the greenvar CLI.

cli registers this module lazily and calls its handlers by command name,
so it executes only in the processes that run one of these five commands;
``greenvar green`` and ``greenvar --help`` never compile it.  The option
rules and renderers these commands share with green are cli's, imported
from it.  Each handler builds its payload, the JSON document, and _emit
renders it: JSON dumps the payload, and the text and CSV views are read
from it; json and csv are imported only when a command writes them.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

from . import closedform_is, closedform_t, engine, structure
from .cli import _closed_classification, _listed, _parse_or_error, _select_deformations
from .elements import FAMILY_IS, FAMILY_T, Element, universe_texts

if TYPE_CHECKING:
    from .counts import CountReport

VERIFY_RELATIONS = ("r", "l", "h", "d")
# The count table's columns after family, n, a and p, as named in JSON and CSV.
COUNT_COLUMNS = ("side", "quantity", "literal_value", "corrected_value", "enumerated_value", "flag")


# ---------------------------------------------------------------------------
# count reports and output


def _count_report(family: str, n: int, a: Element) -> CountReport:
    if family == FAMILY_IS:
        return closedform_is.count_is_classes(n, a)
    return closedform_t.count_t_classes(n, a)


def _class_entry(cls: tuple[int, ...], texts: Sequence[str], full: bool) -> dict:
    members = [texts[x] for x in cls] if _listed(len(cls), full) else None
    return {"representative": texts[cls[0]], "size": len(cls), "members": members}


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


def _verify_one(family: str, n: int, a: Element) -> dict:
    v = engine.variant_semigroup(family, n, a)
    corrected = {}
    for relation in VERIFY_RELATIONS:
        brute = engine.brute_classification(family, n, a, relation)
        corrected[relation] = _closed_classification(
            family, n, a, relation, "corrected"
        ).same_partition(brute)
    d_equals_j, _ = engine.verify_d_equals_j(v)
    literal_d = _closed_classification(family, n, a, "d", "literal").same_partition(
        engine.brute_classification(family, n, a, "d")
    )
    if family == FAMILY_T and n < 2:
        count_flags: tuple[str, ...] = ()
    else:
        count_flags = _count_report(family, n, a).flags
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
    entries = [_verify_one(family, n, a) for a in _select_deformations(parser, args, family, n)]
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
    _emit(args.format, payload, _verify_lines)
    return 0 if corrected_ok else 1


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
    reports = [_count_report(family, n, a) for a in _select_deformations(parser, args, family, n)]
    payload = {"command": "count", "family": family, "n": n, "reports": [
        {"a": str(rep.a), "p": rep.p, "rows": [
            dict(zip(COUNT_COLUMNS, (*row[:5], ",".join(row.marks)))) for row in rep.rows
        ]}
        for rep in reports
    ]}
    _emit(args.format, payload, _count_lines, _count_rows)
    return int(_count_bug(payload))


# ---------------------------------------------------------------------------
# eggbox


def _cell_text(cell: tuple[int, ...], texts: Sequence[str], full: bool) -> str:
    if full:
        return " ".join(texts[x] for x in cell)
    if len(cell) == 1:
        return texts[cell[0]]
    return f"{texts[cell[0]]} ({len(cell)})"


def _write_dot(
    boxes: Sequence[engine.EggBox], family: str, n: int, a: Element, full: bool
) -> None:
    """Write the DOT document of the egg boxes, one d-class to a write."""
    texts = universe_texts(family, n)
    sys.stdout.write(
        "digraph eggbox {\n"
        f'  label="family={family} n={n} a=\\"{a}\\" d_classes={len(boxes)}";\n'
        '  labelloc="t";\n'
        "  node [shape=plaintext];\n"
    )
    for i, box in enumerate(boxes):
        rows_html = "".join(
            "<TR>"
            + "".join(f"<TD>{_cell_text(cell, texts, full)}</TD>" for cell in row)
            + "</TR>"
            for row in box.cell_members
        )
        sys.stdout.write(
            f"  subgraph cluster_{i} {{\n"
            f'    label="d{i} rep {texts[box.members[0]]} size {len(box.members)}'
            f' ({len(box.row_members)}x{len(box.col_members)})";\n'
            f'    box{i} [label=<<TABLE BORDER="0" CELLBORDER="1"'
            f' CELLSPACING="0">{rows_html}</TABLE>>];\n'
            "  }\n"
        )
    sys.stdout.write("}\n")


def cmd_eggbox(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    family, n = args.family, args.n
    a = _parse_or_error(parser, family, n, args.a)
    v = engine.variant_semigroup(family, n, a)
    if args.d_rep is not None:
        x = _parse_or_error(parser, family, n, args.d_rep)
        boxes: tuple[engine.EggBox, ...] = (engine.egg_box(v, x),)
    else:
        boxes = engine.all_egg_boxes(v)

    if args.format == "dot":
        _write_dot(boxes, family, n, a, args.full)
        return 0
    texts = universe_texts(family, n)
    _emit(args.format, {
        "command": "eggbox",
        "family": family,
        "n": n,
        "a": str(a),
        "d_classes": [
            {
                "representative": texts[box.members[0]],
                "size": len(box.members),
                "rows": [texts[r[0]] for r in box.row_members],
                "cols": [texts[c[0]] for c in box.col_members],
                "cells": [
                    [_class_entry(cell, texts, args.full) for cell in row]
                    for row in box.cell_members
                ],
            }
            for box in boxes
        ],
    })
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
    _emit(args.format, payload, lambda p: _iso_lines(p, counterexample))
    return int(witness is not None and not classes_preserved)


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
    _emit(args.format, payload, lambda p: _dual_lines(p, [r.counterexample for r in reports]))
    return 0 if payload["all_ok"] else 1
