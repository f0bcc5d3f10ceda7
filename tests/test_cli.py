import ast
import contextlib
import csv
import gc
import hashlib
import importlib.resources
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
import types

import jsonschema
import numpy as np
import pytest
from conftest import class_lists, universe_texts

from greenvar import cli as cli_module
from greenvar import closedform_t, commands, engine
from greenvar.cli import MEMBER_LIMIT
from greenvar.classes import MODES, GreenClassification
from greenvar.closedform_is import closed_classification_is
from greenvar.closedform_t import closed_classification_t
from greenvar.elements import (
    enumerate_family,
    parse_element,
    universe_chars,
    universe_images,
)
from greenvar.engine import brute_classification, variant_semigroup


def load_schema():
    text = (
        importlib.resources.files("greenvar")
        .joinpath("output_schema.json")
        .read_text()
    )
    return json.loads(text)


SCHEMA = load_schema()
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def validated(payload_text):
    payload = json.loads(payload_text)
    errors = sorted(VALIDATOR.iter_errors(payload), key=str)
    assert not errors, errors[0].message if errors else ""
    return payload


# ---------------------------------------------------------------------------
# green


def test_green_both_corrected_agrees(cli):
    code, out, _ = cli(
        "green", "--family", "t", "--n", "2", "--a", "1,1",
        "--relation", "r", "--method", "both",
    )
    assert code == 0
    assert "brute: 3 classes (2 singletons)" in out
    assert "diff closed-corrected vs brute: none" in out


def test_green_literal_d_mismatch_exits_1(cli):
    code, out, _ = cli(
        "green", "--family", "is", "--n", "2", "--a", "1,2",
        "--relation", "d", "--mode", "literal", "--method", "both",
    )
    assert code == 1
    assert "diff closed-literal vs brute: class of -,- differs" in out


def test_green_rank_zero_d_all_singletons(cli):
    code, out, _ = cli(
        "green", "--family", "is", "--n", "3", "--a", "-,-,-", "--relation", "d"
    )
    assert code == 0
    assert "34 classes (34 singletons)" in out


def test_green_relation_j_defaults_to_brute(cli):
    code, out, _ = cli(
        "green", "--family", "t", "--n", "2", "--a", "1,1", "--relation", "j"
    )
    assert code == 0
    assert "method=brute" in out


def test_green_json_validates(cli):
    code, out, _ = cli(
        "green", "--family", "t", "--n", "2", "--a", "1,1", "--relation", "r",
        "--method", "both", "--mode", "both", "--format", "json",
    )
    assert code == 0
    payload = validated(out)
    assert [r["method"] for r in payload["results"]] == [
        "brute", "closed-corrected", "closed-literal",
    ]
    assert all(entry["matches_brute"] for entry in payload["agreement"])


def test_green_csv_shape(cli):
    code, out, _ = cli(
        "green", "--family", "is", "--n", "2", "--a", "1,2",
        "--relation", "d", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "family", "n", "a", "relation", "method", "class_index", "size",
        "representative", "members",
    ]
    assert rows[1] == ["is", "2", "1,2", "d", "brute", "0", "1", "-,-", "-,-"]


def test_green_elision_and_full(cli):
    args = (
        "green", "--family", "is", "--n", "4", "--a", "1,2,3,4",
        "--relation", "d", "--format", "json",
    )
    code, out, _ = cli(*args)
    assert code == 0
    payload = validated(out)
    big = [c for c in payload["results"][0]["classes"] if c["size"] > 50]
    assert big and all(c["members"] is None for c in big)

    code, out, _ = cli(*args, "--full")
    payload = validated(out)
    for c in payload["results"][0]["classes"]:
        assert c["members"] is not None and len(c["members"]) == c["size"]


def test_green_closed_builds_no_universe_elements(cli):
    # The closed path renders from the class labels and the text table.
    for fmt in ("text", "json", "csv"):
        for relation in ("r", "l", "h", "d"):
            enumerate_family.cache_clear()
            code, out, _ = cli(
                "green", "--family", "t", "--n", "4", "--a", "1,1,2,3",
                "--relation", relation, "--method", "closed", "--mode", "both",
                "--format", fmt,
            )
            assert code == 0 and out
            assert enumerate_family.cache_info().misses == 0, (fmt, relation)


def _run_from_cold_caches(cli, *args):
    # Cold caches, so the brute path really runs rather than reusing a
    # classification or a semigroup built earlier.
    for cache in (enumerate_family, brute_classification, variant_semigroup):
        cache.cache_clear()
    code, out, _ = cli(*args)
    assert code == 0 and out
    return enumerate_family.cache_info().misses


def test_brute_path_builds_no_universe_elements(cli):
    # The brute engine works on the image array and index tables, and the
    # classes are rendered from their labels.
    for fmt in ("text", "json", "csv"):
        for relation in ("r", "l", "h", "d", "j"):
            misses = _run_from_cold_caches(
                cli, "green", "--family", "t", "--n", "4", "--a", "1,1,2,3",
                "--relation", relation, "--method", "brute", "--format", fmt,
            )
            assert misses == 0, (fmt, relation)
    for command in ("count", "verify"):
        misses = _run_from_cold_caches(
            cli, command, "--family", "is", "--n", "4", "--a", "1,2,-,-"
        )
        assert misses == 0, command


def _green_json_cases():
    for family in ("is", "t"):
        for n in (1, 2, 3):
            universe = enumerate_family(family, n)
            for a in sorted({universe[0], universe[len(universe) // 2], universe[-1]}):
                for relation in ("r", "l", "h", "d", "j"):
                    yield family, n, str(a), relation
    yield "is", 4, "1,2,3,4", "d"  # a class of more than MEMBER_LIMIT members


def _expected_classes(family, n, a_text, relation, method, full):
    a = parse_element(family, a_text)
    if method == "brute":
        c = brute_classification(a, relation)
    else:
        closed = closed_classification_is if family == "is" else closed_classification_t
        c = closed(a, relation, method.removeprefix("closed-"))
    return [
        {
            "members": cls if full or len(cls) <= MEMBER_LIMIT else None,
            "representative": cls[0],
            "size": len(cls),
        }
        for cls in class_lists(c, universe_texts(family, n))
    ]


@pytest.mark.parametrize("full", (False, True))
def test_green_json_matches_json_dumps(cli, full):
    # The class lists are written from the element texts; they must read
    # exactly as json.dumps(indent=2, sort_keys=True) writes the same payload.
    for family, n, a, relation in _green_json_cases():
        argv = ("green", "--family", family, "--n", str(n), "--a", a,
                "--relation", relation, "--mode", "both", "--format", "json")
        code, out, _ = cli(*argv, *(("--full",) if full else ()))
        assert code in (0, 1), argv
        payload = validated(out)
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n", argv
        for result in payload["results"]:
            assert result["classes"] == _expected_classes(
                family, n, a, relation, result["method"], full
            ), (argv, result["method"])


def _reference_green(family, n, a_text, relation, fmt, full):
    """stdout of green --method both --mode both, rendered one class at a
    time from element text lists, the way the class lists were first
    written: the reference for the block writer."""
    a = parse_element(family, a_text)
    closed = closed_classification_is if family == "is" else closed_classification_t
    results = [brute_classification(a, relation)]
    results += [closed(a, relation, mode) for mode in MODES]
    agreement = [
        {"closed": c.method, "matches_brute": c.same_partition(results[0])}
        for c in results[1:]
    ]
    texts = universe_texts(family, n)
    groups = [class_lists(c, texts) for c in results]

    def listed(group):
        return full or len(group) <= MEMBER_LIMIT

    if fmt == "json":
        payload = {
            "command": "green", "family": family, "n": n, "a": a_text,
            "relation": relation, "method": "both", "mode": "both",
            "results": [
                {
                    "method": c.method,
                    "class_count": len(g),
                    "singleton_count": sum(len(group) == 1 for group in g),
                    "classes": [
                        {"members": group if listed(group) else None,
                         "representative": group[0], "size": len(group)}
                        for group in g
                    ],
                }
                for c, g in zip(results, groups)
            ],
            "agreement": agreement,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["family", "n", "a", "relation", "method", "class_index", "size",
                         "representative", "members"])
        for c, g in zip(results, groups):
            for i, group in enumerate(g):
                writer.writerow([family, n, a_text, relation, c.method, i, len(group),
                                 group[0], " ".join(group) if listed(group) else ""])
        return buf.getvalue()
    lines = [f'green family={family} n={n} a="{a_text}" relation={relation}'
             " method=both mode=both"]
    for c, g in zip(results, groups):
        lines.append(f"{c.method}: {len(g)} classes ({sum(len(x) == 1 for x in g)} singletons)")
        for i, group in enumerate(g):
            head = f"  [{i}] size {len(group)} rep {group[0]}"
            if len(group) == 1:
                lines.append(head)
            elif listed(group):
                lines.append(head + ": " + " ".join(group))
            else:
                lines.append(head + " (members elided; --full to show)")
    for c, entry in zip(results[1:], agreement):
        if entry["matches_brute"]:
            lines.append(f"diff {c.method} vs brute: none")
        else:
            x = c.first_divergence(results[0])
            closed_cls, brute_cls = (
                " ".join(texts[i] for i in np.flatnonzero(k.labels == k.labels[x]))
                for k in (c, results[0])
            )
            lines.append(f"diff {c.method} vs brute: class of {texts[x]} differs;"
                         f" {c.method} has {{{closed_cls}}}, brute has {{{brute_cls}}}")
    return "\n".join(lines) + "\n"


def _renderer_cases():
    for family in ("is", "t"):
        for n in (1, 2, 3, 4):
            texts = universe_texts(family, n)
            for a in sorted({texts[0], texts[len(texts) // 3], texts[-1]}):
                for relation in ("r", "l", "h", "d"):
                    yield family, n, a, relation
    a = random.Random(5).choice(universe_texts("t", 5))
    yield "t", 5, a, "d"
    yield "t", 5, a, "r"  # 1,371 classes, so the indices pass 999 -> 1000


@pytest.mark.parametrize("block", (7, 1))
def test_green_block_writer_matches_per_class_reference(cli, monkeypatch, block):
    # Blocks of 7 and of 1 split runs of equal index width and cross the
    # index widths at 9 -> 10, 99 -> 100 and 999 -> 1000, with a class of
    # more than one member first in some block and last in another, so a
    # block boundary that drops, repeats or pads a class shows.
    monkeypatch.setattr(cli_module, "RENDER_BLOCK", block)
    crossed = opens = closes = False
    for family, n, a, relation in _renderer_cases():
        counts = brute_classification(parse_element(family, a), relation).counts
        multi = np.flatnonzero(counts > 1)
        opens = opens or bool((multi % block == 0).any())
        closes = closes or bool(((multi % block == block - 1) | (multi == len(counts) - 1)).any())
        for fmt in ("text", "json", "csv"):
            for full in (False, True):
                argv = ("green", "--family", family, "--n", str(n), "--a", a,
                        "--relation", relation, "--method", "both", "--mode", "both",
                        "--format", fmt, *(("--full",) if full else ()))
                code, out, err = cli(*argv)
                assert out == _reference_green(family, n, a, relation, fmt, full), argv
                assert code in (0, 1) and not err, argv
                crossed = crossed or "[1000] size" in out
    assert crossed and opens and closes


def _per_class_reference(c, chars, full, entry, sep, first="", end="\n", last="\n"):
    """What _write_classes writes, built one class at a time."""
    texts = [row.tobytes().decode() for row in chars]
    out = [first]
    for i, size in enumerate(c.sizes):
        members = [texts[x] for x in np.flatnonzero(c.labels == i)]
        listed = sep.join(members) if full or size <= MEMBER_LIMIT else None
        out.append(entry(i, size, members[0], listed) + end)
    return "".join(out)[: -len(end)] + last


@pytest.mark.parametrize("block", (1, 3, 7, 2048))
def test_green_writer_lists_classes_of_member_limit_at_block_edges(monkeypatch, block):
    # A partition of T_4's 256 elements into 149 classes, built so that
    # classes of MEMBER_LIMIT + 1, MEMBER_LIMIT and 2 members open and close
    # blocks of 3 and of 7, and the indices pass 9 -> 10 and 99 -> 100.
    # Class i's least member is i; the rest of each class is dealt round
    # robin from the tail of the universe.
    monkeypatch.setattr(cli_module, "RENDER_BLOCK", block)
    sizes = dict.fromkeys(range(149), 1) | {
        0: MEMBER_LIMIT + 1, 6: MEMBER_LIMIT, 8: 2, 13: 3, 14: 2, 99: 2, 100: 3, 148: 2
    }
    assert sum(sizes.values()) == 256
    labels = np.arange(256)
    tail = [i for i, size in sizes.items() for _ in range(size - 1)]
    labels[149:] = random.Random(25).sample(tail, len(tail))
    c = GreenClassification(a=parse_element("t", "1,2,3,4"), relation="r", method="brute",
                            labels=labels)
    assert c.sizes == tuple(sizes.values())
    chars = universe_chars("t", 4)
    csv_entry = lambda i, size, rep, members: f"{i},{size},{rep},{members or ''}"  # noqa: E731
    styles = [
        (cli_module._text_entry, " ", {"first": "head\n"}),
        (cli_module._json_entry, cli_module._JSON_SEP,
         {"first": "[\n", "end": ",\n", "last": "\n      ]}\n"}),
        (csv_entry, " ", {}),
    ]
    for entry, sep, ends in styles:
        for full in (False, True):
            writes = []
            with contextlib.redirect_stdout(types.SimpleNamespace(write=writes.append)):
                cli_module._write_classes(c, chars, full, entry, sep, **ends)
            out = "".join(writes)
            assert out == _per_class_reference(c, chars, full, entry, sep, **ends)
            assert len(writes) == -(-len(sizes) // block)  # one write per block
            if entry is cli_module._text_entry:
                texts = universe_texts("t", 4)
                listed = ": " if full else " (members elided; --full to show)\n"
                assert f"[0] size {MEMBER_LIMIT + 1} rep {texts[0]}{listed}" in out
                assert f"[6] size {MEMBER_LIMIT} rep {texts[6]}: " in out


def test_green_streams_a_t6_export_in_small_writes():
    # The T_6 r export is 5.9 MB of JSON; its class lists go out a block at
    # a time from the label array and the text table, so no whole document
    # (nor a string per class) is ever held.
    class Sink:
        def __init__(self):
            self.sizes = []

        def write(self, text):
            self.sizes.append(len(text))
            return len(text)

        def flush(self):
            pass

    for cache in (universe_images, universe_chars, enumerate_family):
        cache.cache_clear()
    sink = Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli_module.main([
                "green", "--family", "t", "--n", "6", "--a", "3,5,2,3,5,2", "--relation", "r",
                "--method", "closed", "--format", "json", "--full",
            ])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and sum(sink.sizes) > 5 * 2**20
    assert peak < 10 * 2**20, f"export peaked at {peak / 2**20:.1f} MB"
    assert max(sink.sizes) <= 2**20, f"a write of {max(sink.sizes)} characters"


def test_green_exits_quietly_when_the_reader_leaves():
    # A reader that stops after one line, as `| head -1` does, closes the
    # pipe while the T_6 class lists are still being written.
    proc = subprocess.Popen(
        [sys.executable, "-m", "greenvar", "green", "--family", "t", "--n", "6",
         "--a", "3,5,2,3,5,2", "--relation", "d", "--method", "closed"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"green family=t n=6")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


# Child code that breaks one check, then runs the CLI as the greenvar script does.
_BREAK = {
    "corrected l-size": "from greenvar import closedform_t as m; g = m._l_size_corrected;"
    " m._l_size_corrected = lambda n, p, k: g(n, p, k) + 1",
    "class transport": "from greenvar import structure as m; m._carries = lambda *_: False",
}


@pytest.mark.parametrize("broken, argv", [
    ("corrected l-size", ("count", "--family", "t", "--n", "3", "--a", "1,1,2")),
    ("corrected l-size", ("verify", "--family", "t", "--n", "3", "--a", "1,1,2")),
    ("class transport", ("iso", "--n", "3", "--a", "1,2,-", "--b", "-,1,2")),
    ("class transport", ("dual", "--n", "3", "--a", "2,3,-")),
], ids=("count", "verify", "iso", "dual"))
def test_failed_check_exits_1_when_the_reader_left_before_the_output(broken, argv):
    # The read end is closed before the child starts, so its first write
    # fails; -u makes every write reach the pipe at once, as a long output
    # would.  The command's status must be set before it writes.
    read, write = os.pipe()
    os.close(read)
    try:
        code = f"import sys; {_BREAK[broken]}; from greenvar.cli import main; sys.exit(main())"
        proc = subprocess.run(
            [sys.executable, "-u", "-c", code, *argv],
            stdout=write, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


# ---------------------------------------------------------------------------
# verify


def test_verify_is3_all_a_json(cli):
    code, out, _ = cli(
        "verify", "--family", "is", "--n", "3", "--all-a", "--format", "json"
    )
    assert code == 0
    payload = validated(out)
    assert payload["summary"]["deformation_count"] == 34
    assert payload["summary"]["corrected_ok"] is True
    assert payload["summary"]["literal_d_drift_count"] == 33


def test_verify_t2_all_a_records_l_erratum(cli):
    code, out, _ = cli(
        "verify", "--family", "t", "--n", "2", "--all-a", "--format", "json"
    )
    assert code == 0
    payload = validated(out)
    by_a = {e["a"]: e for e in payload["deformations"]}
    assert any(f.startswith("literal:") for f in by_a["1,2"]["count_flags"])


def test_verify_sample_deterministic(cli):
    args = ("verify", "--family", "t", "--n", "3", "--sample", "2", "--seed", "7")
    first = cli(*args)
    second = cli(*args)
    assert first == second
    assert first[0] == 0


def test_verify_rank_reps_is(cli):
    code, out, _ = cli("verify", "--family", "is", "--n", "3", "--rank-reps")
    assert code == 0
    assert "deformations=4" in out


def test_verify_t1_all_a_skips_the_count_audit(cli):
    # Count formulas start at n = 2 for family t, so T_1 has no count flags.
    code, out, _ = cli("verify", "--family", "t", "--n", "1", "--all-a")
    assert code == 0
    assert out == (
        "verify family=t n=1 deformations=1\n"
        '  a="1" r=ok l=ok h=ok d=ok d==j=ok literal-d=ok counts=ok\n'
        "corrected closed forms vs brute force: all agree\n"
        "literal d-description drift: 0 of 1 deformations\n"
        "literal count findings: 0 of 1 deformations\n"
    )


def test_verify_classifies_each_relation_once_per_deformation(cli, monkeypatch):
    # verify reads d for the corrected check, the literal check and d = j:
    # from cold caches each of the 34 deformations of IS_3 is classified
    # once per relation.
    built = []
    genuine = engine.GreenClassification
    monkeypatch.setattr(
        engine, "GreenClassification", lambda **kw: built.append(kw["relation"]) or genuine(**kw)
    )
    for cache in (brute_classification, variant_semigroup):
        cache.cache_clear()
    code, _, _ = cli("verify", "--family", "is", "--n", "3", "--all-a")
    assert code == 0
    assert sorted(built) == sorted(engine.RELATIONS * 34)


def test_sample_refuses_brute_force_before_listing(cli, monkeypatch):
    # T_7 can be listed, but every sampled deformation would go to brute
    # force, which T_7 exceeds whatever a is: the size rule is reported
    # without listing the universe.
    def listed(*_):
        raise AssertionError("the universe was listed")

    monkeypatch.setattr(cli_module, "universe_images", listed)
    for command in ("verify", "count"):
        code, out, err = cli(command, "--family", "t", "--n", "7", "--sample", "1")
        assert (code, out, err) == (2, "", "error: brute force on T_7 needs more than uint16"
                                     " indices: 823543 elements, over 65535\n")


def test_sweep_refuses_before_it_classifies_the_first(cli, monkeypatch):
    # Seed 7 draws one permutation among 50 T_6 deformations, and brute
    # force refuses T_6 at full rank: the sweep stops before its first
    # deformation, so it never writes half a report.
    def classified(*_):
        raise AssertionError("a deformation was classified")

    for handler in ("_verify_one", "_count_report"):
        monkeypatch.setattr(commands, handler, classified)
    for command in ("verify", "count"):
        code, out, err = cli(command, "--family", "t", "--n", "6", "--sample", "50")
        assert (code, out) == (2, "")
        assert err.endswith("needs 4,670.9 MiB, over the 512 MiB budget\n")


# ---------------------------------------------------------------------------
# count


def test_count_csv_columns_pinned(cli):
    code, out, _ = cli(
        "count", "--family", "is", "--n", "3", "--a", "1,2,-", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "family", "n", "a", "p", "side", "quantity", "literal_value",
        "corrected_value", "enumerated_value", "flag",
    ]
    by_key = {(r[4], r[5]): r for r in rows[1:]}
    singleton = by_key[("r", "singleton_count")]
    assert singleton[6:] == ["21", "22", "22", "literal"]


def test_count_json_validates_and_flags(cli):
    code, out, _ = cli(
        "count", "--family", "t", "--n", "3", "--a", "1,1,2", "--format", "json"
    )
    assert code == 0
    payload = validated(out)
    rows = payload["reports"][0]["rows"]
    assert all("corrected" not in row["flag"] for row in rows)
    assert any(row["flag"] == "literal" for row in rows)


def test_count_text_summary_line(cli):
    code, out, _ = cli("count", "--family", "t", "--n", "2", "--a", "1,1")
    assert code == 0
    assert out.endswith("corrected formulas vs enumeration: all agree\n")


def test_count_and_verify_exit_1_on_a_corrected_formula_bug(cli, monkeypatch):
    genuine = closedform_t._l_size_corrected
    monkeypatch.setattr(closedform_t, "_l_size_corrected", lambda n, p, m: genuine(n, p, m) + 1)
    report = closedform_t.count_t_classes(parse_element("t", "1,1,2"))
    assert report.flags == (
        "literal:singleton_count:l", "corrected:singleton_count:l",
        "literal:multi_class_count:l", "literal:size_lines:l", "corrected:size_lines:l",
    )
    code, out, _ = cli("count", "--family", "t", "--n", "3", "--a", "1,1,2")
    assert code == 1
    assert out.endswith("corrected formulas vs enumeration: MISMATCH (bug)\n")
    code, out, _ = cli("count", "--family", "t", "--n", "3", "--a", "1,1,2", "--format", "csv")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fdaabe769471d186d831ad3c8aa13c6f335ae7a027bd188b9df3a4f8ba240d70"
    )
    code, out, _ = cli("verify", "--family", "t", "--n", "3", "--a", "1,1,2")
    assert code == 1
    assert "corrected:size_lines:l" in out


# ---------------------------------------------------------------------------
# eggbox


def test_eggbox_dot_t2(cli):
    code, out, _ = cli("eggbox", "--family", "t", "--n", "2", "--a", "1,1")
    assert code == 0
    assert out.startswith("digraph eggbox {")
    assert out.count("subgraph cluster_") == 3
    assert "<TR><TD>1,1</TD><TD>2,2</TD></TR>" in out


def test_eggbox_d_rep_filter(cli):
    code, out, _ = cli(
        "eggbox", "--family", "is", "--n", "3", "--a", "1,2,-",
        "--d-rep", "1,-,-",
    )
    assert code == 0
    assert out.count("subgraph cluster_") == 1
    assert "(2x2)" in out


def test_eggbox_json_validates(cli):
    code, out, _ = cli(
        "eggbox", "--family", "is", "--n", "2", "--a", "1,2", "--format", "json"
    )
    assert code == 0
    payload = validated(out)
    assert [d["size"] for d in payload["d_classes"]] == [1, 4, 2]
    middle = payload["d_classes"][1]
    assert len(middle["rows"]) == len(middle["cols"]) == 2


def test_eggbox_empty_deformation_unit_clusters(cli):
    code, out, _ = cli(
        "eggbox", "--family", "is", "--n", "2", "--a", "-,-", "--format", "json"
    )
    payload = validated(out)
    assert len(payload["d_classes"]) == 7
    assert all(d["size"] == 1 for d in payload["d_classes"])


def test_eggbox_dot_formats_only_boxes_of_more_than_one(monkeypatch):
    # 1,908 of T_5's 1,938 d-classes are singletons, written as byte rows of
    # one template: only the other 30 are formatted.  The document goes out
    # DOT_BLOCK boxes to a write.
    formatted = []
    genuine = commands._dot_grid
    monkeypatch.setattr(
        commands, "_dot_grid",
        lambda boxes, b, *rest: formatted.append(b) or genuine(boxes, b, *rest),
    )
    writes = []
    with contextlib.redirect_stdout(types.SimpleNamespace(write=writes.append)):
        code = cli_module.main(["eggbox", "--family", "t", "--n", "5", "--a", "4,3,4,5,5"])
    assert code == 0
    assert len(formatted) == 30 and formatted == sorted(formatted)
    assert len(writes) == 2 + -(-1938 // commands.DOT_BLOCK)  # the head and tail besides
    assert max(map(len, writes)) <= 2**16
    assert "".join(writes).count("subgraph cluster_") == 1938


# ---------------------------------------------------------------------------
# iso and dual


def test_iso_witness_verified(cli):
    code, out, _ = cli("iso", "--n", "3", "--a", "1,2,-", "--b", "-,1,2")
    assert code == 0
    assert "witness g=2,3,1 h=1,2,3" in out
    assert "class preservation (r l h d): pass" in out


def test_iso_rank_mismatch(cli):
    code, out, _ = cli(
        "iso", "--n", "3", "--a", "1,2,-", "--b", "1,-,-", "--format", "json"
    )
    assert code == 0
    payload = validated(out)
    assert payload["witness"] is None
    assert (payload["rank_a"], payload["rank_b"]) == (2, 1)


def test_dual_all_a_n2(cli):
    code, out, _ = cli("dual", "--n", "2", "--all-a", "--format", "json")
    assert code == 0
    payload = validated(out)
    assert payload["all_ok"] is True
    assert len(payload["deformations"]) == 7


# ---------------------------------------------------------------------------
# usage errors and the element grammar in argv


@pytest.mark.parametrize(
    "args",
    [
        ("green", "--family", "t", "--n", "2", "--a", "1,1,1", "--relation", "r"),
        ("green", "--family", "is", "--n", "2", "--a", "1,1", "--relation", "r"),
        ("green", "--family", "t", "--n", "2", "--a", "1,1", "--relation", "j",
         "--method", "closed"),
        ("count", "--family", "t", "--n", "2", "--rank-reps"),
        ("count", "--family", "t", "--n", "1", "--all-a"),
        ("verify", "--family", "t", "--n", "5", "--all-a"),
        ("verify", "--family", "t", "--n", "3", "--sample", "100"),
        ("verify", "--family", "is", "--n", "2", "--a", "1,2", "--all-a"),
        ("dual", "--n", "5", "--all-a"),
        ("bogus",),
        # brute force refused by its size rule, on every command that needs it:
        # T_6 at full rank is over the budget, and n = 7 past uint16 indices
        ("green", "--family", "t", "--n", "6", "--a", "2,3,4,5,6,1", "--relation", "d",
         "--method", "both"),
        ("count", "--family", "t", "--n", "6", "--a", "2,3,4,5,6,1"),
        ("verify", "--family", "t", "--n", "7", "--sample", "1"),
        ("eggbox", "--family", "t", "--n", "6", "--a", "2,3,4,5,6,1"),
        ("iso", "--n", "7", "--a", "1,2,-,-,-,-,-", "--b", "1,-,-,-,-,-,-"),
        ("dual", "--n", "7", "--a", "1,2,-,-,-,-,-"),
    ],
)
def test_usage_errors_exit_2(cli, args):
    code, _, err = cli(*args)
    assert code == 2
    assert err


@pytest.mark.parametrize(
    "args, message",
    [
        (("verify", "--family", "t", "--n", "5", "--all-a"),
         "--all-a is capped at n <= 4; use --sample"),
        (("count", "--family", "is", "--n", "5", "--all-a"),
         "--all-a is capped at n <= 4; use --sample"),
        # dual has no --sample to point to
        (("dual", "--n", "5", "--all-a"), "--all-a is capped at n <= 4"),
    ],
)
def test_all_a_cap_names_only_options_the_command_has(cli, args, message):
    code, out, err = cli(*args)
    assert (code, out) == (2, "")
    assert err.endswith(f"greenvar: error: {message}\n")


@pytest.mark.parametrize("option, args", [
    ("--n", ("--n", "0", "--all-a")),
    ("--sample", ("--n", "3", "--sample", "0")),
])
def test_positive_options_reject_zero(cli, option, args):
    code, out, err = cli("verify", "--family", "t", *args)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {option}: expected a positive integer, got '0'\n")


@pytest.mark.parametrize("option, value, args", [
    ("--n", "abc", ("--all-a",)),
    ("--sample", "2.5", ("--n", "3")),
])
def test_positive_options_reject_non_integers(cli, option, value, args):
    code, out, err = cli("verify", "--family", "t", *args, option, value)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {option}: expected a positive integer, got {value!r}\n")


def test_dual_help_states_the_all_a_cap(cli):
    # dual shares verify's and count's --a and --all-a, help included.
    helps = {}
    for command in ("dual", "verify"):
        code, out, _ = cli(command, "--help")
        assert code == 0
        helps[command] = [line for line in out.splitlines() if line.lstrip().startswith("--a")]
    assert helps["dual"] == helps["verify"] and len(helps["dual"]) == 2
    assert "every deformation (n <= 4)" in helps["dual"][1]


def test_leading_dash_element_forms(cli):
    for argv in (
        ("green", "--family", "is", "--n", "2", "--a", "-,-", "--relation", "r"),
        ("green", "--family", "is", "--n", "2", "--a=-,-", "--relation", "r"),
    ):
        code, out, _ = cli(*argv)
        assert code == 0
        assert 'a="-,-"' in out


@pytest.mark.parametrize(
    "family,text,message",
    [
        ("t", "1,4,2", "point 2: image 4 outside 1..3"),
        ("t", "1,-,2", "point 2: total maps cannot be undefined"),
        ("is", "1,1,2", "repeated image; partial maps here are injective"),
        ("is", "0,1,2", "point 1: image 0 outside 1..3"),
        ("t", "0,1,1", "point 1: image 0 outside 1..3"),
        ("is", "a,1,2", "point 1: bad image token 'a'"),
        ("is", "", "empty element text"),
        ("is", "+1,-,-", "point 1: bad image token '+1'"),
    ],
)
def test_parse_errors_name_the_fault(cli, family, text, message):
    code, _, err = cli("green", "--family", family, "--n", "3", "--a", text, "--relation", "r")
    assert code == 2
    assert err.endswith(f"greenvar: error: {message}\n")


def test_element_pattern_matches_the_schema():
    # The element grammar is written in the schema and in the argv folding.
    assert cli_module._ELEMENT_RE.pattern == SCHEMA["$defs"]["element"]["pattern"]


# ---------------------------------------------------------------------------
# determinism


def test_outputs_byte_stable(cli):
    for args in (
        ("verify", "--family", "is", "--n", "2", "--all-a", "--format", "json"),
        ("count", "--family", "t", "--n", "3", "--a", "1,1,2", "--format", "csv"),
        ("eggbox", "--family", "t", "--n", "2", "--a", "1,1"),
    ):
        assert cli(*args) == cli(*args)


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "greenvar.cli", "--help"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "green" in result.stdout and "eggbox" in result.stdout


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "is", "--n", "2", "--all-a"),
    ("dual", "--n", "2", "--all-a"),
    ("count", "--family", "t", "--n", "3", "--a", "1,1,2", "--format", "csv"),
    ("eggbox", "--family", "t", "--n", "2", "--a", "1,1", "--format", "json"),
    ("iso", "--n", "3", "--a", "1,2,-", "--b", "-,1,2"),
], ids=" ".join)
def test_python_m_cli_runs_the_commands_module_once(cli, argv):
    # Under -m, cli.py runs as __main__ and commands imports it by name; a
    # second import of greenvar.cli would execute its body again.
    # -X importtime lists every module imported by name, on stderr.
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "greenvar.cli", *argv],
        capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout) == cli(*argv)[:2]
    imported = re.findall(r"^import time:.*\| +(greenvar\S*)$", result.stderr, re.M)
    assert sorted(imported) == ["greenvar", "greenvar.classes", "greenvar.elements"]


def test_python_m_greenvar():
    result = subprocess.run(
        [sys.executable, "-m", "greenvar", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "green" in result.stdout and "eggbox" in result.stdout


# The process that runs main on its own argv freezes the heap its imports
# built; an atexit hook registered before main runs after main returns.
FREEZE_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('freeze count', gc.get_freeze_count(), file=sys.stderr))\n"
    "from greenvar.cli import main\n"
    "sys.exit(main())\n"
)


def test_main_with_argv_freezes_nothing(cli):
    assert cli("green", "--family", "t", "--n", "2", "--a", "1,1", "--relation", "r")[0] == 0
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("green", "--family", "t", "--n", "5", "--a", "4,3,4,5,5", "--relation", "j",
     "--format", "json"),
], ids=" ".join)
def test_main_on_sys_argv_freezes_and_keeps_its_output(cli, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # the help's width, here and in the child
    result = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE, *argv], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout) == cli(*argv)[:2]
    frozen = re.fullmatch(r"freeze count (\d+)\n", result.stderr)
    assert frozen and int(frozen[1]) > 0


# Counts the collections that start between the probe's first statement and
# its atexit hook: the command's whole run, start-up included.
COLLECTIONS_PROBE = (
    "import atexit, gc, sys\n"
    "started = []\n"
    "gc.callbacks.append(lambda phase, info: phase == 'start' and started.append(info))\n"
    "atexit.register(lambda: print('collections', len(started), file=sys.stderr))\n"
    "from greenvar.cli import main\n"
    "sys.exit(main())\n"
)


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("green", "--family", "t", "--n", "3", "--a", "1,1,2", "--relation", "d",
     "--method", "closed"),
], ids=" ".join)
def test_command_process_runs_few_collections(cli, monkeypatch, argv):
    # Importing numpy alone ran about 30 young collections in every command
    # before greenvar.cli paused the collector around its imports.  Every
    # module is compiled from source, as the benchmark runs them.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    result = subprocess.run(
        [sys.executable, "-c", COLLECTIONS_PROBE, *argv], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout) == cli(*argv)[:2]
    counted = re.fullmatch(r"collections (\d+)\n", result.stderr)
    assert counted and int(counted[1]) <= 5


# ---------------------------------------------------------------------------
# python -O strips assert statements, so the package must not rely on them


def test_green_output_unchanged_under_optimize():
    # green, and the count and verify audits with their census identity check
    commands = {
        ("green", "--family", "is", "--n", "3", "--a", "2,3,-",
         "--relation", "d", "--method", "both"): "brute:",
        ("count", "--family", "is", "--n", "3", "--a", "1,2,-"): "all agree",
        ("verify", "--family", "t", "--n", "3", "--all-a"): "all agree",
    }
    for argv, marker in commands.items():
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "greenvar.cli", *argv],
                capture_output=True, text=True,
            )
            for flags in ((), ("-O",))
        ]
        assert [r.returncode for r in runs] == [0, 0], argv
        assert runs[1].stdout == runs[0].stdout, argv
        assert marker in runs[0].stdout, argv


def test_package_has_no_assert_statements():
    package = importlib.resources.files("greenvar")
    for path in package.iterdir():
        if path.name.endswith(".py"):
            tree = ast.parse(path.read_text())
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert not lines, f"{path.name} asserts at lines {lines}"


def test_only_engine_reads_the_product_table():
    # Other modules multiply through VariantSemigroup.products, so the
    # factored table's layout stays known to engine.py alone.
    package = importlib.resources.files("greenvar")
    for path in package.iterdir():
        if path.name.endswith(".py") and path.name != "engine.py":
            tree = ast.parse(path.read_text())
            lines = [
                node.lineno
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "table"
            ]
            assert not lines, f"{path.name} calls .table() at lines {lines}"


def test_only_elements_and_cli_list_the_universe():
    # Element objects are built at the edges: elements.py lists the
    # universe, and cli.py sweeps it for --all-a.  Every other module reads
    # labels and index arrays and builds elements through elements_at.  An
    # import, such as the package's re-export, is not a use.
    package = importlib.resources.files("greenvar")
    for path in package.iterdir():
        if path.name.endswith(".py") and path.name not in ("elements.py", "cli.py"):
            tree = ast.parse(path.read_text())
            lines = [
                node.lineno
                for node in ast.walk(tree)
                if (isinstance(node, ast.Name) and node.id == "enumerate_family")
                or (isinstance(node, ast.Attribute)
                    and node.attr in ("enumerate_family", "universe"))
            ]
            assert not lines, f"{path.name} lists the universe at lines {lines}"


# ---------------------------------------------------------------------------
# the semigroup cache


def test_variant_semigroup_keeps_two(cli, monkeypatch):
    # A sweep reads each semigroup only while it checks that deformation,
    # so the cache keeps no more than the two that iso and dual read at
    # once; each of those two is built once.
    built = []
    genuine = engine.VariantSemigroup.__init__
    monkeypatch.setattr(
        engine.VariantSemigroup, "__init__",
        lambda self, a: built.append(str(a)) or genuine(self, a),
    )
    for argv, count in (
        (("verify", "--family", "t", "--n", "3", "--sample", "4", "--seed", "3"), 4),
        (("dual", "--n", "3", "--a", "2,3,-"), 2),
        (("iso", "--n", "3", "--a", "1,2,-", "--b", "-,1,2"), 2),
    ):
        variant_semigroup.cache_clear()
        brute_classification.cache_clear()
        built.clear()
        assert cli(*argv)[0] == 0, argv
        assert len(built) == len(set(built)) == count, argv
        assert variant_semigroup.cache_info().currsize <= 2, argv
