"""Tests of the benchmark itself:  python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import DEFAULT_SEED, Command  # noqa: E402

import greenvar.cli  # noqa: E402,F401  (loads every greenvar module)

SMALL = [
    Command(("green", "--family", "t", "--n", "3", "--a", "1,1,2", "--relation", "d",
             "--method", "both")),
    Command(("green", "--family", "is", "--n", "3", "--a", "1,2,-", "--relation", "j",
             "--format", "json")),
    Command(("eggbox", "--family", "t", "--n", "3", "--a", "2,2,1")),
    Command(("count", "--family", "t", "--n", "3", "--a", "1,1,2")),
    Command(("verify", "--family", "is", "--n", "2", "--all-a")),
    Command(("dual", "--n", "3", "--a", "1,2,-")),
    Command(("iso", "--n", "3", "--a", "1,2,-", "--b", "-,1,2", "--format", "json")),
]


def _sites():
    """Every (module or class, attribute, object) the tracer may patch."""
    out = []
    for module_name, attr, _, _ in spans.TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            out.append((owner, attr, owner.__dict__[attr]))
            continue
        for key, module in sys.modules.items():
            if key.split(".")[0] == "greenvar" and hasattr(module, attr):
                out.append((module, attr, getattr(module, attr)))
    return out


def test_wrappers_are_restored_after_a_traced_pass():
    before = _sites()
    tracer = spans.Tracer()
    bench.traced_pass(SMALL, bench.Checker(DEFAULT_SEED, bench.record(SMALL)), tracer)
    assert tracer.spans, "the traced pass recorded no spans"
    for owner, attr, original in before:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original, f"{owner}.{attr} was left wrapped"


def test_wrappers_are_restored_when_a_command_raises():
    before = _sites()
    main = greenvar.cli.main
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert greenvar.cli.main is not main
        raised = False
        try:
            greenvar.cli.enumerate_family("t", 99)
        except ValueError:
            raised = True
        assert raised
    finally:
        tracer.restore()
    for owner, attr, original in before:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, 0, {})


def test_self_time_is_duration_minus_covered_child_intervals():
    tree = [
        _span("p", 0.0, 10.0, None),
        _span("c1", 1.0, 3.0, 0),
        _span("c2", 2.0, 4.0, 0),   # overlaps c1: [1, 4] covered once
        _span("g", 2.5, 3.5, 1),    # counts for c1 up to c1's end, not for p
        _span("c3", 8.0, 12.0, 0),  # clipped to the parent's end
    ]
    own = spans.self_times(tree)
    assert own[0] == 10.0 - 3.0 - 2.0
    assert own[1] == 2.0 - 0.5
    assert own[3] == 1.0


def test_computed_counts_repeat_exactly():
    expected = bench.record(SMALL)
    counts = []
    for _ in range(2):
        checker = bench.Checker(DEFAULT_SEED, expected)
        _, metrics = bench.traced_pass(SMALL, checker, spans.Tracer())
        assert not checker.failures
        counts.append({k: metrics[k] for k in
                       ("engine.products", "engine.table_bytes", "structure.object_products",
                        "engine.table_calls", "elements.enumerate_calls")})
    assert counts[0] == counts[1]
    assert counts[0]["engine.products"] > 0 and counts[0]["structure.object_products"] > 0


def test_shape_digest_is_seed_invariant_and_sees_real_changes():
    def out(*argv):
        return bench.run_child(argv, bench.child_env()).stdout

    rng = random.Random(3)
    a, b = workloads.conjugate_t("1,1,2", rng), workloads.conjugate_t("1,1,2", rng)
    for relation in "rd":
        left = out("green", "--family", "t", "--n", "3", "--a", a, "--relation", relation)
        right = out("green", "--family", "t", "--n", "3", "--a", b, "--relation", relation)
        assert workloads.shape_digest(left) == workloads.shape_digest(right)
    egg = [out("eggbox", "--family", "t", "--n", "3", "--a", x) for x in (a, b, "1,2,3")]
    assert workloads.shape_digest(egg[0]) == workloads.shape_digest(egg[1])
    assert workloads.shape_digest(egg[0]) != workloads.shape_digest(egg[2])


def test_checker_counts_wrong_outputs():
    cmd = SMALL[1]
    good = bench.run_child(cmd.argv, bench.child_env())
    wrong = [bench.Result(0, 0, 0, 0, good.stdout.replace(b'"j"', b'"x"')),
             bench.Result(0, 0, 0, 1, good.stdout)]
    for first in wrong:
        checker = bench.Checker(DEFAULT_SEED, bench.record([cmd]))
        checker.check(0, cmd, first)
        assert len(checker.failures) == 1
    checker = bench.Checker(DEFAULT_SEED, bench.record([cmd]))
    for result in [good, *wrong, good]:  # repeats must reproduce the first output
        checker.check(0, cmd, result)
    assert checker.attempted == 4 and len(checker.failures) == 2


def test_each_command_counts_its_median_scaled_run():
    def sample(wall, cpu, rss, ref_wall, ref_cpu):
        # the reference runs around the child average to ref_wall and ref_cpu
        return bench.Sample(bench.Result(wall, cpu, rss, 0, b""),
                            bench.Result(ref_wall / 2, ref_cpu * 1.5, 0, 0, b""),
                            bench.Result(ref_wall * 1.5, ref_cpu / 2, 0, 0, b""))

    ref = bench.REF_SECONDS
    runs = [
        # the second run is twice as slow, but so is its reference
        [sample(1.0, 2.0, 50, ref, ref), sample(2.0, 4.0, 60, 2 * ref, 2 * ref)],
        [sample(4.0, 1.0, 9, ref, ref), sample(2.0, 3.0, 8, ref, ref),
         sample(2.5, 0.5, 7, ref, ref / 2)],
    ]
    setups = [sample(0.3, 0, 0, ref, ref), sample(0.2, 0, 0, 2 * ref, ref),
              sample(0.2, 0, 0, ref, ref)]
    assert bench.summarise(runs, setups) == pytest.approx({
        "wall_s": 1.0 + 2.5, "cpu_s": 2.0 + 1.0, "peak_rss_mb": 50, "setup_s": 0.2})


def test_smoke_run_at_small_n_finishes_in_seconds():
    start = time.perf_counter()
    checker = bench.Checker(DEFAULT_SEED, bench.record(SMALL))
    values, samples = bench.measure(SMALL, checker, seconds=0)
    assert not checker.failures
    assert set(values) == set(samples) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert all(v > 0 for v in values.values())
    assert time.perf_counter() - start < 60


def test_benchmark_json_lists_exactly_the_printed_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)
    metrics = declared["end_to_end"] + declared["per_layer"]
    assert {m["name"]: m["unit"] for m in metrics} == bench.UNITS


def test_every_workload_has_recorded_digests():
    recorded = json.loads(bench.EXPECTED.read_text())
    for name in workloads.WORKLOADS:
        cmds = workloads.commands(name, DEFAULT_SEED)
        assert [e["command"] for e in recorded[name]] == [str(c) for c in cmds]


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_n6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""
