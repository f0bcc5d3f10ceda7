"""greenvar benchmark: run one workload's CLI commands and report metrics.

    python3 perfbench/run.py --workload brute_t5 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` each command runs in a fresh subprocess, one at
a time (a closed loop with one client).  A round runs a few no-work
invocations, which time set-up, and then every command once; rounds repeat,
command by command, while the next command still fits in ``--seconds``.
Runs of ``reference.py``, a fixed job that does not touch greenvar, go
between the timed children, and each child's time is taken relative to the
mean of the reference runs just before and after it: a slow phase of the
shared host slows them all, and the ratio keeps.  Times are
reported in reference-seconds (the ratio times ``REF_SECONDS``, the
reference's time on a quiet development machine), and each end-to-end
metric takes, per command, the median of its runs.  With
``--trace 1`` an untraced round is followed by a pass of the same commands
in-process through ``greenvar.cli.main`` with span-recording wrappers,
which gives the per-layer metrics.  Every command's exit code is checked, every JSON output
is validated against the package schema, the output shape is compared with
the recorded one at every seed, and the exact bytes at the default seed.
``--record`` rewrites the recorded digests.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

import spans
import workloads
from workloads import DEFAULT_SEED, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
BENCHMARK = ROOT / "BENCHMARK.json"
OUT = Path(__file__).resolve().parent / "out"

# What the installed console script runs.
ENTRY = "import sys; from greenvar.cli import main; sys.exit(main())"
SETUP_ARGV = ("--help",)  # a no-work invocation: interpreter, imports, argparse
SETUP_PER_ROUND = 2
REF_SECONDS = 0.35  # reference.py's wall time on the quiet development machine
CACHED = (  # lru_caches cleared before each in-process command
    ("greenvar.elements", "enumerate_family"),
    ("greenvar.engine", "variant_semigroup"),
    ("greenvar.engine", "brute_classification"),
    ("greenvar.closedform_t", "stirling2"),
)

UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
UNITS.update({name: "s" for name in spans.SELF_TIME_METRICS.values()})
UNITS.update({
    "elements.enumerate_calls": "count",
    "engine.table_calls": "count",
    "engine.products": "count",
    "engine.table_bytes": "bytes_computed",
    "structure.object_products": "count",
    "engine.brute_cache_hit_ratio": "ratio",
    "engine.brute_cache_lookups": "count",
    "engine.semigroup_cache_hit_ratio": "ratio",
    "engine.semigroup_cache_lookups": "count",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.span_overhead_s": "s",
})


@dataclasses.dataclass
class Result:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes


@dataclasses.dataclass
class Sample:
    """A timed child and the reference runs just before and after it."""

    result: Result
    before: Result
    after: Result

    @property
    def wall(self) -> float:
        return self.result.wall / (self.before.wall + self.after.wall) * 2 * REF_SECONDS

    @property
    def cpu(self) -> float:
        return self.result.cpu / (self.before.cpu + self.after.cpu) * 2 * REF_SECONDS

    @property
    def elapsed(self) -> float:
        return self.result.wall + self.after.wall


class Checker:
    """Output checks; every failed check counts the command as failed.

    ``expected`` holds, per command index, the stdout sha256 at the default
    seed and the shape digest, which every seed must reproduce.  A command's
    first output is checked in full; every later run of the command must
    reproduce that output byte for byte.  (Validating the 6 MB JSON
    export against the schema alone takes several seconds.)
    """

    def __init__(self, seed: int, expected: list[dict]):
        import jsonschema

        schema = json.loads((SRC / "greenvar" / "output_schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.seed, self.expected = seed, expected
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict[int, tuple[int, str]] = {}
        self._reference: bytes | None = None

    def check(self, index: int, cmd: Command, result: Result) -> None:
        self.attempted += 1
        seen = (result.code, hashlib.sha256(result.stdout).hexdigest())
        if index in self._first:
            problems = [] if seen == self._first[index] else [
                "output or exit code differs from the command's first run"]
        else:
            self._first[index] = seen
            problems = self._problems(self.expected[index], cmd, result, seen[1])
        if problems:
            self.failures.append(f"{cmd}: {'; '.join(problems)}")

    def _problems(self, want: dict, cmd: Command, result: Result, digest: str) -> list[str]:
        problems = []
        if result.code != 0:
            problems.append(f"exit {result.code}, expected 0")
        if cmd.is_json:
            try:
                payload = json.loads(result.stdout)
            except ValueError as exc:
                problems.append(f"stdout is not JSON: {exc}")
            else:
                error = next(iter(self.validator.iter_errors(payload)), None)
                if error is not None:
                    problems.append(f"schema: {error.message[:200]}")
        if self.seed == DEFAULT_SEED and digest != want["sha256"]:
            problems.append("stdout differs from the recorded bytes")
        if workloads.shape_digest(result.stdout) != want["shape"]:
            problems.append("output shape differs from the recorded one")
        return problems

    def check_setup(self, result: Result) -> None:
        self.attempted += 1
        if result.code != 0:
            self.failures.append(f"greenvar {' '.join(SETUP_ARGV)}: exit {result.code}")

    def check_reference(self, result: Result) -> None:
        """The reference job is not a greenvar command: it is not counted as
        attempted, but a wrong run of it fails the run."""
        if self._reference is None:
            self._reference = result.stdout
        if result.code != 0 or result.stdout != self._reference:
            self.failures.append(f"reference.py: exit {result.code} or a changed checksum")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: tuple[str, ...], env: dict[str, str]) -> Result:
    """One fresh greenvar process; its own rusage comes from wait4."""
    return run_process([sys.executable, "-c", ENTRY, *argv], env)


def run_reference(env: dict[str, str]) -> Result:
    return run_process([sys.executable, str(REFERENCE)], env)


def run_process(args: list[str], env: dict[str, str]) -> Result:
    start = time.perf_counter()
    proc = subprocess.Popen(
        args,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT,
    )
    with proc.stdout:
        stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  proc.returncode, stdout)


class Bracketed:
    """Greenvar children, each followed by a reference run; the reference
    run after one child is also the one before the next."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self.last = run_reference(env)

    def run(self, argv: tuple[str, ...]) -> Sample:
        result = run_child(argv, self.env)
        after = run_reference(self.env)
        sample, self.last = Sample(result, self.last, after), after
        return sample


def check_runs(runs: list[list[Sample]], setups: list[Sample], cmds: list[Command],
               checker: Checker) -> None:
    for sample in setups:
        checker.check_reference(sample.after)
        checker.check_setup(sample.result)
    for i, (cmd, samples) in enumerate(zip(cmds, runs)):
        for sample in samples:
            checker.check_reference(sample.after)
            checker.check(i, cmd, sample.result)


def summarise(runs: list[list[Sample]], setups: list[Sample]) -> dict[str, float]:
    """Per command the median of its scaled runs: wall and CPU summed over
    the commands; peak RSS the largest command's (per command its smallest
    run); set-up the median scaled no-work invocation."""
    return {
        "wall_s": sum(statistics.median(s.wall for s in samples) for samples in runs),
        "cpu_s": sum(statistics.median(s.cpu for s in samples) for samples in runs),
        "peak_rss_mb": max(min(s.result.rss_mb for s in samples) for samples in runs),
        "setup_s": statistics.median(s.wall for s in setups),
    }


def traced_pass(cmds: list[Command], checker: Checker, tracer: spans.Tracer) -> tuple[float, dict]:
    """The same commands in-process, each from cleared caches, under spans."""
    caches = [getattr(importlib.import_module(m), a) for m, a in CACHED]
    engine = importlib.import_module("greenvar.engine")
    hits = {"brute": [0, 0], "semigroup": [0, 0]}
    fronts = {"brute": engine.brute_classification, "semigroup": engine.variant_semigroup}
    wall = 0.0
    tracer.install()
    try:
        cli = importlib.import_module("greenvar.cli")
        for i, cmd in enumerate(cmds):
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            tracer.command = i
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(cmd.argv))
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code if isinstance(exc.code, int) else 2
            wall += time.perf_counter() - start
            for key, front in fronts.items():
                info = front.cache_info()
                hits[key][0] += info.hits
                hits[key][1] += info.hits + info.misses
            checker.check(i, cmd, Result(0.0, 0.0, 0.0, code, out.getvalue().encode()))
    finally:
        tracer.restore()
    for cache in caches:
        cache.cache_clear()
    metrics = spans.layer_metrics(tracer.spans)
    for key, (hit, lookups) in hits.items():
        metrics[f"engine.{key}_cache_hit_ratio"] = hit / lookups if lookups else 0.0
        metrics[f"engine.{key}_cache_lookups"] = lookups
    return wall, metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(seconds: float, step: Callable[[], Any]) -> list[Any]:
    """Run step at least once, and again while another run still fits."""
    out, start = [], time.perf_counter()
    while True:
        out.append(step())
        elapsed = time.perf_counter() - start
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def measure(cmds: list[Command], checker: Checker,
            seconds: float) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Rounds of bracketed subprocess runs for the given seconds: the run's
    metrics, and the values of each complete round."""
    env = child_env()
    run_child(SETUP_ARGV, env)  # fill the bytecode and file caches
    children = Bracketed(env)
    checker.check_reference(children.last)
    runs: list[list[Sample]] = [[] for _ in cmds]
    setups: list[Sample] = []
    start = time.perf_counter()
    for i in itertools.cycle(range(len(cmds))):
        if i == 0:
            setups += [children.run(SETUP_ARGV) for _ in range(SETUP_PER_ROUND)]
        runs[i].append(children.run(cmds[i].argv))
        upcoming = runs[(i + 1) % len(cmds)]
        if upcoming and time.perf_counter() - start + upcoming[-1].elapsed > seconds:
            break
    check_runs(runs, setups, cmds, checker)
    rounds = [summarise([[samples[k]] for samples in runs],
                        setups[k * SETUP_PER_ROUND:(k + 1) * SETUP_PER_ROUND])
              for k in range(min(map(len, runs)))]
    refs = [s.after.wall for s in itertools.chain(setups, *runs)]
    print(f"  unscaled: reference.py median {statistics.median(refs):.4f} s"
          f" (REF_SECONDS {REF_SECONDS}), pass of command medians"
          f" {sum(statistics.median(s.result.wall for s in r) for r in runs):.4f} s")
    return summarise(runs, setups), {key: [r[key] for r in rounds] for key in rounds[0]}


def measure_traced(cmds: list[Command], checker: Checker, seconds: float
                   ) -> tuple[dict[str, float], dict[str, list[float]], list[list[spans.Span]]]:
    """Pairs of an untraced subprocess round and a traced in-process pass;
    each metric is the median over pairs."""
    env = child_env()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("greenvar.cli")
    run_child(SETUP_ARGV, env)  # fill the bytecode cache

    def pair() -> tuple[dict, list[spans.Span]]:
        # Unscaled seconds here: the traced pass is timed as it runs.
        setups = [run_child(SETUP_ARGV, env) for _ in range(SETUP_PER_ROUND)]
        results = [run_child(cmd.argv, env) for cmd in cmds]
        for result in setups:
            checker.check_setup(result)
        for i, (cmd, result) in enumerate(zip(cmds, results)):
            checker.check(i, cmd, result)
        plain = sum(r.wall for r in results)
        tracer = spans.Tracer()
        wall, metrics = traced_pass(cmds, checker, tracer)
        metrics["trace.pass_s"] = wall
        metrics["trace.overhead_s"] = wall - plain
        # The in-process pass skips one interpreter start-up per command.
        setup = min(r.wall for r in setups)
        metrics["trace.span_overhead_s"] = wall - (plain - len(cmds) * setup)
        return metrics, tracer.spans

    runs = repeat(seconds, pair)
    samples = {key: [m[key] for m, _ in runs] for key in runs[0][0]}
    medians = {key: statistics.median(values) for key, values in samples.items()}
    return medians, samples, [run_spans for _, run_spans in runs]


def record(cmds: list[Command]) -> list[dict]:
    """Digests of every command's stdout, to be checked on later runs."""
    env = child_env()
    entries = []
    for cmd in cmds:
        result = run_child(cmd.argv, env)
        if result.code != 0:
            raise SystemExit(f"{cmd}: exit {result.code}, expected 0")
        entries.append({
            "command": str(cmd),
            "sha256": hashlib.sha256(result.stdout).hexdigest(),
            "shape": workloads.shape_digest(result.stdout),
        })
    return entries


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[Checker, dict]:
    """Measure one workload, print its metrics, and return them."""
    cmds = workloads.commands(name, seed)
    checker = Checker(seed, json.loads(EXPECTED.read_text())[name])
    if trace:
        values, samples, traces = measure_traced(cmds, checker, seconds)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{name}-seed{seed}.json", "w") as fh:
            json.dump([[dataclasses.asdict(s) for s in t] for t in traces], fh)
    else:
        values, samples = measure(cmds, checker, seconds)

    failed = len(checker.failures)
    for line in checker.failures:
        print(f"FAILED {line}")
    print(f"workload {name} seed {seed} trace {trace}")
    metrics = {}
    for metric, value in values.items():
        q1, median, q3 = quartiles(samples[metric])
        print(f"  {metric:34} {value:16.6f} {UNITS[metric]:14} samples:"
              f" median {median:.6f} q1 {q1:.6f} q3 {q3:.6f} n {len(samples[metric])}")
        metrics[metric] = {"value": value, "unit": UNITS[metric]}
    print(f"  {'failed_ratio':34} {failed / checker.attempted:16.6f} {'ratio':14}"
          f" {failed} of {checker.attempted} commands")
    return checker, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(BENCHMARK.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the current program")
    args = parser.parse_args(argv)
    if not (SRC / "greenvar" / "cli.py").is_file():
        print(f"error: no greenvar sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        EXPECTED.write_text(json.dumps(
            {name: record(workloads.commands(name, DEFAULT_SEED))
             for name in workloads.WORKLOADS}, indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        checker, measured = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += checker.attempted
        failed += len(checker.failures)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in measured.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
