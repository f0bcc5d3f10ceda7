"""Compare two checkouts on one workload with alternating paired runs.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR --workload brute_t5 --pairs 10

Each directory is a source checkout holding the same perfbench/ (copy it in,
so both sides run identical benchmark code).  Pair i uses seed
``--first-seed + i`` on both sides; odd pairs run the change first.  Per
end-to-end metric it prints each side's median and quartiles, the share of
pairs the change won (ties count for neither side), and the parent's own
spread (q3 - q1); a gain needs the change to win at least nine tenths of the
pairs and the medians to differ by more than that spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def one_run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: seed {seed} failed its output checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int,
                        default=json.loads(BENCHMARK.read_text())["run_seconds"])
    args = parser.parse_args()
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(one_run(getattr(args, side), args.workload,
                                      args.first_seed + i, args.seconds))
    print(f"workload {args.workload}, {args.pairs} pairs, lower is better")
    for name in runs["parent"][0]:
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
        wins = sum(x < y for x, y in zip(c, p))
        print(f"  {name:12} parent {pq[1]:.4f} [{pq[0]:.4f}, {pq[2]:.4f}]"
              f"  change {cq[1]:.4f} [{cq[0]:.4f}, {cq[2]:.4f}]"
              f"  change won {wins}/{args.pairs}  parent spread {pq[2] - pq[0]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
