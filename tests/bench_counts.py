"""Compare the counts of a traced bench run with the recorded ones.

    python3 bench/run.py --workload macro_mix --seed 1 --seconds 1 --trace 1 \\
        | tail -n 1 | python3 tests/bench_counts.py macro_mix

reads the run's JSON result line from standard input and exits with status
1 if the run failed a check or if any metric recorded in
`bench_counts_seed1.json` for the workload differs from the run's value.
The recorded metrics are the traced run's non-time ones: call counts,
ratios of counts and scopes allocated, which repeat exactly for a given
seed.  A change that bypasses a traced function, or adds a call to one,
moves a count and fails here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

RECORDED = Path(__file__).resolve().parent / "bench_counts_seed1.json"


def differences(want: Dict[str, object], result: dict) -> List[str]:
    """One line per recorded metric whose value in `result` differs."""
    got = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return [
        f"{name}: recorded {value}, got {got.get(name, 'nothing')}"
        for name, value in want.items()
        if got.get(name) != value
    ]


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: bench_counts.py WORKLOAD < result.json", file=sys.stderr)
        return 2
    workload = argv[0]
    want = json.loads(RECORDED.read_text())["workloads"][workload]
    result = json.loads(sys.stdin.read())
    problems = differences(want, result)
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.insert(0, "the run failed its output checks")
    for line in problems:
        print(f"{workload}: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
