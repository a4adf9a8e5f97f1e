"""hygex benchmark: runs one workload, checks every output, prints metrics.

    python3 bench/run.py --workload def_chain --seed 1 --seconds 30 --trace 0

Run from anywhere; paths are taken relative to this file's repository.
With `--trace 0` the run is untraced and reports the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it wraps the hygex modules from outside
(see spans.py) and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; a readable table and any output mismatch go to
standard error.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from calibrate import Calibration
from spans import END, NAME, PARENT, RUN, START, Tracer, final_scopes, layer_metrics
from workloads import GENERATORS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # generated inputs, spans and count records

SETUP_PROBES = 15
# The host's speed drifts between runs (see calibrate.py), so calibration
# units run after each pass and each set-up probe for about this share of
# its time, and every reported time is scaled to the reference speed by
# the units of its own phase.
CALIB_SHARE = 0.1
# Within a run the speed also jumps, for seconds at a time, between a fast
# regime and one about 1.4x slower.  A percentile over a whole run mixes
# the two and jumps with the share of time spent in each, so latency
# percentiles are taken per block of consecutive passes at least
# BLOCK_SECONDS long and averaged over the blocks.
BLOCK_SECONDS = 3.0
# The seed to quote numbers with, and one kept back for re-checking a
# claimed gain on inputs the change was not tuned on (see README.md).
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
TIME_UNITS = ("s", "ms")

# Time `import hygex` plus the first Runner in a fresh interpreter.
SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import hygex
hygex.Runner(hygex.RunConfig(**json.loads(sys.argv[2])))
print(time.perf_counter() - t0)
"""


def abort(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
        "for re-checking claimed gains)",
    )
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


class Check:
    """Runs attempted and runs whose output or exit status differ from the
    reference, with the first difference of each reported on stderr."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(self, case, runner, code: int) -> None:
        self.attempted += 1
        output = runner.output
        if output == case.expected_output and code == case.expected_code:
            return
        self.failed += 1
        got, want = output.splitlines(), case.expected_output.splitlines()
        line = next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
        )
        print(
            f"MISMATCH workload={self.workload} seed={self.seed} file={case.path.name} "
            f"exit={code} (want {case.expected_code}) line {line + 1}:\n"
            f"  got:  {got[line] if line < len(got) else '<end of output>'}\n"
            f"  want: {want[line] if line < len(want) else '<end of output>'}",
            file=sys.stderr,
        )

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"CHECK FAILED workload={self.workload} seed={self.seed}: {message}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def run_pass(hygex, order, check: Check, latencies_ms=None, tracer=None) -> Tuple[float, list]:
    """Run every case once, each in a fresh Runner.  Returns the wall time
    and, for a traced pass, the runners."""
    clock = time.perf_counter
    runners = []
    start = clock()
    for i, case in enumerate(order):
        if tracer is not None:
            tracer.run = i
        t0 = clock()
        runner = hygex.Runner(hygex.RunConfig(**case.config))
        code = runner.run_files([str(case.path)])
        t1 = clock()
        if latencies_ms is not None:
            latencies_ms.append(1000.0 * (t1 - t0))
        if tracer is not None:
            runners.append(runner)
        check.run(case, runner, code)
    return clock() - start, runners


def tail_percentile(values: List[float], q: float = 95.0, beyond: int = 10) -> Tuple[float, float]:
    """The q-th percentile (nearest rank), lowered until at least `beyond`
    samples lie above it, and never below the median.  Returns the value
    and the percentile actually used."""
    s = sorted(values)
    n = len(s)
    k = min(math.ceil(n * q / 100.0) - 1, n - 1 - beyond)
    if k <= (n - 1) // 2:
        return statistics.median(s), 50.0
    return s[k], 100.0 * (k + 1) / n


def blocks(passes: List[Tuple[float, List[float]]]) -> List[List[float]]:
    """Run latencies of consecutive passes grouped into blocks of at least
    BLOCK_SECONDS of pass time; a short last block joins the one before."""
    out: List[List[float]] = []
    span = BLOCK_SECONDS
    for wall, runs in passes:
        if span >= BLOCK_SECONDS:
            out.append([])
            span = 0.0
        out[-1].extend(runs)
        span += wall
    if len(out) > 1 and span < BLOCK_SECONDS:
        out[-2].extend(out.pop())
    return out


def setup_seconds(config: dict) -> Tuple[float, float]:
    """Median of SETUP_PROBES fresh-process set-ups, after one discarded
    probe that also leaves the bytecode cache warm: at the reference speed
    and as measured."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(config)]
    samples = []
    calibration = Calibration()
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            abort(f"set-up probe failed:\n{done.stderr}")
        if i:
            calibration.follow(time.perf_counter() - t0, CALIB_SHARE)
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    raw = statistics.median(samples)
    return calibration.scale(raw), raw


def orders(workload, seed: int):
    """The case order of each pass: seeded and changing per pass where the
    workload asks for it."""
    rng = random.Random(seed)
    while True:
        order = list(workload.cases)
        if workload.shuffle:
            rng.shuffle(order)
        yield order


def measure(hygex, workload, seed: int, seconds: float, check: Check) -> dict:
    """Untraced: set-up probes, one warm-up pass, then passes until
    `seconds` have elapsed, each followed by calibration units."""
    setup_s, setup_raw = setup_seconds(workload.cases[0].config)
    passes = orders(workload, seed)
    run_pass(hygex, next(passes), check)
    gc.collect()
    timed: List[Tuple[float, List[float]]] = []  # (pass wall time, run latencies)
    calibration = Calibration()
    start = time.perf_counter()
    while True:
        latencies: List[float] = []
        wall = run_pass(hygex, next(passes), check, latencies)[0]
        timed.append((wall, latencies))
        calibration.follow(wall, CALIB_SHARE)
        if time.perf_counter() - start >= seconds:
            break
    busy = sum(wall for wall, _ in timed)
    groups = blocks(timed)
    tails = [tail_percentile(runs) for runs in groups]
    p50 = statistics.fmean(statistics.median(runs) for runs in groups)
    p95 = statistics.fmean(v for v, _ in tails)
    cmds = len(timed) * workload.commands
    info = (
        f"{len(timed)} passes of {workload.commands} commands in {busy:.2f} s; "
        f"{sum(map(len, groups))} runs in {len(groups)} blocks of "
        f"{min(map(len, groups))}-{max(map(len, groups))}; run_ms_p95 is the mean "
        f"p{min(q for _, q in tails):.1f}-p{max(q for _, q in tails):.1f} of run latency; "
        f"failed_ratio {check.failed / check.attempted:.4f} ({check.failed}/{check.attempted} runs)\n"
        f"# speed {calibration.scale(1.0):.3f} reference s per s ({calibration.units} units); "
        f"as measured: setup_s {setup_raw:.4f}, cmds_per_s {cmds / busy:.1f}, "
        f"run_ms_p50 {p50:.2f}, run_ms_p95 {p95:.2f}"
    )
    return {
        "metrics": {
            "setup_s": setup_s,
            "cmds_per_s": cmds / calibration.scale(busy),
            "run_ms_p50": calibration.scale(p50),
            "run_ms_p95": calibration.scale(p95),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "info": info,
    }


def source_digest() -> str:
    """Identifies the program and benchmark code the counts belong to."""
    h = hashlib.sha256()
    files = sorted(
        list((SRC / "hygex").rglob("*.py"))
        + list((ROOT / "bench").glob("*.py"))
        + list((ROOT / "corpus").glob("*.hyg"))
        + [ROOT / "tests" / "corpus_config.py"]
    )
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def write_spans(path: Path, spans) -> None:
    t0 = spans[0][START] if spans else 0.0
    with path.open("w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(
                json.dumps([s[NAME], s[PARENT], round(1e6 * (s[START] - t0), 1),
                            round(1e6 * (s[END] - t0), 1), s[RUN]]) + "\n"
            )


def measure_traced(hygex, workload, seed: int, seconds: float, check: Check, units: dict) -> dict:
    """Traced: alternate untraced and traced passes until `seconds` have
    elapsed (at least two traced passes).  Counts come from the first
    traced pass and must repeat exactly in every other traced pass and in
    any earlier traced run of the same seed and code; times are medians
    over traced passes."""
    passes = orders(workload, seed)
    run_pass(hygex, next(passes), check)
    plain_s: List[float] = []
    traced_s: List[float] = []
    per_pass: List[dict] = []
    first_spans = None
    counts = None
    start = time.perf_counter()
    while len(traced_s) < 2 or time.perf_counter() - start < seconds:
        order = next(passes)
        plain_s.append(run_pass(hygex, order, check)[0])
        tracer = Tracer()
        with tracer.installed():
            wall, runners = run_pass(hygex, order, check, tracer=tracer)
        traced_s.append(wall)
        counters = [r.state.scopes.counter for r in runners]
        diagnostics = sum(len(r.diagnostics) for r in runners)
        metrics = layer_metrics(tracer, counters, diagnostics)
        fingerprint = {k: v for k, v in metrics.items() if units[k] not in TIME_UNITS}
        fingerprint["final_scopes"] = sorted(final_scopes(tracer, counters))
        if counts is None:
            counts, first_spans = fingerprint, tracer.spans
        elif fingerprint != counts:
            check.problem(f"counts differ between traced passes: {_diff(counts, fingerprint)}")
        per_pass.append(metrics)

    if counts["expander.commands"] != workload.commands:
        check.problem(
            f"expander.commands {counts['expander.commands']} != {workload.commands} "
            "commands in the input"
        )
    record = OUT / f"counts-{workload.name}-{seed}-{source_digest()}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        if earlier != json.loads(json.dumps(counts)):
            check.problem(f"counts differ from an earlier traced run: {_diff(earlier, counts)}")
    else:
        record.write_text(json.dumps(counts, sort_keys=True))
    write_spans(OUT / f"spans-{workload.name}-{seed}.jsonl", first_spans)

    out = {}
    for name in per_pass[0]:
        if units[name] in TIME_UNITS:
            out[name] = statistics.median(p[name] for p in per_pass)
        else:
            out[name] = per_pass[0][name]
    out["bench.trace_overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    info = (
        f"{len(traced_s)} traced and {len(plain_s)} untraced passes; "
        f"{len(first_spans)} spans per traced pass; counts checked against {record.name}"
    )
    return {"metrics": out, "info": info}


def _diff(a: dict, b: dict) -> str:
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return ", ".join(f"{k}: {a.get(k)} vs {b.get(k)}" for k in keys)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    for needed in (SRC / "hygex" / "__init__.py", ROOT / "corpus", ROOT / "tests" / "goldens",
                   ROOT / "tests" / "corpus_config.py", ROOT / "BENCHMARK.json"):
        if not needed.exists():
            abort(f"missing {needed.relative_to(ROOT)}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        abort(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        abort("--seconds must be positive")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    sys.path.insert(0, str(SRC))
    import hygex

    if Path(hygex.__file__).resolve().parent != (SRC / "hygex").resolve():
        abort(f"imported hygex from {hygex.__file__}, not from {SRC}")
    OUT.mkdir(exist_ok=True)
    workload = GENERATORS[args.workload](args.seed, OUT, ROOT)
    check = Check(args.workload, args.seed)
    if args.trace:
        result = measure_traced(hygex, workload, args.seed, args.seconds, check, units)
    else:
        result = measure(hygex, workload, args.seed, args.seconds, check)

    metrics = result["metrics"]
    if set(metrics) != set(units):
        abort(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {result['info']}", file=sys.stderr)
    for name in units:
        print(f"{name:34s} {metrics[name]:>14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
