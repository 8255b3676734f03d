"""Oracle-checked benchmark of the diskpd CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a seeded, fixed list of `diskpd` CLI calls made in process
through `diskpd.cli.main`, run by one client in a closed loop in a separate
workload process on one thread.  --seconds sets how many passes over the
list a run makes (about that many seconds on the reference machine; see
README.md).  Every answer is checked against an oracle that does not run
the timed code.  With --trace 0 the run reports the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it records spans
around every public function of each package module and reports the
per-layer metrics instead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import HarnessError, TSigns
from tracer import aggregate
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 9
SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import diskpd.cli\n"
    "diskpd.cli.build_parser()\n"
    "print(time.perf_counter() - t0, diskpd.__file__)\n"
)
#: Failures that make a run incorrect whatever the workload; on workloads
#: whose answers are all claimed exact, every failure does.
HARD_FAILURES = {"exit-code", "exception", "wrong-shape", "nondeterministic"}
RUN_LIMIT_S = 170


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup() -> float:
    """Median time, in fresh interpreters, to import diskpd.cli and build its parser."""
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise HarnessError(f"diskpd imported from {path}, not {SRC}")
        if attempt:  # the first import writes the bytecode cache
            times.append(float(seconds))
    return statistics.median(times)


def run_worker(ops, work: Path, passes: int, trace: bool, deadline: float) -> dict:
    argvs = []
    for idx, op in enumerate(ops):
        argv = list(op.argv)
        if op.doc is not None:
            path = work / f"op{idx:03d}.json"
            path.write_text(op.doc)
            argv = [str(path.relative_to(ROOT)) if a == "{doc}" else a for a in argv]
        argvs.append(argv)
    plan, result = work / "plan.json", work / "result.json"
    cap_s = (deadline - time.monotonic()) / 2
    plan.write_text(json.dumps(
        {"src": str(SRC), "ops": argvs, "passes": passes, "cap_s": cap_s, "trace": trace}
    ))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan), str(result)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise HarnessError("workload process exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise HarnessError(f"workload process failed:\n{proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def judge(workload, ops, result, tsigns):
    """Per execution: (failure kinds, decided).  Each operation's first
    execution is judged; a repeat must end and print exactly as it did."""
    first = {}
    verdicts = {}
    for idx, _, rc, _, sha, exc in result["execs"]:
        if idx in first:
            continue
        first[idx] = (rc, sha, exc)
        if exc is not None:
            verdicts[idx] = (["exception"], False)
        elif rc != 0:
            verdicts[idx] = (["exit-code"], False)
        else:
            outcome = workload.judge(ops[idx], result["first_out"][str(idx)], tsigns)
            verdicts[idx] = (outcome.failures, outcome.decided)
    judged = []
    for idx, _, rc, _, sha, exc in result["execs"]:
        fails, decided = verdicts[idx]
        if (rc, sha, exc) != first[idx]:
            fails, decided = fails + ["nondeterministic"], False
        judged.append((fails, decided))
    return judged


def tail_latency(latencies):
    """(value, percentile, samples beyond): the highest percentile with 10 samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diskpd" / "cli.py").is_file():
        print(f"error: no diskpd sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    setup_s = None if trace else measure_setup()

    tsigns = TSigns()
    ops = workload.build(args.seed, tsigns)
    digest = hashlib.sha256(json.dumps([[op.argv, op.doc] for op in ops]).encode()).hexdigest()

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run_worker(ops, work, workload.passes(args.seconds, trace), trace, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    judged = judge(workload, ops, result, tsigns)
    attempted = len(judged)
    failed = sum(1 for fails, _ in judged if fails)
    decided = sum(1 for _, d in judged if d)
    kinds = {}
    for fails, _ in judged:
        for kind in set(fails):
            kinds[kind] = kinds.get(kind, 0) + 1
    hard = [k for k in kinds if k in HARD_FAILURES or workload.exact]
    traced_passes = [p for p in result["passes"] if p["traced"]]
    plain_passes = [p for p in result["passes"] if not p["traced"]]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"inputs sha256 {digest}  ({len(ops)} operations per pass)")
    print(f"passes {len(plain_passes)} untraced, {len(traced_passes)} traced; attempted {attempted}")
    print(f"error_share      {failed / attempted:.6f}  ({failed}/{attempted} failed"
          + "".join(f"; {k} {v}" for k, v in sorted(kinds.items())) + ")")

    if trace:
        layers = aggregate(result["spans"], len(traced_passes))
        plain_busy = statistics.mean(p["busy_s"] for p in plain_passes)
        layers["trace.overhead_ratio"] = statistics.mean(p["busy_s"] for p in traced_passes) / plain_busy
        for name in sorted(layers):
            print(f"  {name:52s} {layers[name]:14.6g}")
        declared = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in declared}
    else:
        latencies = [e[3] for e in result["execs"]]
        tail, pct, beyond = tail_latency(latencies)
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail,
            "decided_share": decided / attempted,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
            "latency_tail_ms": f"p{pct:.2f}, {len(latencies)} samples, {beyond} beyond",
        }
        declared = spec["end_to_end"]
        for m in declared:
            print(f"{m['name']:16s} {values[m['name']]:.6g} {m['unit']}  {notes.get(m['name'], '')}")

    print(json.dumps({
        "correct": not hard,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as err:  # no result line: the run is not valid
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        sys.exit(1)
