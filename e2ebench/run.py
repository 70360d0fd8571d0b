"""Benchmark entry point.

    python3 e2ebench/run.py --workload serve-warm --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  ``--trace 0`` drives the program
from outside and prints the end-to-end metrics; ``--trace 1`` replays the
same operations in one process with timing wrappers and prints the
per-layer metrics.  The last line of stdout is the result object; the line
before it is the full record (provenance, sample counts, failures), which is
also appended to ``.e2ebench/records.jsonl``.
"""

from __future__ import annotations

import os
import sys

# Before anything imports numpy: one BLAS/OpenMP thread, here and in children.
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from programs import THREAD_VARIABLES  # noqa: E402

for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".e2ebench")
WORKLOAD_NAMES = ("serve-warm", "serve-cold", "cli-sweep")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git(*args: str):
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args) -> dict:
    import numpy
    import scipy

    head = _git("rev-parse", "HEAD") if os.path.isdir(os.path.join(ROOT, ".git")) else None
    status = _git("status", "--porcelain") if head else None
    return {
        "commit": head,
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def host_cpu_ticks():
    """The host-wide CPU tick counters of /proc/stat (None where absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor took from this machine in between.

    On a shared VM steal time inflates every timing and drifts between runs,
    so the record carries it next to the timings.
    """
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def end_to_end(workload: str, outcome) -> tuple[dict, dict]:
    """The end-to-end metrics and the sample details behind them."""
    import stats
    from workloads import TAIL_PERCENTILE

    latencies = [
        op.seconds * 1000.0 for op, error in zip(outcome.ops, outcome.verdicts) if error is None
    ]
    q = TAIL_PERCENTILE[workload]
    p50 = stats.median(latencies) if latencies else 0.0
    tail = stats.percentile(latencies, q) if latencies and q else p50
    metrics = {
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "ops_per_s": (len(latencies) / outcome.loop_seconds, "1/s"),
        "setup_s": (stats.median(outcome.setups), "s"),
        "peak_rss_mb": (outcome.rss_mb, "MB"),
    }
    details = {
        "samples": len(latencies),
        "tail_percentile": q or 50,
        "tail_samples_beyond": stats.samples_beyond(len(latencies), q or 50),
        "tail_percentile_by_rule": stats.tail_percentile(len(latencies)),
        "setup_samples_s": outcome.setups,
        "loop_seconds": outcome.loop_seconds,
        **outcome.notes,
    }
    return metrics, details


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import stats
    from programs import program_env
    from workloads import WORKLOADS, Context, describe_failures

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    ctx = Context(ROOT, workdir, args.seed, args.seconds, program_env(ROOT))
    ticks = host_cpu_ticks()
    try:
        if args.trace:
            from replay import REPLAYS

            outcome, metrics, details = REPLAYS[args.workload](ctx)
        else:
            outcome = WORKLOADS[args.workload](ctx)
            metrics, details = end_to_end(args.workload, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details["host_steal_share"] = steal_share(ticks, host_cpu_ticks())

    attempted, failed = stats.tally(error is None for error in outcome.verdicts)
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "provenance": provenance(args),
        **result,
        "details": details,
        "failures": describe_failures(outcome),
    }
    line = json.dumps(record, sort_keys=True)
    with open(os.path.join(WORK_ROOT, "records.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
