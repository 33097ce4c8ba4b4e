"""perfbench: ``python -m repro serve`` end to end, with an outside-in layer trace.

One run generates the seeded world, starts the real server as a
subprocess, drives one workload over HTTP from this single process and
prints every metric.  The last stdout line is the result::

    python3 perfbench/run.py --workload read_miss --seed 1 --seconds 30 --trace 0
    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs the workload twice for half the time each -- once
untraced, once with ``perfbench/tracehook`` loaded into every server
process -- and reports the per-layer metrics of the traced pass plus
both read rates (the tracing overhead).  The line before the result is a
JSON report of the run: inputs digest, machine, per-phase counts.

Any wrong answer, lost acknowledged commit or failed request makes the
result ``"correct": false`` and the exit status 1.  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from steal import StealMonitor, quietest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("read_miss", "commit_read")
#: Spawn -> first read cycles per untraced run; ``setup_s`` is the median
#: of the quiet ones (see ``steal.py``).
SETUP_SPAWNS = 5
#: Servers an untraced run pools its timed window over (each gets an equal
#: share of ``--seconds``); the rest of the ``SETUP_SPAWNS`` only time
#: set-up and, on ``read_miss``, run the commit probe.  ``read_miss``
#: pools three so one unlucky server placement weighs a third;
#: ``commit_read`` must keep one server for the whole window so that its
#: version chain, memory growth and roll-ups are those of a long run.
SERVERS = {"read_miss": 3, "commit_read": 1}
#: The run gives up (and stops its servers) after this many seconds.
DEADLINE_S = 170

E2E_UNITS = {
    "read_rps": "req/s",
    "read_p50_ms": "ms",
    "commit_p50_ms": "ms",
    "fresh_read_p50_ms": "ms",
    "setup_s": "s",
    "server_rss_mb": "MB",
    "ok_ratio": "ratio",
}
#: Tail latencies: printed in the report line of every run, with how many
#: samples lie beyond them, but not bounded.  Over ten runs on a 2-core
#: Xeon whose speed drifted by +-15% their interquartile spread reached
#: 32-46% of the median, past the largest bound (25%) a run-to-run
#: comparison may use; the medians above stayed within 21%.
TAILS = {"read_p99_ms": 99, "commit_p90_ms": 90, "fresh_read_p90_ms": 90}


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=4242,
                        help="traffic seed: user order, Zipf draws, commit deltas")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="timed measurement per run (default: 30, as in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small world and working set (the self-test)")
    return parser.parse_args(argv)


def _phases(outcomes) -> Dict[str, object]:
    merged = {}
    for outcome in outcomes:
        for name, phase in outcome.phases.items():
            if name in merged:
                merged[name].merge(phase)
            else:
                merged[name] = phase
    return merged


def _quiet_reads(outcome, monitor: Optional[StealMonitor]) -> Tuple[List, float]:
    """The successful timed reads completed in the quietest slices of the
    timed windows, and the slices' total length (every read and the whole
    window without a monitor)."""
    reads = [read for read in outcome.reads if read.ok]
    if monitor is None:
        return reads, outcome.wall_s
    slices = quietest(
        [piece for window in outcome.windows for piece in monitor.slices(window)],
        lambda piece: piece[2],
    )
    reads.sort(key=lambda read: read.done)
    done = [read.done for read in reads]
    kept = []
    for start, end, _ in slices:
        kept.extend(reads[bisect.bisect_right(done, start) : bisect.bisect_right(done, end)])
    return kept, sum(end - start for start, end, _ in slices)


def _samples(outcome, monitor: Optional[StealMonitor]) -> Tuple[Dict[str, List[float]], float]:
    """Latency samples (ms) of the quiet successful timed reads, commits
    and fresh reads (see ``steal.py``), and the length of the quiet slices
    the reads came from."""
    reads, quiet_s = _quiet_reads(outcome, monitor)
    acked = [commit for commit in outcome.commits if commit.acked]
    fresh = [commit for commit in outcome.commits if commit.ok]
    if monitor is not None:
        acked = quietest(acked, lambda commit: monitor.share(commit.due, commit.acked))
        fresh = quietest(fresh, lambda commit: monitor.share(commit.acked, commit.fresh_done))
    samples = {
        "read": [read.ms for read in reads],
        "commit": [commit.commit_ms for commit in acked],
        "fresh_read": [commit.fresh_ms for commit in fresh],
    }
    for name, values in samples.items():
        if not values:
            raise RuntimeError(f"no successful {name} was measured")
    return samples, quiet_s


def _end_to_end(outcome, monitor: Optional[StealMonitor]) -> Dict[str, float]:
    from client import percentile

    samples, quiet_s = _samples(outcome, monitor)
    setups = outcome.setup_spans
    if monitor is not None:
        setups = quietest(setups, lambda span: monitor.share(*span))
    return {
        "read_rps": len(samples["read"]) / quiet_s,
        "read_p50_ms": percentile(samples["read"], 50),
        "commit_p50_ms": percentile(samples["commit"], 50),
        "fresh_read_p50_ms": percentile(samples["fresh_read"], 50),
        "setup_s": statistics.median(end - start for start, end in setups),
        "server_rss_mb": statistics.median(outcome.rss_mb),
    }


def _tails(outcome, monitor: StealMonitor) -> Dict[str, Dict[str, float]]:
    from client import percentile

    samples, _ = _samples(outcome, monitor)
    tails = {}
    for name, q in TAILS.items():
        values = samples[name.rsplit("_p", 1)[0]]
        tails[name] = {
            "value": percentile(values, q),
            "unit": "ms",
            "samples": len(values),
            "samples_beyond": len(values) - math.ceil(q / 100.0 * len(values)),
        }
    return tails


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _on_alarm(_signum, _frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S}s")


def run(args: argparse.Namespace, tmp: Path, monitor: StealMonitor) -> int:
    import layers
    import worldgen
    from workloads import CLIENTS, Outcome, Run

    scale = worldgen.QUICK if args.quick else worldgen.FULL
    world = worldgen.generate_in_subprocess(args.seed, scale, tmp / "world", SRC)
    bench = Run(world, SRC, tmp, args.seed, scale.working_set)
    if args.trace:
        half = args.seconds / 2.0
        untraced = Outcome()
        bench.measure(args.workload, half, untraced)
        traced = Outcome()
        trace_dir = tmp / "trace"
        trace_dir.mkdir()
        bench.measure(args.workload, half, traced, trace_dir=trace_dir)
        outcomes = [untraced, traced]
        commits = traced.commits
        interval = (
            min(commit.due for commit in commits),
            max(max(commit.acked, commit.fresh_done) for commit in commits),
        )
        values = layers.per_layer(
            layers.load_spans(trace_dir), traced.reads, traced.windows[0], interval
        )
        values["setup.first_read_ms"] = traced.first_read_ms
        values["loadgen.writer_late_ms.max"] = max(commit.late_ms for commit in commits)
        values["trace.read_rps_untraced"] = _end_to_end(untraced, monitor)["read_rps"]
        values["trace.read_rps_traced"] = _end_to_end(traced, monitor)["read_rps"]
        units = layers.UNITS
    else:
        outcome = Outcome()
        servers = SERVERS[args.workload]
        bench.measure_setup(args.workload, outcome, SETUP_SPAWNS - servers)
        bench.measure(args.workload, args.seconds, outcome, servers)
        outcomes = [outcome]
        values = _end_to_end(outcome, monitor)
        units = E2E_UNITS

    phases = _phases(outcomes)
    attempted = sum(phase.attempted for phase in phases.values())
    failed = sum(phase.failed for phase in phases.values())
    if not args.trace:
        values["ok_ratio"] = (attempted - failed) / attempted
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "world_seed": worldgen.WORLD_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "quick": args.quick,
        "world_digest": world.digest(),
        "source_digest": _source_digest(),
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "loadgen_threads": CLIENTS,
        "tails": _tails(outcomes[-1], monitor),
        "setup_s_samples": [end - start for start, end in outcomes[-1].setup_spans],
        "every_sample": _end_to_end(outcomes[-1], None),
        "stolen_share": {
            "timed": [monitor.share(*window) for window in outcomes[-1].windows],
            "run": monitor.share(monitor.times[0], time.monotonic()),
        },
        "phases": {name: phase.report() for name, phase in phases.items()},
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: List[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    started = time.monotonic()
    try:
        with StealMonitor() as monitor:
            return run(args, tmp, monitor)
    except Exception as exc:  # the run failed: say why, print no result
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
        print(f"perfbench: run took {time.monotonic() - started:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
