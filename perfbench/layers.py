"""Per-layer metrics from the traced run's span files.

Each server process writes ``trace-<pid>.json`` (see
``tracehook/perfbench_tracer.py``).  The spans are joined with the load
generator's own records on the shared monotonic clock:

* read-path layers count the spans that *start* inside the timed read
  window;
* commit-path layers count the spans inside the commit interval (the
  ``commit_read`` window, or the commit probe of ``read_miss``);
* set-up layers (``storage.*``) count every call the server tree made.

A self time is a span minus the part its child spans cover: the front-end
is the client round trip minus the server-side read span, the pipe hop
the router's forward span minus the worker-side read span.  A layer a
workload does not exercise reads 0.
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict
from pathlib import Path
from statistics import fmean
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from client import Read, percentile

#: Every per-layer metric with its unit, in BENCHMARK.json order.
UNITS = {
    "frontend.self_ms.p50": "ms",
    "router.pipe_ms.p50": "ms",
    "replica.read_share": "share",
    "respcache.hit_ratio": "ratio",
    "respcache.begin_ms.p50": "ms",
    "respcache.singleflight_waits": "count",
    "admission.wait_ms.p50": "ms",
    "admission.wait_ms.p99": "ms",
    "admission.batch_size.mean": "count",
    "engine.recommend_many_ms.p50": "ms",
    "relatedness.score_batch_ms.p50": "ms",
    "ranking.rank_items_ms.p50": "ms",
    "diversity.select_ms.p50": "ms",
    "diversity.item_distance_builds": "1/read",
    "traversal.bfs_calls": "1/read",
    "transparency.explain_ms.p50": "ms",
    "service.encode_ms.p50": "ms",
    "measures.compute_all_ms.p50": "ms",
    "measures.compute_all_calls": "count",
    "ranking.generate_candidates_ms.p50": "ms",
    "relatedness.scorer_builds": "count",
    "betweenness.incremental_updates": "count",
    "betweenness.full_recomputes": "count",
    "ntriples.parse_ms.p50": "ms",
    "kb.commit_changes_ms.p50": "ms",
    "store.sync_ms.p50": "ms",
    "store.sync_ms.p90": "ms",
    "store.rollups": "count",
    "store.rollup_ms.p50": "ms",
    "storage.load_users_ms": "ms",
    "storage.load_kb_ms": "ms",
    "setup.first_read_ms": "ms",
    "loadgen.writer_late_ms.max": "ms",
    "trace.read_rps_untraced": "req/s",
    "trace.read_rps_traced": "req/s",
}


class Span(NamedTuple):
    """One recorded call of one server process."""

    name: str
    start: float
    end: float
    tid: int
    key: Optional[str]
    extra: object
    pid: int
    role: str  # "server", "shard" or "replica"

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def load_spans(trace_dir: Path) -> List[Span]:
    """Every span of every process of one traced server tree."""
    spans: List[Span] = []
    files = sorted(trace_dir.glob("trace-*.json"))
    if not files:
        raise RuntimeError(f"traced server wrote no span files into {trace_dir}")
    for path in files:
        record = json.loads(path.read_text(encoding="utf-8"))
        name = record["role"]
        role = (
            "replica" if name.startswith("repro-replica")
            else "shard" if name.startswith("repro-shard")
            else "server"
        )
        spans.extend(Span(*span, record["pid"], role) for span in record["spans"])
    return spans


def _p(values: Sequence[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def _containing(inner: Span, index) -> Span | None:
    """The span of a non-nesting ``_thread_index`` that contains ``inner``."""
    starts, spans = index.get((inner.pid, inner.tid), ((), ()))
    at = bisect.bisect_right(starts, inner.start) - 1
    if at >= 0 and spans[at].end >= inner.end:
        return spans[at]
    return None


def _thread_index(spans: Iterable[Span]) -> Dict:
    grouped = defaultdict(list)
    for span in spans:
        grouped[(span.pid, span.tid)].append(span)
    index = {}
    for key, group in grouped.items():
        group.sort(key=lambda span: span.start)
        index[key] = ([span.start for span in group], group)
    return index


def _match(outer: List[Tuple[str, float, float]], inner: Iterable[Span]) -> List[float]:
    """``outer - inner`` in ms for each outer interval ``(key, start, end)``
    that contains an inner span of the same key (each inner used once)."""
    inner_by_key = defaultdict(list)
    for span in inner:
        inner_by_key[span.key].append(span)
    outer_by_key = defaultdict(list)
    for key, start, end in outer:
        outer_by_key[key].append((start, end))
    gaps = []
    for key, intervals in outer_by_key.items():
        group = sorted(inner_by_key.get(key, ()), key=lambda span: span.start)
        used = [False] * len(group)
        first = 0
        for start, end in sorted(intervals):
            # Outer intervals ascend by start: a span starting before this
            # one can be contained in no later interval either.
            while first < len(group) and group[first].start < start:
                first += 1
            at = first
            while at < len(group) and group[at].start <= end:
                if not used[at] and group[at].end <= end:
                    used[at] = True
                    gaps.append((end - start) * 1000.0 - group[at].ms)
                    break
                at += 1
    return gaps


def _outermost(spans: Iterable[Span]) -> List[Span]:
    """The spans not nested inside another span of the list on their thread."""
    keep = []
    reach: Dict[Tuple[int, int], float] = {}
    for span in sorted(spans, key=lambda span: (span.start, -span.end)):
        thread = (span.pid, span.tid)
        if span.end <= reach.get(thread, float("-inf")):
            continue
        reach[thread] = span.end
        keep.append(span)
    return keep


def per_layer(
    spans: List[Span],
    reads: List[Read],
    window: Tuple[float, float],
    commit_interval: Tuple[float, float],
) -> Dict[str, float]:
    """Every per-layer metric except the load generator's own."""
    lo, hi = window
    in_window = [span for span in spans if lo <= span.start <= hi]
    c_lo, c_hi = commit_interval
    in_commits = [span for span in spans if c_lo <= span.start <= c_hi]

    def named(name: str, pool: Iterable[Span] = in_window) -> List[Span]:
        return [span for span in pool if span.name == name]

    def p50(name: str, pool: Iterable[Span] = in_window) -> float:
        return _p([span.ms for span in named(name, pool)], 50)

    metrics: Dict[str, float] = {}
    # Front-end: client round trip minus the server-side read span.
    server_reads = [
        span for span in in_window
        if span.role == "server"
        and span.name in ("service.recommend_cached", "router.forward.recommend")
    ]
    client_reads = [(read.user, read.sent, read.done) for read in reads if read.ok]
    metrics["frontend.self_ms.p50"] = _p(_match(client_reads, server_reads), 50)
    # Pipe hop: router forward minus the worker-side read span.
    worker_reads = [
        span for span in in_window
        if span.name == "service.read" and span.role in ("shard", "replica")
    ]
    forwards = [
        (span.key, span.start, span.end) for span in named("router.forward.recommend")
    ]
    metrics["router.pipe_ms.p50"] = _p(_match(forwards, worker_reads), 50)
    metrics["replica.read_share"] = (
        sum(span.role == "replica" for span in worker_reads) / len(worker_reads)
        if worker_reads else 0.0
    )
    # Response cache outcomes.
    begins = named("respcache.begin")
    metrics["respcache.hit_ratio"] = (
        sum(span.extra == "hit" for span in begins) / len(begins) if begins else 0.0
    )
    metrics["respcache.begin_ms.p50"] = _p([span.ms for span in begins], 50)
    metrics["respcache.singleflight_waits"] = float(
        sum(span.extra == "wait" for span in begins)
    )
    # Admission: submit -> start of the recommend_many that served it.
    submits = defaultdict(list)
    for span in spans:
        if span.name == "admission.submit":
            submits[(span.pid, span.key)].append(span.start)
    for times in submits.values():
        times.sort()
    batches = named("engine.recommend_many")
    waits = []
    for batch in batches:
        for user in batch.extra:
            times = submits.get((batch.pid, user), [])
            at = bisect.bisect_right(times, batch.start) - 1
            if at >= 0:
                waits.append((batch.start - times[at]) * 1000.0)
    metrics["admission.wait_ms.p50"] = _p(waits, 50)
    metrics["admission.wait_ms.p99"] = _p(waits, 99)
    metrics["admission.batch_size.mean"] = (
        fmean(len(batch.extra) for batch in batches) if batches else 0.0
    )
    # The engine and its stages.
    metrics["engine.recommend_many_ms.p50"] = p50("engine.recommend_many")
    metrics["relatedness.score_batch_ms.p50"] = p50("relatedness.score_batch")
    metrics["ranking.rank_items_ms.p50"] = p50("ranking.rank_items")
    metrics["diversity.select_ms.p50"] = p50("diversity.select")
    # Per engine-served read: calls made inside the batches of the window.
    batch_index = _thread_index(batches)
    served = sum(len(batch.extra) for batch in batches)
    for metric, name in (
        ("diversity.item_distance_builds", "diversity.item_distance_build"),
        ("traversal.bfs_calls", "traversal.bfs"),
    ):
        calls = sum(
            _containing(span, batch_index) is not None
            for span in spans if span.name == name
        )
        metrics[metric] = calls / served if served else 0.0
    metrics["transparency.explain_ms.p50"] = p50("transparency.explain_item")
    metrics["service.encode_ms.p50"] = _p(
        [span.extra * 1000.0 for span in named("service.encode")], 50
    )
    # Cold-context work (a new version pair).
    metrics["measures.compute_all_ms.p50"] = p50("measures.compute_all")
    metrics["measures.compute_all_calls"] = float(len(named("measures.compute_all")))
    metrics["ranking.generate_candidates_ms.p50"] = p50("ranking.generate_candidates")
    metrics["relatedness.scorer_builds"] = float(len(named("relatedness.scorer_build")))
    metrics["betweenness.incremental_updates"] = float(
        len(named("betweenness.incremental_update"))
    )
    metrics["betweenness.full_recomputes"] = float(len(named("betweenness.full_recompute")))
    # The write path.  Only parses of non-empty commit bodies count: each
    # commit also parses its empty ``deleted`` document.
    metrics["ntriples.parse_ms.p50"] = _p(
        [span.ms for span in named("ntriples.parse", in_commits) if span.extra], 50
    )
    metrics["kb.commit_changes_ms.p50"] = p50("kb.commit_changes", in_commits)
    syncs = [span.ms for span in named("store.sync", in_commits)]
    metrics["store.sync_ms.p50"] = _p(syncs, 50)
    metrics["store.sync_ms.p90"] = _p(syncs, 90)
    rollups = named("store.rollup", in_commits)
    metrics["store.rollups"] = float(len(rollups))
    metrics["store.rollup_ms.p50"] = _p([span.ms for span in rollups], 50)
    # Set-up: outermost load calls of the whole tree (load_kb may nest
    # BinaryKBStore.load).
    for metric, name in (
        ("storage.load_users_ms", "storage.load_users"),
        ("storage.load_kb_ms", "storage.load_kb"),
    ):
        metrics[metric] = sum(
            span.ms for span in _outermost(span for span in spans if span.name == name)
        )
    return metrics
