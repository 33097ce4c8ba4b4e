"""Span recorder for the perfbench traced run.

:func:`install` wraps the public functions of each ``repro`` layer *where
their callers look them up* (a module global for functions imported by
name, the class attribute for methods) and records one span per call:
``(name, start, end, thread id, request key, extra)`` on the monotonic
clock every process of the machine shares.  Spans stay in memory and are
written to ``<trace dir>/trace-<pid>.json`` when the interpreter exits, so
the per-process files of a whole ``repro serve`` tree can be joined on
time and request key afterwards (see ``perfbench/layers.py``).

A wrap target that no longer exists is an error, not a silent zero: the
process prints what is missing and exits with status 70 before serving.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import multiprocessing
import os
import sys
import threading
import time

MISSING_TARGET_EXIT = 70

_now = time.monotonic


class Recorder:
    """The spans of one process, written out at interpreter exit."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: list = []
        self.local = threading.local()

    def add(self, name, start, end, key=None, extra=None) -> None:
        # list.append is atomic under the interpreter lock: no lock needed.
        self.spans.append((name, start, end, threading.get_ident(), key, extra))

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"trace-{os.getpid()}.json")
        record = {
            "pid": os.getpid(),
            "role": multiprocessing.current_process().name,
            "spans": self.spans,
        }
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        os.replace(path + ".tmp", path)


# -- request keys ------------------------------------------------------------------


def _user_arg(args, kwargs):
    """``user_id`` of ``RecommendationService.recommend_cached[_async]``."""
    return kwargs["user_id"] if "user_id" in kwargs else args[2]


def _submit_user(args, kwargs):
    """``user.user_id`` of ``AdmissionQueue.submit(tenant, user, k, pair)``."""
    return (kwargs["user"] if "user" in kwargs else args[2]).user_id


def _batch_users(args, kwargs):
    """User ids of ``RecommenderEngine.recommend_many(users, ...)``."""
    return [user.user_id for user in (kwargs["users"] if "users" in kwargs else args[1])]


def _document_length(args, kwargs):
    """Length of the text ``parse_graph(document, ...)`` parses (a commit
    with no deletions parses an empty ``deleted`` document too)."""
    return len(kwargs["document"] if "document" in kwargs else args[0])


# -- wrapper factories -------------------------------------------------------------


def _span(rec, fn, name, key=None, extra=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.add(
                name,
                start,
                _now(),
                key(args, kwargs) if key else None,
                extra(args, kwargs) if extra else None,
            )

    return wrapper


def _future_span(rec, fn, name, key):
    """Span from the call to the resolution of the future it returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _now()
        future = fn(*args, **kwargs)
        request_key = key(args, kwargs)
        future.add_done_callback(
            lambda _f: rec.add(name, start, _now(), request_key)
        )
        return future

    return wrapper


def _forward_span(rec, fn):
    """``ShardSupervisor.forward(op, payload)``: one span name per op."""

    @functools.wraps(fn)
    def wrapper(self, op, payload, *args, **kwargs):
        user = payload.get("user") if isinstance(payload, dict) else None
        start = _now()
        try:
            return fn(self, op, payload, *args, **kwargs)
        finally:
            rec.add(f"router.forward.{op}", start, _now(), user)

    return wrapper


def _begin_span(rec, fn, cached_type):
    """``ResponseCache.begin``: the outcome (hit / miss / wait) as extra."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _now()
        got = fn(*args, **kwargs)
        if isinstance(got, cached_type):
            outcome = "hit"
        else:
            outcome = "miss" if got.leader else "wait"
        rec.add("respcache.begin", start, _now(), None, outcome)
        return got

    return wrapper


def _betweenness_span(rec, fn):
    """``update_raw_betweenness``: a fallback to a full Brandes pass (the
    returned update's ``incremental`` flag is False) is a full recompute."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _now()
        update = fn(*args, **kwargs)
        name = (
            "betweenness.incremental_update" if update.incremental
            else "betweenness.full_recompute"
        )
        rec.add(name, start, _now())
        return update

    return wrapper


def _encode_part(rec, fn, role):
    """One step of response encoding: ``package_to_dict`` -> ``json.dumps``
    -> ``make_etag`` on one thread, emitted as one ``service.encode`` span
    whose extra is the summed time of the three calls."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _now()
        result = fn(*args, **kwargs)
        spent = _now() - start
        local = rec.local
        if role == "first":
            local.encode = [start, spent]
        elif getattr(local, "encode", None) is not None:
            local.encode[1] += spent
            if role == "last":
                begun, total = local.encode
                local.encode = None
                rec.add("service.encode", begun, _now(), None, total)
        return result

    return wrapper


class _JsonShim:
    """Stands in for the ``json`` module inside one caller module, so that
    only that module's ``json.dumps`` calls are timed."""

    def __init__(self, module, dumps) -> None:
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


# -- targets -----------------------------------------------------------------------

#: (module, attribute path, span name, key function, extra function)
SPANS = [
    ("repro.service.service", "RecommendationService.recommend_cached",
     "service.recommend_cached", _user_arg, None),
    ("repro.service.admission", "AdmissionQueue.submit",
     "admission.submit", _submit_user, None),
    ("repro.recommender.engine", "RecommenderEngine.recommend_many",
     "engine.recommend_many", None, _batch_users),
    ("repro.recommender.relatedness", "RelatednessScorer.score_batch",
     "relatedness.score_batch", None, None),
    ("repro.recommender.relatedness", "RelatednessScorer.__init__",
     "relatedness.scorer_build", None, None),
    ("repro.recommender.engine", "rank_items", "ranking.rank_items", None, None),
    ("repro.recommender.engine", "mmr_select", "diversity.select", None, None),
    ("repro.recommender.engine", "max_min_select", "diversity.select", None, None),
    ("repro.recommender.engine", "coverage_select", "diversity.select", None, None),
    ("repro.recommender.engine", "novelty_select", "diversity.select", None, None),
    ("repro.recommender.diversity", "ItemDistance.__init__",
     "diversity.item_distance_build", None, None),
    ("repro.graphtools.traversal", "bfs_distances", "traversal.bfs", None, None),
    ("repro.graphtools.spread", "bfs_distances", "traversal.bfs", None, None),
    ("repro.graphtools.incremental", "bfs_distances", "traversal.bfs", None, None),
    ("repro.measures.summary", "bfs_distances", "traversal.bfs", None, None),
    ("repro.recommender.diversity", "bfs_distances", "traversal.bfs", None, None),
    ("repro.recommender.engine", "explain_item",
     "transparency.explain_item", None, None),
    ("repro.measures.base", "MeasureCatalog.compute_all",
     "measures.compute_all", None, None),
    ("repro.recommender.engine", "generate_candidates",
     "ranking.generate_candidates", None, None),
    ("repro.measures.structural", "raw_betweenness",
     "betweenness.full_recompute", None, None),
    ("repro.service.http", "parse_graph", "ntriples.parse", None, _document_length),
    ("repro.service.registry", "Tenant.commit_changes",
     "kb.commit_changes", None, None),
    ("repro.io.store", "BinaryKBStore.sync", "store.sync", None, None),
    ("repro.io.store", "BinaryKBStore.rollup", "store.rollup", None, None),
    ("repro.io.store", "BinaryKBStore.load", "storage.load_kb", None, None),
    ("repro.io.store", "BinaryKBStore.bootstrap_payload",
     "storage.load_kb", None, None),
    ("repro.service.sharding", "decode_shared_payload",
     "storage.load_kb", None, None),
    ("repro.cli", "load_kb", "storage.load_kb", None, None),
    ("repro.cli", "load_users", "storage.load_users", None, None),
]


def _resolve(module_name: str, path: str):
    """``(owner, attribute, current value)``; raises AttributeError if gone."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute, getattr(owner, attribute)


def install(out_dir: str) -> Recorder:
    """Wrap every target and register the exit-time dump."""
    rec = Recorder(out_dir)
    plan = []
    missing = []

    def target(module_name, path, make):
        try:
            owner, attribute, current = _resolve(module_name, path)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{module_name}.{path} ({exc})")
            return
        plan.append((owner, attribute, make(current)))

    for module_name, path, name, key, extra in SPANS:
        target(
            module_name, path,
            lambda fn, name=name, key=key, extra=extra: _span(rec, fn, name, key, extra),
        )
    target("repro.service.service", "RecommendationService.recommend_cached_async",
           lambda fn: _future_span(rec, fn, "service.read", _user_arg))
    target("repro.measures.structural", "update_raw_betweenness",
           lambda fn: _betweenness_span(rec, fn))
    target("repro.service.sharding", "ShardSupervisor.forward",
           lambda fn: _forward_span(rec, fn))
    try:
        from repro.service.respcache import CachedResponse
    except ImportError as exc:
        missing.append(f"repro.service.respcache.CachedResponse ({exc})")
    else:
        target("repro.service.respcache", "ResponseCache.begin",
               lambda fn: _begin_span(rec, fn, CachedResponse))
    target("repro.service.service", "package_to_dict",
           lambda fn: _encode_part(rec, fn, "first"))
    target("repro.service.service", "json",
           lambda module: _JsonShim(module, _encode_part(rec, module.dumps, "middle")))
    target("repro.service.service", "make_etag",
           lambda fn: _encode_part(rec, fn, "last"))
    target("repro.service.respcache", "make_etag",
           lambda fn: _encode_part(rec, fn, "last"))

    if missing:
        sys.stderr.write(
            "perfbench tracer: wrap targets no longer exist:\n  "
            + "\n  ".join(missing) + "\n"
        )
        sys.stderr.flush()
        os._exit(MISSING_TARGET_EXIT)
    for owner, attribute, wrapper in plan:
        setattr(owner, attribute, wrapper)
    atexit.register(rec.dump)
    return rec
