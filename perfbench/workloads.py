"""The two workloads: traffic, correctness checks and timed records.

Every workload serves the same seeded world with the response cache on as
deployed (``--cache-entries 16384``); only the traffic and the topology
the traffic needs differ.  All readers are closed loops (each waits for
its reply); the only open-loop actor is the ``commit_read`` writer.

* ``read_miss`` -- ``--replicas 1`` (router, owner, one replica).  Two
  clients each read a *distinct* user (a seeded permutation of the
  population), so every read misses the cache and runs the whole engine,
  on the owner and the replica in turn.
* ``commit_read`` -- single process, ``--persist --rollup-records 32`` on a
  fresh copy of the store.  A writer commits a 10-triple instance delta
  every 250 ms on schedule and reads one fresh user right after each ack;
  one reader reads Zipf over 256 users on the moving head.

Every server ``read_miss`` starts gets a short commit probe (sequential
commits, each followed by a fresh read) -- after the timed window, or
right after set-up on a server that only times set-up -- so both
workloads report the commit and freshness metrics.
"""

from __future__ import annotations

import itertools
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from client import TRANSPORT_ERRORS, Http, Phase, Read, checked_body, now
from server import ServeProcess, ServerError
from worldgen import World

CACHE_ENTRIES = 16384
CLIENTS = 2
ZIPF_EXPONENT = 1.1
COMMIT_INTERVAL_S = 0.25
ROLLUP_RECORDS = 32
#: Probe commits per ``read_miss`` server.  An untraced run
#: pools them over all its servers: on a 2-core Xeon the fresh-read p50
#: of a single server's 45-commit probe swung between 35 and 67 ms from
#: run to run.
PROBE_COMMITS = 9
REFERENCE_SAMPLE = 24


@dataclass
class Commit:
    """One ``/commit`` and the fresh read after its ack."""

    version: str
    due: float
    sent: float
    acked: float = 0.0
    fresh_done: float = 0.0
    ok: bool = False

    @property
    def commit_ms(self) -> float:
        return (self.acked - self.due) * 1000.0

    @property
    def fresh_ms(self) -> float:
        return (self.fresh_done - self.acked) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


@dataclass
class Outcome:
    """What one pass of a workload measured against one server."""

    reads: List[Read] = field(default_factory=list)
    windows: List[Tuple[float, float]] = field(default_factory=list)
    commits: List[Commit] = field(default_factory=list)
    phases: Dict[str, Phase] = field(default_factory=dict)
    setup_spans: List[Tuple[float, float]] = field(default_factory=list)  # spawn -> first 200
    first_read_ms: float = 0.0
    rss_mb: List[float] = field(default_factory=list)

    def phase(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase(name))

    def add_reads(self, reads: List[Read], window: Tuple[float, float]) -> None:
        self.reads.extend(reads)
        self.windows.append(window)

    @property
    def wall_s(self) -> float:
        return sum(hi - lo for lo, hi in self.windows)


class Run:
    """One run: a world, a workload, and the servers it starts."""

    def __init__(self, world: World, src: Path, tmp: Path, seed: int, working_set: int) -> None:
        self.world = world
        self.src = src
        self.tmp = tmp
        self.seed = seed
        order = world.user_order
        self.setup_user = order[0]
        self.miss_users = order[1:]
        # The commit_read working set and its Zipf ranks are the same for
        # every seed: engine cost differs from user to user by up to 2x,
        # so a seeded set would move the read rate with the seed.  The
        # seed still draws the reads over it.
        self.hot_users = random.Random("perfbench-working-set").sample(sorted(order), working_set)
        hot = set(self.hot_users)
        self.fresh_users = [user for user in order[1:] if user not in hot]
        self._spawns = itertools.count()
        # Commit indices never repeat within a run: each server of a run
        # commits fresh version ids, delta classes and fresh users.
        self._commits = itertools.count()
        self._draws = itertools.count()
        # read_miss continues through the permutation from server to server.
        self._miss_cursor = itertools.cycle(self.miss_users)
        self._miss_lock = threading.Lock()
        self._miss_bodies: Dict[str, bytes] = {}

    # -- servers -------------------------------------------------------------------

    def spawn(
        self, args: List[str], outcome: Outcome, trace_dir: Optional[Path] = None
    ) -> Tuple[ServeProcess, Tuple[str, int]]:
        """Start a server and time spawn -> first 200 ``/recommend`` (set-up)."""
        index = next(self._spawns)
        server = ServeProcess(
            self.src,
            ["--users", str(self.world.users_path), "--cache-entries", str(CACHE_ENTRIES), *args],
            self.tmp / f"serve-{index}.log",
            trace_dir,
        )
        try:
            address = server.wait_address()
            http = Http(*address)
            sent = now()
            status, body, _ = http.post(
                "/recommend", {"tenant": self.world.tenant, "user": self.setup_user}
            )
            done = now()
            http.close()
            if status != 200:
                raise ServerError(f"first /recommend answered {status}: {body[:300]!r}")
        except BaseException:
            server.stop()
            raise
        outcome.setup_spans.append((server.started_at, done))
        outcome.first_read_ms = (done - sent) * 1000.0
        return server, address

    def store_copy(self) -> Path:
        """A fresh copy of the generated store (``commit_read`` appends to it)."""
        target = self.tmp / f"store-{next(self._spawns)}"
        shutil.copytree(self.world.kb_dir, target)
        return target

    # -- traffic -------------------------------------------------------------------

    def closed_loop(
        self,
        address: Tuple[str, int],
        clients: int,
        seconds: float,
        pick: Callable[[int], str],
        check: Callable[[str, int, bytes, Optional[str]], str],
        phase: Phase,
        extra: Optional[Callable[[float, float], None]] = None,
    ) -> Tuple[List[Read], Tuple[float, float]]:
        """``clients`` closed-loop readers for ``seconds``.

        ``pick(client)`` names the next user, ``check(user, status, body,
        etag)`` returns "" for a right answer or the failure reason.
        ``extra(start, stop)``, if given, runs on one more thread over the
        same window (the ``commit_read`` writer).
        """
        start = now()
        stop = start + seconds
        per_client: List[List[Read]] = [[] for _ in range(clients)]
        phases = [Phase(phase.name) for _ in range(clients)]
        errors: List[BaseException] = []

        def loop(index: int) -> None:
            http = Http(*address)
            try:
                while True:
                    user = pick(index)
                    sent = now()
                    if sent >= stop:
                        break
                    try:
                        status, body, etag = http.post(
                            "/recommend", {"tenant": self.world.tenant, "user": user}
                        )
                        done = now()
                        reason = check(user, status, body, etag)
                    except TRANSPORT_ERRORS as exc:
                        done = now()
                        reason = f"transport_{type(exc).__name__}"
                    per_client[index].append(Read(user, sent, done, not reason))
                    if reason:
                        phases[index].fail(reason)
                    else:
                        phases[index].ok()
            except BaseException as exc:  # surfaced by the caller after join
                errors.append(exc)
            finally:
                http.close()

        threads = [threading.Thread(target=loop, args=(i,), daemon=True) for i in range(clients)]
        if extra is not None:
            def run_extra() -> None:
                try:
                    extra(start, stop)
                except BaseException as exc:
                    errors.append(exc)

            threads.append(threading.Thread(target=run_extra, daemon=True))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 90)
            if thread.is_alive():
                raise TimeoutError("a load-generator thread did not finish")
        if errors:
            raise errors[0]
        reads = [read for client_reads in per_client for read in client_reads]
        for client_phase in phases:
            phase.merge(client_phase)
        end = max([read.done for read in reads] + [stop])
        return reads, (start, end)

    def zipf_picker(self, name: str, users: List[str]) -> Callable[[int], str]:
        """Per-client seeded Zipf(1.1) draws over ``users`` (rank = list order)."""
        cumulative = list(itertools.accumulate(
            1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(users))
        ))
        draw = next(self._draws)
        rngs = [random.Random(f"{self.seed}-{name}-{draw}-{i}") for i in range(CLIENTS)]
        return lambda index: rngs[index].choices(users, cum_weights=cumulative)[0]

    def commit_and_read(
        self, http: Http, due: float, phase: Phase, need_etag: bool,
        index: Optional[int] = None,
    ) -> Commit:
        """One commit (timed from ``due``) and the fresh read after its ack."""
        index = next(self._commits) if index is None else index
        version = f"pb{index}"
        commit = Commit(version, due, now())
        try:
            status, body, _ = http.post("/commit", {
                "tenant": self.world.tenant,
                "added": self.world.delta(index),
                "version_id": version,
            })
        except TRANSPORT_ERRORS as exc:
            phase.fail(f"commit_transport_{type(exc).__name__}")
            return commit
        commit.acked = now()
        if status != 200:
            phase.fail(f"commit_http_{status}")
            return commit
        phase.ok()
        user = self.fresh_users[index % len(self.fresh_users)]
        try:
            status, body, etag = http.post(
                "/recommend", {"tenant": self.world.tenant, "user": user}
            )
        except TRANSPORT_ERRORS as exc:
            phase.fail(f"fresh_transport_{type(exc).__name__}")
            return commit
        commit.fresh_done = now()
        package, reason = checked_body(status, body, etag, need_etag)
        if not reason and not package["metadata"]["context"].endswith(f"->{version}"):
            reason = "fresh_read_stale_version"
        if not reason and package.get("audience") != user:
            reason = "fresh_read_wrong_user"
        if reason:
            phase.fail(reason)
        else:
            phase.ok()
            commit.ok = True
        return commit

    def probe(self, address: Tuple[str, int], outcome: Outcome) -> None:
        """``PROBE_COMMITS`` sequential commits, each due when the previous
        fresh read returned (``read_miss``, through the router, which sends
        no ETag)."""
        http = Http(*address)
        phase = outcome.phase("commit_probe")
        try:
            for _ in range(PROBE_COMMITS):
                outcome.commits.append(self.commit_and_read(http, now(), phase, False))
        finally:
            http.close()

    # -- workloads -----------------------------------------------------------------

    def serve_args(self, workload: str) -> Tuple[List[str], Optional[Path]]:
        """``repro serve`` arguments of a workload, and the store it appends
        to (``commit_read`` gets a fresh copy per server)."""
        if workload == "read_miss":
            return ["--kb", str(self.world.kb_dir), "--replicas", "1"], None
        store = self.store_copy()
        return ["--kb", str(store), "--persist", "--rollup-records", str(ROLLUP_RECORDS)], store

    def measure_setup(self, workload: str, outcome: Outcome, times: int) -> None:
        """Extra spawn -> first read cycles, for the median ``setup_s``,
        each followed by the commit probe on ``read_miss``."""
        for _ in range(times):
            server, address = self.spawn(self.serve_args(workload)[0], outcome)
            try:
                if workload == "read_miss":
                    self.probe(address, outcome)
            finally:
                status = server.stop()
            if status != 0:
                outcome.phase("shutdown").fail(f"serve_exit_{status}")

    def measure(
        self, workload: str, seconds: float, outcome: Outcome, servers: int = 1,
        trace_dir: Optional[Path] = None,
    ) -> None:
        """Drive ``workload`` for ``seconds`` in total, split evenly over
        ``servers`` fresh servers whose samples are pooled."""
        for _ in range(servers):
            self.execute(workload, seconds / servers, outcome, trace_dir)
        if workload == "read_miss":
            self._check_reference(self._miss_bodies, outcome.phase("reference"))

    def execute(
        self, workload: str, seconds: float, outcome: Outcome,
        trace_dir: Optional[Path] = None,
    ) -> None:
        """Serve, drive ``workload`` for ``seconds``, stop, run the post-stop checks."""
        args, store = self.serve_args(workload)
        server, address = self.spawn(args, outcome, trace_dir)
        try:
            verify = getattr(self, f"_{workload}")(address, seconds, outcome, store)
            if workload == "read_miss":
                self.probe(address, outcome)
            outcome.rss_mb.append(server.peak_rss_mb())
        finally:
            status = server.stop()
        if status != 0:
            outcome.phase("shutdown").fail(f"serve_exit_{status}")
        if verify is not None:
            verify()

    # Each workload drives one server and returns the check to run once the
    # server has stopped, if it has one.

    def _read_miss(self, address, seconds: float, outcome: Outcome, _store) -> None:
        head = _head_context(self.world.kb_dir)
        bodies = self._miss_bodies

        def pick(_index: int) -> str:
            with self._miss_lock:
                return next(self._miss_cursor)

        def check(user: str, status: int, body: bytes, etag: Optional[str]) -> str:
            package, reason = checked_body(status, body, etag, need_etag=False)
            if reason:
                return reason
            if package["metadata"].get("context") != head:
                return "wrong_context"
            if package.get("audience") != user:
                return "wrong_user"
            bodies[user] = body
            return ""

        outcome.add_reads(*self.closed_loop(
            address, CLIENTS, seconds, pick, check, outcome.phase("reads")
        ))

    def _commit_read(self, address, seconds: float, outcome: Outcome, store: Path) -> Callable[[], None]:
        known = set(_version_ids(store))
        writes = outcome.phase("commits")
        mine: List[Commit] = []  # this server's commits

        def writer(start: float, stop: float) -> None:
            http = Http(*address)
            try:
                for step in itertools.count():
                    due = start + step * COMMIT_INTERVAL_S
                    if due >= stop:
                        break
                    delay = due - now()
                    if delay > 0:
                        time.sleep(delay)
                    index = next(self._commits)
                    known.add(f"pb{index}")
                    commit = self.commit_and_read(http, due, writes, True, index)
                    outcome.commits.append(commit)
                    mine.append(commit)
            finally:
                http.close()

        def check(user: str, status: int, body: bytes, etag: Optional[str]) -> str:
            package, reason = checked_body(status, body, etag, need_etag=True)
            if reason:
                return reason
            if package["metadata"].get("context", "").rpartition("->")[2] not in known:
                return "unknown_version"
            if package.get("audience") != user:
                return "wrong_user"
            return ""

        outcome.add_reads(*self.closed_loop(
            address, 1, seconds, self.zipf_picker("commit", self.hot_users),
            check, outcome.phase("reads"), extra=writer,
        ))

        def verify() -> None:
            # Zero acked-commit loss: every acknowledged version is on disk.
            durable = set(_version_ids(store))
            phase = outcome.phase("durability")
            for commit in mine:
                if commit.acked:
                    if commit.version in durable:
                        phase.ok()
                    else:
                        phase.fail("acked_commit_lost")

        return verify

    # -- checks --------------------------------------------------------------------

    def _check_reference(self, bodies: Dict[str, bytes], phase: Phase) -> None:
        """Byte-compare a seeded sample of served bodies with an in-process
        reference built on the same KB, users and engine settings as serve."""
        from repro.io import load_kb, load_users
        from repro.recommender.engine import EngineConfig
        from repro.service import RecommendationService, ServiceConfig

        served = sorted(bodies)
        sample = random.Random(f"{self.seed}-reference").sample(
            served, min(REFERENCE_SAMPLE, len(served))
        )
        kb = load_kb(self.world.kb_dir)
        users = load_users(self.world.users_path)
        config = ServiceConfig(k=5, engine=EngineConfig(k=5, spread_depth=1))
        with RecommendationService(config) as service:
            service.add_tenant(self.world.tenant, kb, users)
            for user in sample:
                expected = service.recommend_cached(self.world.tenant, user).body
                if expected == bodies[user]:
                    phase.ok()
                else:
                    phase.fail("reference_mismatch")


def _version_ids(store: Path) -> List[str]:
    from repro.io import load_kb

    return load_kb(store).version_ids()


def _head_context(store: Path) -> str:
    ids = _version_ids(store)
    return f"{ids[-2]}->{ids[-1]}"
