"""The load generator's HTTP client, samples and percentile helpers."""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

now = time.monotonic

#: What a request can raise on the wire: counted as a failed request.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


def etag_of(body: bytes) -> str:
    """The strong ETag ``repro`` serves for a body: quoted SHA-256."""
    return f'"{hashlib.sha256(body).hexdigest()}"'


class Http:
    """One keep-alive connection (TCP_NODELAY), reopened after an error."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, payload: Dict) -> Tuple[int, bytes, Optional[str]]:
        """``(status, body, ETag header)``; transport errors propagate."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            self._conn.connect()
            self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            self._conn.request(
                "POST", path, json.dumps(payload).encode("utf-8"),
                {"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            body = response.read()
        except TRANSPORT_ERRORS:
            self.close()
            raise
        return response.status, body, response.getheader("ETag")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Phase:
    """Counts of one load phase: what was attempted, what failed and why."""

    name: str
    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def merge(self, other: "Phase") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, count in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + count

    def report(self) -> Dict:
        return {
            "attempted": self.attempted,
            "succeeded": self.attempted - self.failed,
            "failed": self.failed,
            "failure_reasons": dict(self.reasons),
        }


@dataclass
class Read:
    """One timed ``/recommend``: who, when sent, when answered, whether right."""

    user: str
    sent: float
    done: float
    ok: bool

    @property
    def ms(self) -> float:
        return (self.done - self.sent) * 1000.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def checked_body(
    status: int, body: bytes, etag: Optional[str], need_etag: bool
) -> Tuple[Optional[Dict], str]:
    """Decode a ``/recommend`` answer; ``(package, "")`` or ``(None, reason)``.

    A 200 with a body that is not a JSON package, or whose ETag is not the
    SHA-256 of the body, is a failure like any non-200.  ``need_etag`` is
    set for the single-process front-end, which always sends one.
    """
    if status != 200:
        return None, f"http_{status}"
    if etag is not None or need_etag:
        if etag != etag_of(body):
            return None, "bad_etag"
    try:
        package = json.loads(body)
    except ValueError:
        return None, "bad_json"
    if not isinstance(package, dict) or "metadata" not in package:
        return None, "bad_package"
    return package, ""
