"""Open-loop HTTP client for the `serve` workload.

Requests are due on a fixed schedule whatever the server does (an open
loop: independent users do not wait for each other).  One process
sends them over at most ``connections`` keep-alive connections; a
request that is due while every connection is busy waits in a FIFO
queue, and that wait counts in its latency, because latency is timed
from the request's due time, not from when it was sent.

Each request yields four instants on the event loop's monotonic clock:
``due`` (scheduled), ``queued`` (when the generator actually released
it; ``queued - due`` is the generator's lateness), ``sent`` and
``reply``.  ``latency = reply - due = send_wait + server`` with
``send_wait = sent - due`` and ``server = reply - sent``.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, \
    Sequence, Tuple

#: A scheduled request: (due offset in seconds from the phase start,
#: query document).
Scheduled = Tuple[float, Dict[str, Any]]

#: Sends one document and returns the decoded response; raises
#: ``ConnectionError`` when the exchange fails.
Roundtrip = Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]]


@dataclass
class Exchange:
    """One request's timeline (event-loop seconds) and outcome."""

    document: Dict[str, Any]
    due: float
    queued: float = math.nan
    sent: float = math.nan
    reply: float = math.nan
    ok: bool = False
    response: Optional[Dict[str, Any]] = None

    @property
    def latency(self) -> float:
        """Due to reply, seconds; infinite for a failed request."""
        return self.reply - self.due if self.ok else math.inf

    @property
    def send_wait(self) -> float:
        return self.sent - self.due

    @property
    def server_time(self) -> float:
        return self.reply - self.sent

    @property
    def lag(self) -> float:
        """How late the generator released this request, seconds."""
        return self.queued - self.due


@dataclass
class PhaseResult:
    """Everything one fixed-rate phase observed."""

    rate: float
    duration: float
    exchanges: List[Exchange] = field(default_factory=list)

    @property
    def sent(self) -> int:
        return sum(1 for e in self.exchanges if not math.isnan(e.sent))

    @property
    def succeeded(self) -> int:
        return sum(1 for e in self.exchanges if e.ok)

    @property
    def failed(self) -> int:
        return len(self.exchanges) - self.succeeded


def even_schedule(rate: float, duration: float,
                  documents: Sequence[Dict[str, Any]]
                  ) -> List[Scheduled]:
    """``documents`` due evenly at ``rate`` per second from offset 0.

    Uses as many documents as fit in ``duration`` seconds; raises if
    there are too few.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    count = int(round(rate * duration))
    if count > len(documents):
        raise ValueError(f"schedule needs {count} documents, "
                         f"got {len(documents)}")
    return [(index / rate, documents[index]) for index in range(count)]


async def run_phase(schedule: Sequence[Scheduled],
                    roundtrips: Sequence[Roundtrip],
                    rate: float, duration: float) -> PhaseResult:
    """Drive one open-loop phase; one sender task per roundtrip.

    Times are the running loop's clock; the generator sleeps until
    each due time and never waits for replies.
    """
    now = asyncio.get_running_loop().time
    result = PhaseResult(rate=rate, duration=duration)
    queue: "asyncio.Queue[Optional[Exchange]]" = asyncio.Queue()
    start = now()

    async def generator() -> None:
        for offset, document in schedule:
            due = start + offset
            delay = due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            exchange = Exchange(document=document, due=due)
            exchange.queued = now()
            result.exchanges.append(exchange)
            queue.put_nowait(exchange)
        for _ in roundtrips:
            queue.put_nowait(None)

    async def sender(roundtrip: Roundtrip) -> None:
        while True:
            exchange = await queue.get()
            if exchange is None:
                return
            exchange.sent = now()
            try:
                response = await roundtrip(exchange.document)
            except (ConnectionError, asyncio.IncompleteReadError,
                    OSError, ValueError):
                exchange.reply = now()
                continue
            exchange.reply = now()
            exchange.response = response
            exchange.ok = bool(response.get("ok"))

    tasks = [asyncio.ensure_future(generator())]
    tasks.extend(asyncio.ensure_future(sender(rt)) for rt in roundtrips)
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
    return result


def backlog_grew(exchanges: Sequence[Exchange],
                 slack: float = 0.010) -> bool:
    """Whether the send queue kept growing through a phase.

    Compares the median send wait of the last quarter of requests
    (by due time) with the first quarter; a backlog that is draining
    or steady keeps them within ``slack`` seconds of each other.
    A failed request counts as an infinite wait.
    """
    ordered = sorted(exchanges, key=lambda e: e.due)
    quarter = len(ordered) // 4
    if quarter < 1:
        return False

    def median_wait(part: Sequence[Exchange]) -> float:
        waits = sorted(e.send_wait if e.ok else math.inf for e in part)
        return waits[len(waits) // 2]

    return median_wait(ordered[-quarter:]) \
        > median_wait(ordered[:quarter]) + slack


class HttpConnection:
    """One keep-alive ``POST /query`` / ``GET`` connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _ensure(self) -> Tuple[asyncio.StreamReader,
                                     asyncio.StreamWriter]:
        if self._writer is None or self._reader is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
        return self._reader, self._writer

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> Tuple[int, bytes]:
        reader, writer = await self._ensure()
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        try:
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
            status_line = await reader.readline()
            if not status_line:
                raise ConnectionError("server closed the connection")
            status = int(status_line.split()[1])
            length = 0
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n"):
                    break
                if not raw:
                    raise ConnectionError("truncated response headers")
                name, _, value = raw.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            payload = await reader.readexactly(length)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            await self.close()
            raise
        return status, payload

    async def query(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """One query exchange; the decoded JSON response."""
        _, payload = await self.request(
            "POST", "/query", json.dumps(document).encode("utf-8"))
        return json.loads(payload)

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
