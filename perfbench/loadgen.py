"""Open- and closed-loop request generators for the service workload.

The open loop sends each request when it is *due*, whether or not
earlier ones have been answered, and times it from that due time, so
a server stall shows up in every request queued behind it.  How late
the generator itself sent each request is kept too: a generator that
falls behind would otherwise hide the server's delay.

Requests are issued through an ``issue(seq) -> (status, body)``
coroutine, so the accounting can be tested against fake servers.
Statuses other than ``"ok"`` count as failed: ``"refused"`` (429 or
5xx), ``"timeout"``, ``"malformed"`` and ``"error"`` (connection lost).
A failed request also counts as missing any latency limit: its latency
is infinite.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import math
import statistics
import time
from typing import (
    Awaitable,
    Callable,
    Deque,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: ``issue(seq)`` sends request *seq* and returns its status and body.
Issue = Callable[[int], Awaitable[Tuple[str, bytes]]]

OK = "ok"

clock = time.perf_counter


@dataclasses.dataclass
class Request:
    seq: int
    due: float
    sent: float = math.nan
    done: float = math.nan
    status: str = "pending"
    body: bytes = b""

    @property
    def latency(self) -> float:
        """Seconds from due to answered; infinite unless it succeeded."""
        return self.done - self.due if self.status == OK else math.inf

    @property
    def late(self) -> float:
        """Seconds the generator sent this request after it was due."""
        return self.sent - self.due


async def _complete(request: Request, issue: Issue, timeout_s: float) -> None:
    try:
        status, body = await asyncio.wait_for(
            issue(request.seq), timeout_s
        )
    except asyncio.TimeoutError:
        status, body = "timeout", b""
    except (ConnectionError, OSError, asyncio.IncompleteReadError):
        status, body = "error", b""
    request.done = clock()
    request.status = status
    request.body = body


async def open_loop(
    offsets_s: Sequence[float], issue: Issue, timeout_s: float
) -> List[Request]:
    """Send request *i* at ``start + offsets_s[i]``."""
    start = clock()
    requests: List[Request] = []
    tasks = []
    for i, offset in enumerate(offsets_s):
        due = start + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        request = Request(i, due)
        request.sent = clock()
        requests.append(request)
        tasks.append(
            asyncio.create_task(_complete(request, issue, timeout_s))
        )
    await asyncio.gather(*tasks)
    return requests


async def serial_open_loop(
    offsets_s: Sequence[float], issue: Issue, timeout_s: float
) -> List[Request]:
    """One request at a time on a schedule: a request due while the
    previous one is outstanding is sent when it completes, and its
    latency still counts from its due time."""
    start = clock()
    requests: List[Request] = []
    for i, offset in enumerate(offsets_s):
        due = start + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        request = Request(i, due)
        request.sent = clock()
        requests.append(request)
        await _complete(request, issue, timeout_s)
    return requests


async def closed_loop(
    issuers: Sequence[Issue],
    duration_s: float,
    timeout_s: float,
    first_seq: int = 0,
) -> Tuple[List[Request], float]:
    """Each issuer sends its next request when the previous is answered.

    Returns the requests and the wall time they took; a request that
    fails ends its issuer's loop.
    """
    start = clock()
    end = start + duration_s
    requests: List[Request] = []
    seqs = iter(range(first_seq, 1 << 62))

    async def drive(issue: Issue) -> None:
        while clock() < end:
            now = clock()
            request = Request(next(seqs), now, sent=now)
            requests.append(request)
            await _complete(request, issue, timeout_s)
            if request.status != OK:
                return

    await asyncio.gather(*(drive(issue) for issue in issuers))
    return requests, clock() - start


#: Groups the closed-loop completions are split into for a median rate.
RATE_GROUPS = 10


def median_rate(requests: Sequence[Request]) -> float:
    """Median rate of answered requests over consecutive equal groups.

    The completions of requests answered well are split into
    :data:`RATE_GROUPS` consecutive groups of equal count; each group's
    rate is its count over the time from the previous completion to its
    last, so a stall in one part of the phase moves one group only.
    """
    done = sorted(r.done for r in requests if r.status == OK)
    size = (len(done) - 1) // RATE_GROUPS
    if size < 1:
        raise ValueError("too few answered requests for a rate")
    return statistics.median(
        size / (done[i + size] - done[i])
        for i in range(0, size * RATE_GROUPS, size)
    )


def failed_ratio(requests: Sequence[Request]) -> float:
    """Requests not answered well, over requests attempted."""
    if not requests:
        return 0.0
    return sum(r.status != OK for r in requests) / len(requests)


class PipelinedConnection:
    """Many requests in flight on one ordered stream (a WebSocket).

    ``send`` writes a request and returns a future for its reply; a
    reader task hands replies to futures in the order requests were
    written, which is the order the server answers one connection in.
    """

    def __init__(
        self,
        write: Callable[[str], Awaitable[None]],
        read: Callable[[], Awaitable[str]],
    ) -> None:
        self._write = write
        self._read = read
        self._waiting: Deque["asyncio.Future[str]"] = collections.deque()
        self._reader: Optional["asyncio.Task[None]"] = None

    async def request(self, text: str) -> str:
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[str]" = loop.create_future()
        self._waiting.append(future)
        if self._reader is None:
            self._reader = loop.create_task(self._read_loop())
        await self._write(text)
        return await future

    async def _read_loop(self) -> None:
        try:
            while True:
                reply = await self._read()
                future = self._waiting.popleft()
                if not future.done():
                    future.set_result(reply)
        except (ConnectionError, OSError, asyncio.IncompleteReadError,
                IndexError) as exc:
            while self._waiting:
                future = self._waiting.popleft()
                if not future.done():
                    future.set_exception(ConnectionError(str(exc)))

    async def aclose(self) -> None:
        if self._reader is not None:
            self._reader.cancel()
            try:
                await self._reader
            except asyncio.CancelledError:
                pass
            self._reader = None
