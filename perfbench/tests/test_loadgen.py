import asyncio
import json
import math
import time

import pytest

from perfbench import loadgen
from perfbench.serve import check_ping_reply, check_rest_reply

TYPES = ["uberX", "uberBLACK"]


def reply(cars=1, multiplier=1.0, car_id="c1", types=TYPES):
    return json.dumps(
        {
            "statuses": [
                {
                    "type": t,
                    "cars": [{"id": car_id}] * cars,
                    "surge_multiplier": multiplier,
                }
                for t in types
            ]
        }
    ).encode()


class StallingServer:
    """Answers one request at a time, like one WebSocket connection;
    request ``stall_at`` takes ``stall_s`` to answer."""

    def __init__(self, stall_at, stall_s):
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.lock = asyncio.Lock()

    async def issue(self, seq):
        async with self.lock:
            await asyncio.sleep(self.stall_s if seq == self.stall_at else 0.001)
        return loadgen.OK, b"{}"


def test_open_loop_keeps_sending_while_the_server_stalls():
    server = StallingServer(stall_at=2, stall_s=0.3)
    offsets = [i * 0.01 for i in range(20)]
    requests = asyncio.run(loadgen.open_loop(offsets, server.issue, 5.0))
    assert [r.seq for r in requests] == list(range(20))
    assert all(r.status == loadgen.OK for r in requests)
    # The generator itself stayed on schedule ...
    assert max(r.late for r in requests) < 0.1
    # ... so every request queued behind the stall counts its wait from
    # when it was due, not from when a closed loop would have sent it.
    stall_end = requests[2].done
    for r in requests[3:]:
        assert r.latency >= stall_end - r.due - 1e-3
    assert requests[3].latency > 0.2
    assert all(r.latency >= r.done - r.sent for r in requests)


def test_a_blocked_generator_reports_how_late_it_ran():
    async def issue(seq):
        if seq == 4:
            time.sleep(0.2)  # blocks the generator's own event loop
        return loadgen.OK, b"{}"

    offsets = [i * 0.01 for i in range(15)]
    requests = asyncio.run(loadgen.open_loop(offsets, issue, 5.0))
    late = [r.late for r in requests]
    assert max(late[:4]) < 0.1
    # Requests due during the block went out late; the lateness is part
    # of their latency because latency counts from the due time.
    assert late[5] > 0.1
    for r in requests:
        assert r.latency >= r.late


def test_serial_open_loop_counts_queueing_from_due_time():
    async def issue(seq):
        await asyncio.sleep(0.05)
        return loadgen.OK, b"{}"

    offsets = [0.0, 0.01, 0.02]
    requests = asyncio.run(loadgen.serial_open_loop(offsets, issue, 5.0))
    # Each waits for the one before: the third was due at 0.02 s but
    # could only go out after ~0.1 s.
    assert requests[2].late > 0.05
    assert requests[2].latency > 0.1


def test_failed_ratio_counts_refusals_timeouts_and_malformed_replies():
    bodies = {
        0: (200, reply()),
        1: (429, b'{"error":"rate_limited"}'),
        2: None,  # never answers: times out
        3: (200, reply(cars=9)),  # more than eight cars
        4: (200, reply()),
        5: (503, b""),
    }

    async def issue(seq):
        answer = bodies[seq]
        if answer is None:
            await asyncio.sleep(10.0)
        status, body = answer
        if status != 200:
            return check_rest_reply(status, body, "times"), body
        return check_ping_reply(body, TYPES), body

    offsets = [0.0] * len(bodies)
    requests = asyncio.run(loadgen.open_loop(offsets, issue, timeout_s=0.2))
    statuses = [r.status for r in requests]
    assert statuses == [
        "ok", "refused", "timeout", "malformed", "ok", "refused",
    ]
    assert loadgen.failed_ratio(requests) == 4 / 6
    # A failed request misses every latency limit.
    assert all(
        math.isinf(r.latency) == (r.status != loadgen.OK) for r in requests
    )


def test_median_rate_is_robust_to_a_stall_and_skips_failures():
    def done(at, status=loadgen.OK):
        return loadgen.Request(0, 0.0, done=at, status=status)

    # 101 answers 10 ms apart (100/s), one 2 s stall in the middle, and
    # failures that must not count.
    times = [i * 0.01 for i in range(101)]
    times = times[:50] + [t + 2.0 for t in times[50:]]
    requests = [done(t) for t in times] + [done(0.5, "timeout")] * 30
    assert loadgen.median_rate(requests) == pytest.approx(100.0)
    mean_rate = 100 / (times[-1] - times[0])
    assert mean_rate < 40


def test_median_rate_needs_enough_answers():
    with pytest.raises(ValueError):
        loadgen.median_rate([loadgen.Request(0, 0.0, done=1.0, status="ok")])


def test_ping_reply_checks():
    assert check_ping_reply(reply(cars=8), TYPES) == loadgen.OK
    assert check_ping_reply(reply(cars=9), TYPES) == "malformed"
    assert check_ping_reply(reply(car_id=""), TYPES) == "malformed"
    assert check_ping_reply(reply(multiplier=0.9), TYPES) == "malformed"
    assert check_ping_reply(reply(types=TYPES[:1]), TYPES) == "malformed"
    assert check_ping_reply(b"not json", TYPES) == "malformed"
    assert check_ping_reply(b'{"error":"bad_request"}', TYPES) == "malformed"


def test_closed_loop_sends_next_request_on_reply():
    in_flight = []

    def issuer(name):
        async def issue(seq):
            in_flight.append(name)
            assert in_flight.count(name) == 1
            await asyncio.sleep(0.005)
            in_flight.remove(name)
            return loadgen.OK, b"{}"

        return issue

    requests, wall = asyncio.run(
        loadgen.closed_loop([issuer("a"), issuer("b")], 0.1, 1.0)
    )
    assert wall >= 0.1
    assert len(requests) >= 4
    assert len({r.seq for r in requests}) == len(requests)


def test_pipelined_connection_matches_replies_in_order():
    async def main():
        outgoing = asyncio.Queue()

        async def write(text):
            await outgoing.put(text)

        async def read():
            text = await outgoing.get()
            await asyncio.sleep(0.001)
            return "re:" + text

        conn = loadgen.PipelinedConnection(write, read)
        replies = await asyncio.gather(
            *(conn.request(str(i)) for i in range(5))
        )
        await conn.aclose()
        return replies

    assert asyncio.run(main()) == [f"re:{i}" for i in range(5)]
