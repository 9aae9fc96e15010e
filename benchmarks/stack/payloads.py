"""Seeded task streams and the reference each result is checked against.

The legacy benches submit one payload object 100k times, so pickle's
memo turns 31 of every 32 payloads in a ``task_batch`` into a two-byte
back-reference and the bench measures the memo, not the wire.  Every
stream here hands out a *distinct object* per task within any 64-task
window (``assert_no_memo`` checks it); the program sees only these
generated inputs, and the same seed generates the same ones.
"""

import random

BULK_BYTES = 64 * 1024
BULK_POOL = 512
MEMO_WINDOW = 64


class Stream:
    """``payloads[i]`` is task i; ``expected[i]`` is what task i must return.

    Every kernel returns ``(i, *answer)``, so a result names its task and
    the drain side can account for it exactly once.
    """

    def __init__(self, payloads, expected):
        self.payloads = payloads
        self.expected = expected

    def __len__(self):
        return len(self.payloads)


def echo_stream(seed, n):
    """8-int tuples ``(i, r1..r7)``; the echo kernel returns ``(i, sum)``."""
    raw = random.Random(seed).randbytes(7 * n)
    payloads = [(i, *raw[7 * i : 7 * i + 7]) for i in range(n)]
    return Stream(payloads, [(sum(p),) for p in payloads])


def bulk_pool(seed):
    """512 distinct 64 KiB buffers; byte 0 and byte -1 name the buffer."""
    rng = random.Random(seed)
    pool = []
    for k in range(BULK_POOL):
        body = bytearray(rng.randbytes(BULK_BYTES))
        body[0] = k & 0xFF
        body[-1] = k >> 8
        pool.append(bytes(body))
    return pool


def bulk_stream(pool, n):
    """``(i, buffer)`` pairs cycling through the pool; the bulk kernel
    returns ``(i, len, first, last)``.  A buffer recurs only every 512
    tasks, far outside any batch."""
    payloads = [(i, pool[i % len(pool)]) for i in range(n)]
    expected = [(BULK_BYTES, (i % len(pool)) & 0xFF, (i % len(pool)) >> 8) for i in range(n)]
    return Stream(payloads, expected)


def sleep_stream(seed, n):
    """``(i, value)`` pairs; the sleep kernel returns ``(i, value²)``."""
    rng = random.Random(seed)
    values = [rng.randrange(1 << 20) for _ in range(n)]
    return Stream([(i, v) for i, v in enumerate(values)], [(v * v,) for v in values])


def assert_no_memo(payloads, window=MEMO_WINDOW):
    """No object — payload or buffer inside it — repeats within any
    ``window`` consecutive tasks, so a pickled batch carries every
    payload in full."""
    last_seen = {}
    for i, payload in enumerate(payloads):
        parts = [payload] + [p for p in payload if isinstance(p, (bytes, tuple, list))]
        for part in parts:
            before = last_seen.get(id(part))
            if before is not None and i - before < window:
                raise AssertionError(
                    f"payload object of task {before} recurs at task {i}: "
                    "pickle would memoise it"
                )
            last_seen[id(part)] = i


def self_test(stream):
    """Guard against the legacy benches' mistake coming back: no payload
    object of ``stream`` recurs inside a 64-task window, and a pickled
    32-entry ``task_batch`` of its payloads is no smaller than the
    payloads' own bytes — the codec memoised nothing."""
    from repro.runtime.dist_proto import encode_frame_v4

    assert_no_memo(stream.payloads)
    batch = [{"task_id": i, "payload": p} for i, p in enumerate(stream.payloads[:32])]
    frame = encode_frame_v4({"type": "task_batch", "tasks": batch}, codec="pickle")
    body = sum(len(part) for p in stream.payloads[:32] for part in p if isinstance(part, bytes))
    if len(frame) < body:
        raise AssertionError(
            f"a task_batch of {body} payload bytes pickled to {len(frame)} B: "
            "the codec memoised payloads"
        )
