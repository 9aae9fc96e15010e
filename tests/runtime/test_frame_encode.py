"""How a v4 frame is encoded, and what a coordinator does with a window
that will not encode.

* *byte identity*: every frame is the header packed in front of the
  codec's body — for pickle exactly ``pickle.dumps(body,
  HIGHEST_PROTOCOL)``, encrypted whole on a secured channel — for bulk
  batches, echo batches and single tasks alike, and decodes back to
  its message;
* *copy once*: encoding a 2 MB bulk batch allocates the frame and
  little else — the payloads are not copied into an intermediate body;
* *an unencodable window*: a task whose payload the session codec
  refuses fails alone, as an error result, and its window-mates (and
  the farm) carry on — on the dist and the process farm alike, and
  for a batch that is only too big as a whole.
"""

import array
import io
import pickle
import threading
import tracemalloc

import pytest

from repro.runtime import dist_proto
from repro.runtime.dist_farm import DistFarm
from repro.runtime.dist_proto import (
    _HEADER,
    FLAG_ENC,
    FRAME_IDS,
    MAGIC_V4,
    SECRET,
    encode_frame_v4,
    read_frame_blocking,
)
from repro.runtime.process_farm import ProcessFarm
from repro.security.crypto import encrypt

KIB = 1024


def bulk_batch(n=32, size=64 * KIB):
    return {
        "type": "task_batch",
        "tasks": [
            {"task_id": i, "payload": bytes([i % 256]) * size} for i in range(n)
        ],
    }


def echo_batch(n=32):
    return {
        "type": "task_batch",
        "tasks": [{"task_id": i, "payload": list(range(i, i + 8))} for i in range(n)],
    }


MESSAGES = {
    "bulk": bulk_batch,
    "one-mib-payload": lambda: {
        "type": "task_batch",
        "tasks": [
            {"task_id": 1, "payload": b"\x07" * KIB * KIB},
            {"task_id": 2, "payload": [1, 2, 3]},
        ],
        "traced": True,
    },
    "echo": echo_batch,
    "single-task": lambda: {"type": "task", "task_id": 7, "payload": (3, "x", 0.5)},
}


#: payloads pickle hands to ``write`` as a ``PickleBuffer``, which has no
#: ``len``: writable, read-only, and with items wider than a byte
PICKLE_BUFFERS = {
    "bytearray": lambda: pickle.PickleBuffer(bytearray(b"\x03" * 128 * KIB)),
    "bytes": lambda: pickle.PickleBuffer(b"\x04" * 128 * KIB),
    "doubles": lambda: pickle.PickleBuffer(array.array("d", range(16 * KIB))),
}


def reference_frame(message, *, secured=False):
    """The frame as the header in front of ``pickle.dumps`` of the body."""
    body = pickle.dumps(
        {k: v for k, v in message.items() if k != "type"},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    flags = 1  # pickle
    if secured:
        body = encrypt(SECRET, body)
        flags |= FLAG_ENC
    return _HEADER.pack(MAGIC_V4, FRAME_IDS[message["type"]], flags, len(body)) + body


def decoded(frame):
    return read_frame_blocking(io.BytesIO(frame))


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(MESSAGES))
    def test_pickle_frame_is_header_plus_dumps(self, name):
        message = MESSAGES[name]()
        frame = encode_frame_v4(message, codec="pickle")
        assert frame == reference_frame(message)
        assert decoded(frame) == pickle.loads(pickle.dumps(message))

    @pytest.mark.parametrize("name", sorted(PICKLE_BUFFERS))
    def test_a_pickle_buffer_payload_is_framed_as_dumps_frames_it(self, name):
        buffer = PICKLE_BUFFERS[name]()
        message = {"type": "task", "task_id": 1, "payload": buffer}
        frame = encode_frame_v4(message, codec="pickle")
        assert frame == reference_frame(message)
        assert decoded(frame)["payload"] == memoryview(buffer).tobytes()

    def test_secured_frame_is_header_plus_encrypted_dumps(self):
        message = bulk_batch(n=4, size=4 * KIB)
        frame = encode_frame_v4(message, codec="pickle", secured=True)
        assert frame == reference_frame(message, secured=True)
        assert decoded(frame) == message

    def test_json_frame_is_header_plus_compact_json(self):
        message = echo_batch(n=3)
        frame = encode_frame_v4(message)
        body = b'{"tasks":[' + b",".join(
            b'{"task_id":%d,"payload":[%s]}'
            % (i, b",".join(b"%d" % v for v in range(i, i + 8)))
            for i in range(3)
        ) + b"]}"
        assert frame == _HEADER.pack(MAGIC_V4, FRAME_IDS["task_batch"], 0, len(body)) + body
        assert decoded(frame) == message


def test_a_bulk_frame_is_allocated_once():
    message = bulk_batch()
    encode_frame_v4(message, codec="pickle")  # warm any lazy state
    tracemalloc.start()
    try:
        frame = encode_frame_v4(message, codec="pickle")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(frame) > 2 * KIB * KIB
    assert peak <= 1.1 * len(frame), f"peak {peak / len(frame):.2f}x the frame"


def test_a_secured_bulk_frame_peaks_at_three_frames():
    """The body, its ciphertext and the ciphertext with its tag: the
    cipher adds no copy of its own that scales with the frame."""
    message = bulk_batch()
    encode_frame_v4(message, codec="pickle", secured=True)
    tracemalloc.start()
    try:
        frame = encode_frame_v4(message, codec="pickle", secured=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(frame) > 2 * KIB * KIB
    assert peak <= 3.1 * len(frame), f"peak {peak / len(frame):.2f}x the frame"


# ----------------------------------------------------------------------
# a window the session codec refuses
# ----------------------------------------------------------------------
def head(payload):
    """The first element of a sequence or the length of bytes."""
    if isinstance(payload, bytes):
        return len(payload)
    return payload[0]


def dist_farm():
    return DistFarm(
        head,
        initial_workers=1,
        max_inflight=8,
        heartbeat_period=0.05,
        heartbeat_timeout=5.0,
        supervise_period=0.02,
        backoff_base=0.02,
        backoff_cap=0.2,
    )


def process_farm():
    return ProcessFarm(
        head,
        initial_workers=1,
        heartbeat_period=0.05,
        heartbeat_timeout=5.0,
        supervise_period=0.02,
        backoff_base=0.02,
        backoff_cap=0.2,
    )


FARMS = {"dist": dist_farm, "process": process_farm}


def submit_as_one_window(farm, payloads):
    """Submit ``payloads`` so the next fill pass sees them all at once:
    the pass runs on the loop thread and waits for the farm lock."""
    with farm._lock:
        for payload in payloads:
            farm.submit(payload)


@pytest.mark.parametrize("backend", sorted(FARMS))
def test_an_unpicklable_payload_fails_alone(backend):
    farm = FARMS[backend]()
    try:
        farm.submit((0,))
        assert farm.drain_results(1, timeout=30.0) == [0]  # the worker serves
        submit_as_one_window(farm, [(2, 3, 4), (1, threading.Lock()), (5,)])
        results = farm.drain_results(3, timeout=10.0)
        errors = [r for r in results if isinstance(r, Exception)]
        assert sorted(r for r in results if not isinstance(r, Exception)) == [2, 5]
        assert len(errors) == 1
        assert isinstance(errors[0], RuntimeError)
        assert "pickle" in str(errors[0]) and "lock" in str(errors[0])
        farm.submit((6,))
        assert farm.drain_results(1, timeout=10.0) == [6]
        assert not any(w.outstanding for w in farm.workers)
        assert farm.dead_letters == []
    finally:
        farm.shutdown()


@pytest.mark.parametrize("backend", sorted(FARMS))
def test_a_window_too_big_as_one_frame_goes_out_task_by_task(backend, monkeypatch):
    monkeypatch.setattr(dist_proto, "MAX_FRAME", 300 * KIB)
    farm = FARMS[backend]()
    try:
        farm.submit((0,))
        assert farm.drain_results(1, timeout=30.0) == [0]
        # three distinct objects: pickle would memoise one shared payload
        submit_as_one_window(farm, [bytes([i]) * 200 * KIB for i in range(3)])
        assert farm.drain_results(3, timeout=10.0) == [200 * KIB] * 3
    finally:
        farm.shutdown()
