"""The dispatch journal's on-disk format, pinned by a committed file.

``fixtures/journal_format.bin`` is what :func:`write` produces: one
journal holding every event kind, values of the types JSON could not
keep (a tuple, an int-keyed dict, ``bytes``, a set) and both record
shapes — one event per ``append``, a result frame per ``extend``.
``tests/runtime/test_supervision.py`` reads it back on every Python the
project supports and checks this code still writes the same bytes.
Re-record only for an intended format change::

    PYTHONPATH=src python -m tests.runtime.journal_format
"""

import os

from repro.runtime.supervision import DispatchJournal

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "journal_format.bin")

#: (method, events) per record, in file order
RECORDS = [
    ("append", [{"ev": "open", "name": "f", "backend": "thread", "fn": "m:f", "epoch": 0}]),
    ("append", [{"ev": "worker", "wid": 0, "quarantined": False, "secured": False}]),
    ("append", [{"ev": "worker", "wid": 1, "quarantined": True, "secured": False}]),
    ("append", [{"ev": "submit", "sid": 0, "p": (1, 2)}]),
    ("append", [{"ev": "submit", "sid": 1, "p": {1: "a"}, "tenant": "acme"}]),
    ("append", [{"ev": "submit", "sid": 2, "p": b"\x00\xff"}]),
    ("append", [{"ev": "submit", "sid": 3, "p": [1.5, None, True, "é"]}]),
    (
        "extend",
        [
            {"ev": "complete", "sid": 0, "ok": True, "v": {1, 2}},
            {"ev": "complete", "sid": 1, "ok": False, "err": "ValueError: bad"},
        ],
    ),
    ("append", [{"ev": "admit", "wid": 1}]),
    ("append", [{"ev": "secure_all"}]),
    ("append", [{"ev": "contract", "c": {"kind": "best_effort"}}]),
    ("append", [{"ev": "epoch", "epoch": 1}]),
    ("extend", [{"ev": "complete", "sid": 2, "ok": True, "v": b"\x00\xff"}]),
    ("append", [{"ev": "remove", "wid": 0}]),
]

#: what ``read_journal`` returns for the fixture
EVENTS = [
    {**event, "seq": seq}
    for seq, event in enumerate(event for _, events in RECORDS for event in events)
]


def write(path: str) -> None:
    """Write :data:`RECORDS` as a fresh journal at ``path``."""
    journal = DispatchJournal(path)
    try:
        for method, events in RECORDS:
            if method == "append":
                journal.append(events[0])
            else:
                journal.extend(events)
    finally:
        journal.close()


if __name__ == "__main__":
    if os.path.exists(FIXTURE):
        os.unlink(FIXTURE)
    write(FIXTURE)
    print(f"wrote {FIXTURE} ({os.path.getsize(FIXTURE)} bytes)")
