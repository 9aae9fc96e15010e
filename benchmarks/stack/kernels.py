"""Task kernels the benchmark farms run.

Module-level so worker subprocesses resolve them by import path
(``kernels:echo``); the harness's own directory rides on the children's
``PYTHONPATH`` because the farms hand ``sys.path`` down.
"""

import time

#: every task of ``sleep_square`` blocks this long (core-neutral work)
SLEEP_S = 0.02


def echo(payload):
    """Zero-work kernel: (task index, sum of the payload)."""
    return payload[0], sum(payload)


def bulk(payload):
    """64 KiB in, a few bytes out: (task index, len, first, last)."""
    index, body = payload
    return index, len(body), body[0], body[-1]


def sleep_square(payload):
    """The paper's fixed-cost task as a sleep: (task index, value²)."""
    index, value = payload
    time.sleep(SLEEP_S)
    return index, value * value


def echo_corrupting(payload):
    """``echo`` with 1% wrong sums — only for ``--selftest-bad-kernel``."""
    index, total = echo(payload)
    return index, total + (index % 100 == 0)
