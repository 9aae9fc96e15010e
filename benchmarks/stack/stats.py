"""How the harness reports a timing: median, a supported tail, and n."""

import statistics

#: tail percentiles tried, highest first
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(ordered, pct):
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def supported_tail(n):
    """The highest percentile with at least ten samples beyond it."""
    for pct in _TAILS:
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return None


def summary(values):
    """Median, the highest supported tail percentile, max and n."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "median": 0.0, "tail_pct": None, "tail": None, "max": 0.0}
    tail_pct = supported_tail(n)
    return {
        "n": n,
        "median": statistics.median(ordered),
        "tail_pct": tail_pct,
        "tail": percentile(ordered, tail_pct) if tail_pct is not None else None,
        "max": ordered[-1],
    }
