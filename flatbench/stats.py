"""Latency statistics, failure accounting and metric printing."""

import math
import statistics

# A tail percentile is reported only with at least this many samples
# beyond it.
MIN_BEYOND = 10


def nearest_rank(sorted_values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of ascending values, and
    the number of samples strictly beyond its rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q * n))
    return sorted_values[rank - 1], n - rank


def tail_percentile(values, q):
    """(value, samples beyond, sample count) of the q-quantile, or None
    when fewer than MIN_BEYOND samples lie beyond it."""
    if not values:
        return None
    value, beyond = nearest_rank(sorted(values), q)
    if beyond < MIN_BEYOND:
        return None
    return value, beyond, len(values)


def median(values):
    return statistics.median(values) if values else 0.0


class Tally:
    """Attempted and failed requests. Each request counts once, however
    many of its checks fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, label, error=None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.reasons.append(f"{label}: {error}")

    @property
    def failed_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


class Metrics:
    """Named metrics with units, printed one per line and as the result
    object's "metrics" member."""

    def __init__(self):
        self._items = {}
        self._notes = {}

    def add(self, name, value, unit, note=""):
        if name in self._items:
            raise ValueError(f"metric {name} reported twice")
        self._items[name] = {"value": float(value), "unit": unit}
        if note:
            self._notes[name] = note

    def names(self):
        return list(self._items)

    def lines(self, prefix):
        for name, item in self._items.items():
            note = self._notes.get(name)
            text = f"{prefix} {name} = {item['value']:.6g} {item['unit']}"
            yield f"{text}  ({note})" if note else text

    def as_dict(self):
        return dict(self._items)
