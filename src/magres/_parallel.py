"""Ordered map over independent sector solves."""


def pmap(fn, items):
    """[fn(x) for x in items], in input order.

    Serial by measurement: the sector solves are small and mostly hold the
    GIL, so a thread pool ran them slower than one thread on every
    benchmark workload. The function stays as the single seam through which
    every sector batch passes, which the benchmark trace wraps.
    """
    return [fn(x) for x in items]
