"""Deterministic parallel map for independent sector solves.

LAPACK releases the GIL, so a thread pool parallelizes dense eigensolves.
MAGRES_THREADS caps the pool; results keep input order regardless.
"""

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ValidationError


def pmap(fn, items):
    items = list(items)
    if len(items) <= 1:
        return [fn(x) for x in items]
    env = os.environ.get("MAGRES_THREADS", "").strip()
    if env:
        workers = int(env) if env.isdecimal() else 0
        if workers < 1:
            raise ValidationError(
                f"MAGRES_THREADS must be a positive integer, got {env!r}")
    else:
        workers = min(8, os.cpu_count() or 1)
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))
