"""Deterministic fan-out helper: results always come back in input order."""

from __future__ import annotations

from collections.abc import Callable, Sequence


def ordered_map(fn: Callable, items: Sequence, jobs: int | None = None) -> list:
    """Apply a pure function to every item, optionally on a thread pool.

    jobs=None or 1 runs inline; only jobs > 1 starts (and imports) a thread
    pool.  Output order is the input order either way, so callers are
    scheduling-independent.
    """
    workers = 1 if jobs is None else jobs
    if workers < 1:
        raise ValueError(f"jobs must be >= 1, got {workers}")
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
