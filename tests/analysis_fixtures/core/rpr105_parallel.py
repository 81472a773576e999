"""RPR105 fixture: raw concurrency imports outside the parallel engine."""

import multiprocessing
from concurrent.futures import ThreadPoolExecutor


def spawn_pool() -> ThreadPoolExecutor:
    """Hand a fresh executor to the caller."""
    return ThreadPoolExecutor(max_workers=multiprocessing.cpu_count())
