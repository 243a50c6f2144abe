"""Keyed substream derivation for reproducible parallel Monte Carlo.

Every task draws from an SFC64 generator seeded, through SeedSequence, by a
digest of (master seed, task kind, task index), so results never depend on
scheduling or worker count.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _generator(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))


def substream(master_seed: int, kind: str, index: int = 0) -> np.random.Generator:
    """Return an independent generator for one named task.

    The key is a 128-bit blake2b digest of ``kind:index`` keyed by the master
    seed; SeedSequence spreads it over SFC64's 256-bit state, so a stream
    depends on (master seed, kind, index) alone, on any platform and in any
    process.
    """
    seed_bytes = int(master_seed).to_bytes(16, "little", signed=False)
    digest = hashlib.blake2b(
        f"{kind}:{index}".encode(), digest_size=16, key=seed_bytes
    ).digest()
    return _generator(int.from_bytes(digest, "little"))


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive n child generators from rng deterministically."""
    return [_generator(int(k))
            for k in rng.integers(0, 2**63, size=n, dtype=np.int64)]


def parallel_map(fn, n_tasks: int, threads: int) -> list:
    """Index-ordered map over range(n_tasks); results are identical for any
    worker count as long as each task only uses its own pre-derived stream."""
    if threads <= 1 or n_tasks <= 1:
        return [fn(i) for i in range(n_tasks)]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_tasks)))
