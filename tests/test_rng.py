"""Keyed substreams: the bit generator, reproducibility and distinct streams;
the index-ordered fan-out."""

import itertools
import sys
import threading

import numpy as np
import pytest

from smoothtail.rng import parallel_map, spawn, substream

KINDS = ("validate", "spectrum", "solve-index", "simulate", "tails",
         "certificate", "o", "p")


def test_substream_and_spawn_are_sfc64():
    rng = substream(6101, "simulate", 3)
    assert isinstance(rng.bit_generator, np.random.SFC64)
    children = spawn(rng, 4)
    assert len(children) == 4
    assert all(isinstance(c.bit_generator, np.random.SFC64) for c in children)


def test_equal_keys_reproduce_the_draws():
    a, b = substream(6101, "certificate", 2), substream(6101, "certificate", 2)
    assert np.array_equal(a.standard_normal(100), b.standard_normal(100))
    assert np.array_equal(a.integers(0, 2**63, 50), b.integers(0, 2**63, 50))
    for x, y in zip(spawn(a, 5), spawn(b, 5)):
        assert np.array_equal(x.random(20), y.random(20))
    # the digest keys on the seed, the kind and the index alike
    first = substream(6101, "certificate", 2).random(8)
    for other in (substream(6102, "certificate", 2),
                  substream(6101, "tails", 2),
                  substream(6101, "certificate", 3)):
        assert not np.array_equal(first, other.random(8))


def _no_shared_draws(streams):
    # no two streams share any of their first 8 draws, so none repeats
    # another's opening either
    draws = [x for rng in streams
             for x in rng.integers(0, 2**63, 8, dtype=np.int64)]
    assert len(set(draws)) == len(draws)


def test_64_substreams_start_distinct():
    keys = list(itertools.product(KINDS, range(8)))
    assert len(keys) == 64
    _no_shared_draws(substream(6101, kind, i) for kind, i in keys)


def test_64_spawned_streams_start_distinct():
    _no_shared_draws(spawn(substream(6101, "certificate"), 64))


def test_parallel_map_runs_each_task_once_in_index_order():
    # more workers than cores and a short switch interval: a lost or doubled
    # claim of an index shows as a missing or repeated task
    calls = []
    caller = threading.get_ident()

    def task(i):
        calls.append((i, threading.get_ident()))
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (2, 3, 8):
            calls.clear()
            assert parallel_map(task, 500, threads) == [i * i for i in range(500)]
            assert sorted(i for i, _ in calls) == list(range(500))
            # task 0 runs on the calling thread, beside threads - 1 helpers
            assert dict(calls)[0] == caller
            assert len({ident for _, ident in calls}) <= threads
    finally:
        sys.setswitchinterval(interval)


def test_parallel_map_raises_a_task_error():
    def task(i):
        if i == 5:
            raise ValueError("task 5")
        return i

    with pytest.raises(ValueError, match="task 5"):
        parallel_map(task, 20, 2)
