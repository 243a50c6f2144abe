"""Keyed substreams: the bit generator, reproducibility and distinct streams."""

import itertools

import numpy as np

from smoothtail.rng import spawn, substream

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
