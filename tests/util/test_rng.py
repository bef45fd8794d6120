"""Tests for repro.util.rng."""

import numpy as np
import pytest

from repro.util.rng import as_generator, derive_seed, spawn, spawn_many


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_reproducible(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).random(5)
        b = as_generator(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        gen = as_generator(seq)
        assert isinstance(gen, np.random.Generator)

    def test_numpy_integer_seed(self):
        gen = as_generator(np.int64(5))
        assert isinstance(gen, np.random.Generator)

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            as_generator("not-a-seed")


class TestSpawn:
    def test_spawn_many_count(self):
        children = spawn_many(as_generator(0), 4)
        assert len(children) == 4

    def test_spawn_many_zero(self):
        assert spawn_many(as_generator(0), 0) == []

    def test_spawn_many_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_many(as_generator(0), -1)

    def test_children_are_reproducible_from_parent_seed(self):
        a = [g.random() for g in spawn_many(as_generator(9), 3)]
        b = [g.random() for g in spawn_many(as_generator(9), 3)]
        assert a == b

    def test_children_streams_differ(self):
        children = spawn_many(as_generator(3), 2)
        assert children[0].random(4).tolist() != children[1].random(4).tolist()

    def test_spawn_single(self):
        child = spawn(as_generator(1))
        assert isinstance(child, np.random.Generator)

    def test_repeated_spawns_differ(self):
        parent = as_generator(5)
        first = spawn(parent).random(3)
        second = spawn(parent).random(3)
        assert not np.array_equal(first, second)


def test_derive_seed_in_range():
    seed = derive_seed(as_generator(0))
    assert 0 <= seed < 2**63
