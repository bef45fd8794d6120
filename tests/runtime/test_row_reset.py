"""A learner row starts fresh, whether new or recycled.

A joining peer's recycled row is reset through one integer index (basic
indexing); a bulk acquire resets through an index array.  Both must
leave every per-slot array exactly as a fresh population has it, and
must draw the same random numbers.  A row never issued before is not
reset at all: growing a population creates its rows in the reset state,
and writes none of the regret tensor beyond the old rows.
"""

import copy
import os
import sys

import numpy as np
import pytest

from repro.core.population import LearnerPopulation
from repro.core.sparse_population import TopKPopulation
from repro.runtime.learner_bank import (
    RegretBank,
    StickyBank,
    TopKRegretBank,
    UniformBank,
    bank_factory,
)

HELPERS = 6
ROWS = 8


def make_bank(kind, dtype=np.float64, seed=0):
    if kind == "dense":
        return RegretBank(HELPERS, rng=seed, u_max=900.0, dtype=dtype)
    if kind == "topk":
        return TopKRegretBank(
            HELPERS, k=3, rng=seed, u_max=900.0, dtype=dtype, reselect_every=4
        )
    if kind == "sticky":
        return StickyBank(HELPERS, rng=seed, switch_probability=0.3)
    return UniformBank(HELPERS, rng=seed)


def play(bank, rows, rounds=24, seed=1):
    gen = np.random.default_rng(seed)
    for _ in range(rounds):
        actions = bank.act(rows)
        bank.observe(rows, actions, gen.random(rows.size) * 900.0)


def per_slot_arrays(population):
    """Every array attribute with one entry per slot."""
    capacity = population.num_peers
    return {
        name: value
        for name, value in vars(population).items()
        if isinstance(value, np.ndarray) and value.ndim and value.shape[0] == capacity
    }


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["dense", "topk"])
def test_reacquired_row_equals_a_fresh_row(kind, dtype):
    bank = make_bank(kind, dtype)
    rows = bank.acquire_many(ROWS)
    play(bank, rows)
    row = int(rows[3])
    fresh = per_slot_arrays(make_bank(kind, dtype, seed=9).population)
    played = per_slot_arrays(bank.population)
    assert set(played) == set(fresh)
    # Not vacuous: playing moved the row away from the fresh state.
    assert any(not np.array_equal(played[n][row], fresh[n][row]) for n in fresh)
    bank.release(row)
    assert bank.acquire() == row  # LIFO free-list: the same row comes back
    for name, array in per_slot_arrays(bank.population).items():
        assert np.array_equal(array[row], fresh[name][row]), name


@pytest.mark.parametrize("kind", ["dense", "topk"])
def test_integer_and_array_resets_agree_everywhere(kind):
    """The integer index resets every array the array index resets, and
    nothing else."""
    bank = make_bank(kind)
    rows = bank.acquire_many(ROWS)
    play(bank, rows)
    by_int = bank.population
    by_array = copy.deepcopy(by_int)
    by_int.reset_slots(int(rows[5]))
    by_array.reset_slots(np.array([rows[5]]))
    for name, value in vars(by_int).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, vars(by_array)[name]), name


@pytest.mark.parametrize("kind", ["dense", "topk", "sticky", "uniform"])
def test_single_acquire_replays_a_bulk_acquire(kind):
    """Twin banks: one re-acquires a released row through ``acquire``
    (integer reset), the other through ``acquire_many(1)`` (array
    reset).  Same row, same state, same generator position, same play."""
    twins = [make_bank(kind, seed=4), make_bank(kind, seed=4)]
    for bank in twins:
        rows = bank.acquire_many(ROWS)
        play(bank, rows)
        bank.release(int(rows[2]))
    single, bulk = twins
    row = single.acquire()
    assert bulk.acquire_many(1).tolist() == [row]
    if kind == "sticky":
        assert np.array_equal(single._current, bulk._current)
    elif kind in ("dense", "topk"):
        for name, value in per_slot_arrays(single.population).items():
            assert np.array_equal(value, per_slot_arrays(bulk.population)[name]), name
    all_rows = np.arange(ROWS)
    assert np.array_equal(single.act(all_rows), bulk.act(all_rows))


def test_sticky_reset_draws_one_scalar():
    """An integer reset of a sticky row draws one value, and advances the
    generator exactly as a one-element draw does."""
    single, bulk = make_bank("sticky", seed=2), make_bank("sticky", seed=2)
    single._reset_rows(5)
    bulk._reset_rows(np.array([5]))
    assert np.array_equal(single._current, bulk._current)
    assert single._rng.bit_generator.state == bulk._rng.bit_generator.state


def test_grouped_topk_acquire_sets_the_domain_of_an_integer_row():
    """The grouped top-k bank tags a re-acquired row with its new
    channel's popularity domain after the integer reset."""
    bank = bank_factory("r2hs", bank="topk", topk=2, u_max=900.0)(
        [4, 4], [np.random.default_rng(c) for c in range(2)]
    )
    population = bank.population_of(0)
    assert population is bank.population_of(1)
    rows = bank.acquire_many(0, 5)
    bank.acquire_many(1, 5)
    row = int(rows[1])
    bank.release(0, row)
    assert bank.acquire(1) == row
    assert population._slot_group[row] == 1
    assert population._stages[row] == 0


def make_population(kind, capacity, dtype, seed=0):
    if kind == "dense":
        return LearnerPopulation(capacity, HELPERS, u_max=900.0, rng=seed, dtype=dtype)
    return TopKPopulation(
        capacity, HELPERS, k=3, u_max=900.0, rng=seed, dtype=dtype, reselect_every=4
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["dense", "topk"])
def test_growth_keeps_old_rows_and_adds_fresh_ones(kind, dtype):
    population = make_population(kind, ROWS, dtype)
    rows = np.arange(ROWS)
    gen = np.random.default_rng(1)
    for _ in range(24):
        actions = population.act_slots(rows)
        population.observe_slots(rows, actions, gen.random(ROWS) * 900.0)
    before = {name: value.copy() for name, value in per_slot_arrays(population).items()}
    population.ensure_capacity(5 * ROWS)
    grown = per_slot_arrays(population)
    fresh = per_slot_arrays(make_population(kind, 5 * ROWS, dtype, seed=9))
    assert set(grown) == set(fresh) == set(before)
    for name, value in grown.items():
        assert value.dtype == before[name].dtype, name
        assert value[:ROWS].tobytes() == before[name].tobytes(), name
        assert value[ROWS:].tobytes() == fresh[name][ROWS:].tobytes(), name


def resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/statm"
)
@pytest.mark.parametrize(
    "kind, helpers, capacity", [("dense", 100, 1000), ("topk", 2000, 10_000)]
)
def test_growth_commits_only_the_rows_it_copies(kind, helpers, capacity):
    """The grown regret tensor (over 32 MiB, so glibc maps it fresh) is
    resident only where the old rows were copied in: the new rows stay
    unwritten until a stage first updates them."""
    if kind == "dense":
        population = LearnerPopulation(64, helpers, u_max=900.0, rng=0)
    else:
        population = TopKPopulation(64, helpers, k=32, u_max=900.0, rng=0)
    tensor_bytes = capacity * population._s[0].nbytes
    assert tensor_bytes > 32 * 2**20
    before = resident_bytes()
    population.ensure_capacity(capacity)
    assert population._s.nbytes == tensor_bytes
    assert resident_bytes() - before < 0.25 * tensor_bytes


class ResetSpy:
    """Records the slots each ``reset_slots`` call gets, then resets them."""

    def __init__(self, population):
        self.calls = []
        self._reset = population.reset_slots
        population.reset_slots = self

    def __call__(self, slots):
        self.calls.append(np.atleast_1d(slots).tolist())
        self._reset(slots)


@pytest.mark.parametrize("kind", ["dense", "topk"])
def test_only_recycled_rows_are_reset(kind):
    """A population creates its rows in the reset state, so a fused bank
    resets a row only when it hands it out again."""
    bank = bank_factory("r2hs", bank=kind, topk=2, u_max=900.0)(
        [4, 4], [np.random.default_rng(c) for c in range(2)]
    )
    spy = ResetSpy(bank.population_of(0))
    first = bank.acquire_many(0, 5)
    second = bank.acquire_many(1, 100)  # grows past the initial 64 rows
    assert first.tolist() == list(range(5))
    assert second.tolist() == list(range(5, 105))
    assert spy.calls == []
    bank.release(0, 3)
    assert bank.acquire(1) == 3
    assert spy.calls == [[3]]
    assert bank.acquire(0) == 105  # a fresh row: no reset
    bank.release(1, 7)
    bank.release(1, 9)
    # Released rows go out again first, the most recent first; then
    # fresh rows in ascending order.  Only the released ones are reset.
    assert bank.acquire_many(0, 4).tolist() == [9, 7, 106, 107]
    assert spy.calls == [[3], [9, 7]]
