"""Tests for the struct-of-arrays peer table."""

import numpy as np
import pytest

from repro.runtime.peer_store import PeerStore


class TestAllocate:
    def test_fresh_slots_are_sequential(self):
        store = PeerStore(initial_capacity=4)
        slots = [store.allocate(0, 100.0) for _ in range(3)]
        assert slots == [0, 1, 2]
        assert store.num_online == 3
        assert store.size == 3

    def test_growth_preserves_state(self):
        store = PeerStore(initial_capacity=2)
        store.allocate(0, 100.0)
        store.allocate(1, 200.0)
        store.allocate(2, 300.0)  # forces a grow
        assert store.capacity >= 3
        assert store.demand[:3].tolist() == [100.0, 200.0, 300.0]
        assert store.channel[:3].tolist() == [0, 1, 2]

    def test_uids_never_repeat(self):
        store = PeerStore()
        slot_a = store.allocate(0, 100.0)
        uid_a = store.uid[slot_a]
        store.release(slot_a)
        slot_b = store.allocate(0, 100.0)
        assert slot_b == slot_a  # slot recycled
        assert store.uid[slot_b] == uid_a + 1  # uid not recycled

    def test_rejects_nonpositive_demand(self):
        with pytest.raises(ValueError):
            PeerStore().allocate(0, 0.0)

    def test_allocate_many_bulk(self):
        store = PeerStore(initial_capacity=2)
        slots = store.allocate_many(
            np.array([0, 1, 0, 1]), np.array([100.0, 200.0, 100.0, 200.0])
        )
        assert slots.tolist() == [0, 1, 2, 3]
        assert store.num_online == 4
        assert store.uid[slots].tolist() == [0, 1, 2, 3]

    def test_allocate_many_requires_empty_free_list(self):
        store = PeerStore()
        slot = store.allocate(0, 100.0)
        store.release(slot)
        with pytest.raises(RuntimeError):
            store.allocate_many(np.array([0]), np.array([100.0]))

    def test_allocate_many_rejects_negative_channels(self):
        with pytest.raises(ValueError, match="non-negative"):
            PeerStore().allocate_many(np.array([0, -1]), np.full(2, 100.0))


class TestRelease:
    def test_release_takes_peer_offline(self):
        store = PeerStore()
        slot = store.allocate(0, 100.0, now=1.0)
        store.release(slot, now=5.0)
        assert not store.online[slot]
        assert store.left_at[slot] == 5.0
        assert store.num_online == 0
        assert store.free_slots == 1

    def test_double_release_rejected(self):
        store = PeerStore()
        slot = store.allocate(0, 100.0)
        store.release(slot)
        with pytest.raises(ValueError):
            store.release(slot)

    def test_slot_missing_from_the_channel_index_raises(self):
        store = PeerStore()
        slot = store.allocate(0, 100.0)
        store.channel[slot] = 1  # behind the index's back
        with pytest.raises(RuntimeError, match="missing from channel 1"):
            store.release(slot)

    def test_refused_release_changes_nothing(self):
        """The index check runs before any column or counter moves, so a
        refused release leaves the peer online and its slot off the
        free-list."""
        store = PeerStore()
        slot = store.allocate(0, 100.0, now=1.0)
        store.channel[slot] = 1  # behind the index's back
        with pytest.raises(RuntimeError):
            store.release(slot, now=5.0)
        assert store.online[slot] and np.isnan(store.left_at[slot])
        assert store.num_online == 1 and store.free_slots == 0
        store.channel[slot] = 0
        store.release(slot, now=5.0)
        assert store.num_online == 0 and store.free_slots == 1


class TestOnlineSlots:
    def test_ascending_order(self):
        store = PeerStore()
        for _ in range(5):
            store.allocate(0, 100.0)
        store.release(2)
        assert store.online_slots().tolist() == [0, 1, 3, 4]

    def test_statistics_reset_on_reuse(self):
        store = PeerStore()
        slot = store.allocate(0, 100.0)
        store.cumulative_rate[slot] = 123.0
        store.rounds_participated[slot] = 7
        store.release(slot)
        slot2 = store.allocate(1, 200.0)
        assert slot2 == slot
        assert store.cumulative_rate[slot2] == 0.0
        assert store.rounds_participated[slot2] == 0
        assert store.channel[slot2] == 1


class TestFreeListAliasing:
    def test_random_churn_never_aliases_live_peers(self):
        """Property test: under a random allocate/release storm, a handed-out
        slot is never already online, every allocation gets a fresh uid,
        a live uid stays on its slot, a departed uid is on no online slot,
        and online bookkeeping stays exact."""
        rng = np.random.default_rng(1234)
        store = PeerStore(initial_capacity=2)
        live = {}      # uid -> slot
        dead = set()   # uids of released peers
        for _ in range(3000):
            if live and rng.random() < 0.45:
                uid = list(live)[int(rng.integers(len(live)))]
                store.release(live.pop(uid))
                dead.add(uid)
            else:
                slot = store.allocate(
                    int(rng.integers(3)), float(rng.uniform(50, 500))
                )
                uid = int(store.uid[slot])
                # The slot handed out must not belong to any live peer,
                # and its uid must be new.
                assert slot not in live.values()
                assert uid == store.total_created - 1
                assert uid not in live and uid not in dead
                live[uid] = slot
            # Invariants after every step.
            assert store.num_online == len(live)
            assert set(store.online_slots().tolist()) == set(live.values())
        online_uids = set(store.uid[store.online_slots()].tolist())
        assert online_uids == set(live)
        assert not online_uids & dead
        for uid, slot in live.items():
            assert store.uid[slot] == uid and store.online[slot]
        # uids are a strictly increasing sequence: none is ever reused.
        assert store.total_created == len(live) + len(dead)
