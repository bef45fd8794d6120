"""Bit-identity of the fused multi-channel engine.

The decisive suite for the grouped learner engine: under the same seed,
the fused :class:`GroupedRegretBank` and the per-channel oracle (private
per-channel regret banks behind :class:`PerChannelGroupedBank`) must
produce **the same bytes** — every trace array equal with
``np.array_equal`` (no tolerance), dense and sparse top-k storage, with
and without churn, viewer channel switching, and per-peer recording.
Plus property tests for the incremental channel-sorted permutation the
fused round loop consumes.
"""

import numpy as np
import pytest

from repro.runtime import (
    GroupedChannelView,
    GroupedRegretBank,
    PeerStore,
    PerChannelGroupedBank,
    RegretBank,
    TopKRegretBank,
    VectorizedStreamingSystem,
    bank_factory,
    build_per_channel_banks,
)
from repro.spec import (
    ChurnSpec,
    ExperimentSpec,
    LearnerSpec,
    MetricsSpec,
    TopologySpec,
)

U_MAX = 900.0

CHURN = ChurnSpec(
    arrival_rate=2.0, mean_lifetime=25.0, initial_peer_lifetimes=True
)


def spec_for(churn=ChurnSpec(), record_peers=False, learner="r2hs",
             dtype="float64", **topology):
    return ExperimentSpec(
        topology=TopologySpec(**topology),
        learner=LearnerSpec(name=learner, dtype=dtype),
        churn=churn,
        metrics=MetricsSpec(record_peers=record_peers),
    )


def per_channel_oracle(bank="dense", topk=32, dtype=np.float64):
    """Private per-channel regret banks behind the fused API."""

    def per_channel(h, rng):
        if bank == "topk":
            return TopKRegretBank(h, k=topk, rng=rng, u_max=U_MAX, dtype=dtype)
        return RegretBank(h, rng=rng, u_max=U_MAX, dtype=dtype)

    return lambda widths, rngs: PerChannelGroupedBank(
        build_per_channel_banks(per_channel, widths, rngs)
    )


def build(engine, spec, *, kind="r2hs", bank="dense", topk=32, seed=42,
          initial_channels=None):
    """``engine="grouped"``: the stock fused bank; ``"per_channel"``: the oracle."""
    factory = (
        bank_factory(kind, u_max=U_MAX, bank=bank, topk=topk)
        if engine == "grouped"
        else per_channel_oracle(bank, topk)
    )
    return VectorizedStreamingSystem(
        spec, factory, rng=seed, initial_channels=initial_channels
    )


def assert_traces_identical(tg, tp):
    assert np.array_equal(tg.welfare, tp.welfare)
    assert np.array_equal(tg.loads, tp.loads)
    assert np.array_equal(tg.server_load, tp.server_load)
    assert np.array_equal(tg.capacities, tp.capacities)
    assert np.array_equal(tg.min_deficit, tp.min_deficit)
    assert np.array_equal(tg.online_peers, tp.online_peers)
    assert np.array_equal(tg.total_demand, tp.total_demand)
    assert np.array_equal(tg.times, tp.times)


class TestGroupedBitIdentity:
    def test_dense_multi_width_fixed_population(self):
        # 3 channels over 7 helpers: widths 3 / 2 / 2 — two width groups.
        spec = spec_for(
            num_peers=90, num_helpers=7, num_channels=3,
            channel_bitrates=[100.0, 150.0, 250.0],
        )
        sg = build("grouped", spec)
        sp = build("per_channel", spec)
        assert isinstance(sg.bank, GroupedRegretBank)
        assert isinstance(sp.bank, PerChannelGroupedBank)
        assert_traces_identical(sg.run(120), sp.run(120))

    def test_dense_under_churn_and_switching(self):
        spec = spec_for(
            num_peers=80, num_helpers=9, num_channels=4,
            channel_bitrates=100.0, churn=CHURN, channel_switch_rate=0.5,
        )
        assert_traces_identical(
            build("grouped", spec).run(200),
            build("per_channel", spec).run(200),
        )

    def test_topk_under_churn_with_promotion_and_reselection(self):
        # k well below the channel width, enough rounds for the periodic
        # re-selection (every 32 stages) to fire many times.
        spec = spec_for(
            num_peers=90, num_helpers=40, num_channels=2,
            channel_bitrates=100.0, churn=CHURN,
        )
        sg = build("grouped", spec, bank="topk", topk=3)
        sp = build("per_channel", spec, bank="topk", topk=3)
        assert_traces_identical(sg.run(250), sp.run(250))
        # The sparse machinery actually exercised on both sides.
        grouped_promotions = sum(
            {id(v.population): v.population.promotions for v in sg.banks}.values()
        )
        per_channel_promotions = sum(
            b.population.promotions for b in sp.banks
        )
        assert grouped_promotions == per_channel_promotions > 0

    def test_record_peers_actions_and_utilities_identical(self):
        spec = spec_for(
            num_peers=40, num_helpers=6, num_channels=3,
            channel_bitrates=100.0, record_peers=True,
        )
        initial = [i % 3 for i in range(40)]
        tg = build("grouped", spec, initial_channels=initial).run(60)
        tp = build("per_channel", spec, initial_channels=initial).run(60)
        assert_traces_identical(tg, tp)
        a, b = tg.to_trajectory(), tp.to_trajectory()
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.utilities, b.utilities)

    def test_baseline_families_run_per_channel_honestly(self):
        """The baselines have nothing to fuse (their round cost is the
        per-channel RNG call): their stock factory loops per-channel
        banks behind the one bank contract."""
        spec = spec_for(
            num_peers=50, num_helpers=8, num_channels=3,
            channel_bitrates=100.0, churn=CHURN,
        )
        for kind in ("uniform", "sticky"):
            system = build("grouped", spec, kind=kind)
            assert isinstance(system.bank, PerChannelGroupedBank)
            trace = system.run(80)
            assert np.all(trace.loads.sum(axis=1) == trace.online_peers)

    def test_float32_banks_identical(self):
        spec = spec_for(
            num_peers=60, num_helpers=6, num_channels=2,
            channel_bitrates=100.0, dtype="float32",
        )
        systems = [
            VectorizedStreamingSystem(spec, factory, rng=3)
            for factory in (
                bank_factory("r2hs", u_max=U_MAX, dtype=np.float32),
                per_channel_oracle(dtype=np.float32),
            )
        ]
        assert_traces_identical(systems[0].run(100), systems[1].run(100))


class TestEngineSelection:
    def test_auto_resolves_to_grouped_for_stock_factories(self):
        spec = spec_for(num_peers=10, num_helpers=4, channel_bitrates=100.0)
        system = build("grouped", spec)
        assert isinstance(system.banks[0], GroupedChannelView)
        assert isinstance(system.bank, GroupedRegretBank)

    def test_grouped_with_plain_factory_raises(self):
        """A per-channel ``(num_actions, rng)`` factory no longer fits the
        one ``(arm_counts, rngs)`` contract; it must fail loudly."""
        spec = spec_for(num_peers=10, num_helpers=4, channel_bitrates=100.0)
        with pytest.raises(TypeError, match="int"):
            VectorizedStreamingSystem(
                spec, lambda h, rng: RegretBank(h, rng=rng, u_max=U_MAX), rng=0
            )

    def test_unknown_engine_rejected(self):
        # The engine switch is gone from the system's constructor.
        spec = spec_for(num_peers=10, num_helpers=4, channel_bitrates=100.0)
        with pytest.raises(TypeError, match="engine"):
            VectorizedStreamingSystem(
                spec, bank_factory("r2hs"), rng=0, engine="grouped"
            )

    def test_grouped_one_helper_channel_names_the_channel(self):
        """Round-robin can hand a channel one helper; the fused regret
        engine must report which channel could not be built."""
        spec = spec_for(
            num_peers=10, num_helpers=5, num_channels=4, channel_bitrates=100.0,
            learner="sticky",  # the spec admits a one-helper channel
        )
        with pytest.raises(ValueError, match=r"channel 1 .*1 helper"):
            build("grouped", spec)

    def test_width_groups_fuse_round_robin_partition(self):
        # 10 helpers over 4 channels: widths 3, 3, 2, 2 -> 2 kernel groups.
        spec = spec_for(
            num_peers=20, num_helpers=10, num_channels=4, channel_bitrates=100.0
        )
        system = build("grouped", spec)
        assert system.bank.num_width_groups == 2
        # Channels of equal width share one backing population.
        populations = {c: system.banks[c].population for c in range(4)}
        assert populations[0] is populations[1]
        assert populations[2] is populations[3]
        assert populations[0] is not populations[2]


class TestNonContiguousWidthGroups:
    """Width groups whose channels are not one id range.

    The round-robin partition never makes one, so no system test reaches
    the fused bank's gather-index path; this drives the bank directly
    against private per-channel banks, byte for byte.
    """

    ARM_COUNTS = [4, 2, 4, 2]
    STATE = {
        "dense": ("_s", "_scale", "_probs", "_last_played_regrets"),
        "topk": ("_ids", "_pos", "_s", "_scale", "_probs", "_tail_prob",
                 "_stages", "_last_played_regrets", "_tail_regret"),
    }

    @pytest.mark.parametrize("bank", ["dense", "topk"])
    def test_matches_per_channel_banks_through_churn(self, bank):
        def rngs():
            return [np.random.default_rng([5, c]) for c in range(4)]

        banks = {
            "fused": GroupedRegretBank(
                self.ARM_COUNTS, rngs(), u_max=U_MAX, bank=bank, topk=3
            ),
            "oracle": per_channel_oracle(bank, topk=3)(self.ARM_COUNTS, rngs()),
        }
        fused, oracle = banks["fused"], banks["oracle"]
        assert fused.num_width_groups == 2
        assert not any(group.contiguous for group in fused._groups)
        rows = {
            side: [list(b.acquire_many(c, 6)) for c in range(4)]
            for side, b in banks.items()
        }
        script = np.random.default_rng(9)
        for _ in range(120):
            # One join or leave on one channel, the same on both sides.
            c = int(script.integers(4))
            if script.random() < 0.5 or not rows["fused"][c]:
                for side, b in banks.items():
                    rows[side][c].append(b.acquire(c))
            else:
                j = int(script.integers(len(rows["fused"][c])))
                for side, b in banks.items():
                    b.release(c, rows[side][c].pop(j))
            counts = [len(r) for r in rows["fused"]]
            offsets = np.concatenate([[0], np.cumsum(counts)])
            flat = {
                side: np.array(sum(rows[side], []), dtype=np.int64)
                for side in banks
            }
            actions = fused.act_all(offsets, flat["fused"])
            want = oracle.act_all(offsets, flat["oracle"])
            assert actions.tobytes() == want.tobytes()
            utilities = script.random(offsets[-1]) * U_MAX
            for side, b in banks.items():
                b.observe_all(offsets, flat[side], actions, utilities)
        for c, view in enumerate(oracle.channel_views()):
            mine, theirs = fused.population_of(c), view.population
            for name in self.STATE[bank]:
                got = getattr(mine, name)[rows["fused"][c]]
                assert got.tobytes() == getattr(theirs, name)[rows["oracle"][c]].tobytes(), (c, name)
            if bank == "topk":
                ewma = mine._play_ewma[fused._domain_of[c]]
                assert ewma.tobytes() == theirs._play_ewma[0].tobytes()
        if bank == "topk":
            assert fused.population_of(0).promotions > 0
            assert fused.population_of(0).reselections > 0


class TestIncrementalChannelGrouping:
    def brute_force(self, store, num_channels):
        online = store.online_slots()
        channels = store.channel[online]
        order = np.argsort(channels, kind="stable")
        slots_sorted = online[order]
        counts = np.bincount(channels, minlength=num_channels)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        return slots_sorted, offsets

    def assert_matches(self, store, num_channels):
        got_slots, got_offsets = store.channel_grouping(num_channels)
        want_slots, want_offsets = self.brute_force(store, num_channels)
        assert np.array_equal(got_slots, want_slots)
        assert np.array_equal(got_offsets, want_offsets)

    def test_join_leave_bursts_maintain_the_permutation(self):
        """Property: after any interleaving of joins, leaves and bulk
        allocations the incremental grouping equals a from-scratch sort."""
        rng = np.random.default_rng(77)
        C = 5
        store = PeerStore(initial_capacity=8)
        live = list(
            store.allocate_many(
                rng.integers(0, C, size=30), np.full(30, 100.0)
            )
        )
        self.assert_matches(store, C)
        for _ in range(60):
            op = rng.integers(3)
            if op == 0:  # join burst
                for _ in range(int(rng.integers(1, 6))):
                    slot = store.allocate(int(rng.integers(C)), 100.0)
                    live.append(slot)
            elif op == 1 and live:  # leave burst
                for _ in range(min(len(live), int(rng.integers(1, 6)))):
                    slot = live.pop(int(rng.integers(len(live))))
                    store.release(slot)
            else:  # interleave a grouping read (clears the dirty set)
                self.assert_matches(store, C)
            self.assert_matches(store, C)

    def test_sparse_channel_ids(self):
        """The index segments the sorted channels correctly when some
        channel ids hold no online peer."""
        store = PeerStore()
        slots = store.allocate_many(
            np.array([3, 0, 3, 5, 0, 3]), np.full(6, 100.0)
        )
        store.release(int(slots[1]))
        self.assert_matches(store, 6)
        store.allocate(1, 100.0)
        self.assert_matches(store, 6)

    def test_every_peer_offline(self):
        store = PeerStore()
        slots = store.allocate_many(np.array([2, 0]), np.full(2, 100.0))
        store.channel_grouping(3)
        for slot in slots:
            store.release(int(slot))
        slots_sorted, offsets = store.channel_grouping(3)
        assert slots_sorted.size == 0 and offsets.tolist() == [0, 0, 0, 0]

    def test_bulk_allocation_over_sparse_channel_ids(self):
        store = PeerStore()
        store.channel_grouping(8)  # an empty index to extend
        store.allocate_many(np.array([7, 2, 7, 4, 2]), np.full(5, 100.0))
        self.assert_matches(store, 8)

    def test_bulk_allocation_after_single_joins(self):
        """A bulk block lands past every slot already indexed, so it
        extends each channel's members in slot order."""
        store = PeerStore(initial_capacity=2)
        store.allocate(2, 100.0)
        store.allocate(0, 100.0)
        store.channel_grouping(3)
        store.allocate_many(np.array([2, 1, 2, 0]), np.full(4, 100.0))
        slots_sorted, offsets = store.channel_grouping(3)
        assert offsets.tolist() == [0, 2, 3, 6]
        assert slots_sorted.tolist() == [1, 5, 3, 0, 2, 4]
        self.assert_matches(store, 3)

    def test_recycled_slot_moves_to_its_new_channel(self):
        store = PeerStore()
        slots = store.allocate_many(np.array([0, 0, 1]), np.full(3, 100.0))
        store.channel_grouping(3)
        store.release(int(slots[1]))
        self.assert_matches(store, 3)
        assert store.allocate(2, 100.0) == slots[1]
        slots_sorted, offsets = store.channel_grouping(3)
        assert slots_sorted[offsets[2]:offsets[3]].tolist() == [int(slots[1])]
        assert int(slots[1]) not in slots_sorted[offsets[0]:offsets[1]].tolist()
        self.assert_matches(store, 3)

    def test_returned_arrays_do_not_alias_the_index(self):
        """Callers may write into the grouping they get back: the next
        call rebuilds it from the index, including clean channels."""
        store = PeerStore()
        store.allocate_many(np.array([1, 0, 1, 0]), np.full(4, 100.0))
        slots_sorted, offsets = store.channel_grouping(2)
        slots_sorted[:] = -1
        offsets[:] = 0
        self.assert_matches(store, 2)

    def test_out_of_range_channel_rejected(self):
        store = PeerStore()
        store.allocate(5, 100.0)
        with pytest.raises(ValueError, match="outside"):
            store.channel_grouping(2)
