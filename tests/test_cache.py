"""Unit tests for repro.cache: set-assoc caches, hierarchy, predictor."""

import pytest

from repro.arch.knl import small_machine
from repro.cache.hierarchy import CacheSystem
from repro.cache.predictor import HitMissPredictor
from repro.cache.sram import CacheConfig, SetAssocCache
from repro.errors import ConfigurationError


def tiny_cache(capacity=512, assoc=2, line=64):
    return SetAssocCache(CacheConfig(capacity, assoc, line))


class TestCacheConfig:
    def test_geometry(self):
        config = CacheConfig(32 * 1024, 8, 64)
        assert config.line_count == 512
        assert config.set_count == 64

    def test_rejects_bad_division(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(1024, 3, 64)  # 16 lines not divisible into 3 ways

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(0, 1, 64)


class TestSetAssocCache:
    def test_cold_miss_then_hit(self):
        cache = tiny_cache()
        assert cache.access(5) is False
        assert cache.access(5) is True

    def test_counters(self):
        cache = tiny_cache()
        cache.access(1)
        cache.access(1)
        cache.access(2)
        assert cache.hits == 1
        assert cache.misses == 2
        assert cache.accesses == 3

    def test_hit_rate(self):
        cache = tiny_cache()
        assert cache.hit_rate() == 0.0
        cache.access(1)
        cache.access(1)
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_lru_eviction(self):
        cache = tiny_cache(capacity=128, assoc=2, line=64)  # 1 set, 2 ways
        cache.access(0)
        cache.access(1)
        cache.access(2)  # evicts 0 (LRU)
        assert cache.contains(1)
        assert not cache.contains(0)
        assert cache.evictions == 1

    def test_access_refreshes_lru(self):
        cache = tiny_cache(capacity=128, assoc=2, line=64)
        cache.access(0)
        cache.access(1)
        cache.access(0)  # 1 becomes LRU
        cache.access(2)  # evicts 1
        assert cache.contains(0)
        assert not cache.contains(1)

    def test_contains_does_not_mutate(self):
        cache = tiny_cache()
        cache.access(1)
        hits = cache.hits
        cache.contains(1)
        assert cache.hits == hits

    def test_fill_without_counting(self):
        cache = tiny_cache()
        cache.fill(9)
        assert cache.accesses == 0
        assert cache.contains(9)

    def test_invalidate(self):
        cache = tiny_cache()
        cache.access(3)
        assert cache.invalidate(3) is True
        assert cache.invalidate(3) is False
        assert not cache.contains(3)

    def test_sets_isolate_conflicts(self):
        cache = tiny_cache(capacity=256, assoc=2, line=64)  # 2 sets
        cache.access(0)  # set 0
        cache.access(2)  # set 0
        cache.access(1)  # set 1 - must not evict set 0 blocks
        assert cache.contains(0) and cache.contains(2)

    def test_resident_blocks(self):
        cache = tiny_cache()
        for block in (1, 2, 3):
            cache.access(block)
        assert sorted(cache.resident_blocks()) == [1, 2, 3]

    def test_clear(self):
        cache = tiny_cache()
        cache.access(1)
        cache.clear()
        assert cache.accesses == 0
        assert not cache.contains(1)


class TestCacheSystem:
    """The one cache walk: which level serves an access, and its legs."""

    def make(self):
        machine = small_machine()
        machine.declare_array("A", 512)
        return machine, CacheSystem(machine)

    @staticmethod
    def remote_node(machine, index):
        """A node that is not the home of ``A[index]``."""
        home = machine.home_node("A", index)
        return next(n for n in range(machine.node_count) if n != home)

    def test_home_node_reported(self):
        """A cold miss charges MC -> home and home -> node."""
        machine, system = self.make()
        node = self.remote_node(machine, 5)
        home, mc = system.walk(node, "A", 5)
        assert home == machine.home_node("A", 5)
        assert mc == machine.mc_node("A", 5, requester=node)

    def test_l1_hit_has_no_leg(self):
        machine, system = self.make()
        system.walk(0, "A", 5)
        assert system.walk(0, "A", 5) == (None, None)

    def test_l2_shared_across_nodes(self):
        """An L2 hit charges home -> node only."""
        machine, system = self.make()
        system.walk(0, "A", 5)
        home, mc = system.walk(1, "A", 5)  # L1 miss at node 1, L2 hit
        assert home == machine.home_node("A", 5)
        assert mc is None

    def test_load_fills_both_levels(self):
        """Loads and stores alike (write-allocate) fill L1 and home bank."""
        machine, system = self.make()
        node = self.remote_node(machine, 9)
        block = machine.layout.block_of("A", 9)
        bank = machine.layout.l2_bank_of("A", 9)
        system.walk(node, "A", 9)
        assert system.l1s[node].contains(block)
        assert system.l2_banks[bank].contains(block)

    def test_forced_l1_verdict_still_updates_real_l1(self):
        machine, system = self.make()
        block = machine.layout.block_of("A", 3)
        bank = machine.layout.l2_bank_of("A", 3)
        # A forced hit on a cold block: no leg, but the real L1 filled.
        assert system.walk(0, "A", 3, forced_l1=lambda b: True) == (None, None)
        assert system.l1s[0].contains(block)
        assert system.l2_banks[bank].accesses == 0
        # A forced miss on the now-resident block: the real lookup hits
        # (LRU updated) and the walk still goes on to the L2.
        home, mc = system.walk(0, "A", 3, forced_l1=lambda b: False)
        assert system.l1s[0].hits == 1
        assert home == machine.home_node("A", 3)
        assert mc is not None

    def test_mc_override_applies_only_on_l2_miss(self):
        machine, system = self.make()
        page = machine.layout.page_of("A", 7)
        default_mc = machine.mc_node("A", 7, requester=0)
        target = next(n for n in machine.mc_nodes if n != default_mc)

        class Recording(dict):
            lookups = 0

            def get(self, key, default=None):
                Recording.lookups += 1
                return super().get(key, default)

        override = Recording({page: target})
        assert system.walk(0, "A", 7, mc_override=override)[1] == target
        assert Recording.lookups == 1
        # Node 1 misses its L1 but hits the L2: the override is not read.
        assert system.walk(1, "A", 7, mc_override=override)[1] is None
        assert Recording.lookups == 1

    def test_bank_to_node_validation(self):
        machine = small_machine()
        machine.bank_to_node = [0, 7 * machine.node_count]
        with pytest.raises(ConfigurationError):
            CacheSystem(machine)


class TestHitMissPredictor:
    def test_cold_predicts_miss(self):
        assert HitMissPredictor().predict(0) is False

    def test_learns_hits(self):
        predictor = HitMissPredictor()
        predictor.train(0, True)
        assert predictor.predict(0) is True

    def test_two_bit_hysteresis(self):
        predictor = HitMissPredictor()
        for _ in range(3):
            predictor.train(0, True)  # saturate to strong hit
        predictor.train(0, False)     # one miss: still predicts hit
        assert predictor.predict(0) is True
        predictor.train(0, False)
        assert predictor.predict(0) is False

    def test_regions_independent(self):
        predictor = HitMissPredictor(region_bits=12)
        predictor.train(0, True)
        assert predictor.predict(1 << 12) is False

    def test_same_region_shares_state(self):
        predictor = HitMissPredictor(region_bits=12)
        predictor.train(0, True)
        assert predictor.predict(100) is True  # same 4KB region

    def test_accuracy_tracking(self):
        predictor = HitMissPredictor()
        predictor.predict_and_train(0, False)  # predicted miss, was miss: ok
        predictor.predict_and_train(0, True)   # predicted miss, was hit: wrong
        assert predictor.stats.correct == 1
        assert predictor.stats.incorrect == 1
        assert predictor.accuracy() == pytest.approx(0.5)

    def test_reset(self):
        predictor = HitMissPredictor()
        predictor.predict_and_train(0, True)
        predictor.reset()
        assert predictor.accuracy() == 0.0
        assert predictor.predict(0) is False
