"""Cache model: LRU sets, hierarchy fills, prefetch warming."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import native
from repro.machine.cache import CacheHierarchy, CacheLevel, cache_level_ids
from repro.machine.chips import A64FX, APPLE_M2, GRAVITON2, KP920


class TestCacheLevel:
    def test_geometry(self):
        c = CacheLevel(64 * 1024, ways=8, line_bytes=64)
        assert c.num_sets == 128

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CacheLevel(1000, 8, 64)
        with pytest.raises(ValueError):
            CacheLevel(0, 8, 64)

    def test_fill_then_hit(self):
        c = CacheLevel(4096, 4, 64)
        assert not c.lookup(128)
        c.fill(128)
        assert c.lookup(128)
        assert c.lookup(129)  # same line

    def test_lru_eviction_order(self):
        c = CacheLevel(4 * 64, ways=4, line_bytes=64)  # one set, 4 ways
        for i in range(4):
            c.fill(i * 64)
        c.lookup(0)  # refresh line 0
        c.fill(4 * 64)  # evicts LRU = line 1
        assert c.contains(0)
        assert not c.contains(64)
        assert c.contains(4 * 64)

    def test_flush(self):
        c = CacheLevel(4096, 4, 64)
        c.fill(0)
        c.flush()
        assert not c.contains(0)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, addrs):
        c = CacheLevel(16 * 64, ways=4, line_bytes=64)
        for a in addrs:
            c.fill(a)
        sets = [c.resident(s) for s in range(c.num_sets)]
        assert sum(len(s) for s in sets) <= 16
        for s in sets:
            assert len(s) <= 4


class TestCacheHierarchy:
    def test_first_access_misses_to_dram(self):
        h = CacheHierarchy(KP920)
        assert h.access(4096) == 4
        assert h.access(4096) == 1  # now L1 resident

    def test_inclusive_fill(self):
        h = CacheHierarchy(KP920)
        # L1: 64 KB / 8 ways / 64 B lines = 128 sets -> same-set stride 8 KB.
        stride = KP920.l1d_bytes // KP920.cache_ways
        h.access(0)
        # 12 more same-L1-set lines evict line 0 from L1 but spread across
        # L2 sets, so it survives there (inclusive fill).
        for i in range(1, 13):
            h.access(i * stride)
        assert h.access(0) == 2

    def test_levels_match_chip(self):
        assert len(CacheHierarchy(KP920).levels) == 3  # L1, L2, L3
        assert len(CacheHierarchy(APPLE_M2).levels) == 2  # no L3

    def test_prefetch_into_l1(self):
        h = CacheHierarchy(GRAVITON2)
        h.prefetch(8192, 1)
        assert h.access(8192) == 1

    def test_prefetch_into_l2_only(self):
        h = CacheHierarchy(GRAVITON2)
        h.prefetch(8192, 2)
        assert h.access(8192) == 2

    def test_warm_range_covers_span(self):
        h = CacheHierarchy(GRAVITON2)
        h.warm_range(1000, 500, 1)
        for addr in range(1000, 1500, 64):
            assert h.access(addr) == 1

    def test_stats(self):
        h = CacheHierarchy(KP920)
        h.access(0)
        h.access(0)
        assert h.stats.hits[4] == 1
        assert h.stats.hits[1] == 1
        assert h.stats.accesses == 2
        assert h.stats.hit_rate(1) == 0.5

    def test_flush_resets(self):
        h = CacheHierarchy(KP920)
        h.access(0)
        h.flush()
        assert h.stats.accesses == 0
        assert h.access(0) == 4

    def test_working_set_larger_than_l1_overflows(self):
        """The Figure 6 KP920 cliff mechanism: a B matrix beyond 64 KB stops
        being L1-resident between sweeps."""
        chip = KP920
        h = CacheHierarchy(chip)
        span = 2 * chip.l1d_bytes
        h.warm_range(0, span, 1)
        levels = [h.access(a) for a in range(0, span, 64)]
        assert any(lvl > 1 for lvl in levels)

    def test_working_set_within_l1_stays_resident(self):
        chip = KP920
        h = CacheHierarchy(chip)
        span = chip.l1d_bytes // 4
        h.warm_range(0, span, 1)
        # repeated sweeps all hit L1
        for _ in range(3):
            assert all(h.access(a) == 1 for a in range(0, span, 64))


class TestWarmRange:
    """``warm_range`` is one batched prefetch consult: the native kernel and
    the Python walk must leave identical slot arrays and stats."""

    CASES = {
        "aligned": (1 << 16, 4096),
        "unaligned": (1000, 500),
        "empty-aligned": (4096, 0),
        "empty-unaligned": (4100, 0),
        "beyond-l1": (0, 3 * 64 * 1024),
    }

    @staticmethod
    def _warm(chip, level, base, nbytes):
        h = CacheHierarchy(chip)
        h.warm_range(base, nbytes, level)
        for addr in range(base - 256, base + nbytes + 256, 64):
            h.access(addr)
        return h

    @pytest.mark.parametrize("chip", [GRAVITON2, KP920, A64FX], ids=lambda c: c.name)
    def test_native_matches_fallback(self, monkeypatch, chip):
        levels = cache_level_ids(chip)[:-1]
        runs = {
            (level, name): self._warm(chip, level, *case)
            for level in levels
            for name, case in self.CASES.items()
        }
        monkeypatch.setattr(native, "_native", None)
        monkeypatch.setattr(native, "_failed", True)
        for (level, name), got in runs.items():
            want = self._warm(chip, level, *self.CASES[name])
            assert (got.tags == want.tags).all(), (level, name)
            assert (got.lens == want.lens).all(), (level, name)
            assert got.stats.hits == want.stats.hits, (level, name)

    @pytest.mark.parametrize(
        "base, nbytes, lines",
        [(4096, 0, 0), (4100, 0, 1), (1000, 500, 9), (1024, 128, 2)],
    )
    def test_lines_warmed(self, base, nbytes, lines):
        # Every line from the one holding ``base`` up to ``base + nbytes``:
        # an empty range at an unaligned base still warms its line.
        h = CacheHierarchy(GRAVITON2)
        h.warm_range(base, nbytes, 1)
        _, l1 = h.levels[0]
        assert int(l1.lens.sum()) == lines
        assert h.stats.accesses == 0
