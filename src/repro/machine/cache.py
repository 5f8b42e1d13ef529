"""Set-associative LRU cache hierarchy.

The hierarchy decides which level services each load in a timed replay: the
KP920 efficiency cliff in Figure 6 (B overflowing the 64 KB L1 between K=64
and K=256) falls directly out of this model, as does the benefit of the
``prfm`` prologue prefetches in the generated kernels.

All LRU state lives in two flat arrays: ``int64`` tags and ``int32`` per-set
lengths.  Set ``s`` of a level holds ``lens[s]`` tags at
``tags[s * ways : s * ways + lens[s]]``, LRU-first (index 0 is the next
victim, the last resident slot is MRU).  The native ``repro_consult`` kernel
mutates those arrays in place; :func:`_walk` is the one Python walk over
them, and the oracle the kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..faults import plan as _faults
from . import native as _native
from .chips import ChipSpec

__all__ = ["CacheLevel", "CacheHierarchy", "CacheStats", "cache_level_ids"]

#: The level id a DRAM access reports (always present, never a cache).
DRAM_LEVEL = 4

_PREFETCH = 3


def cache_level_ids(chip: ChipSpec) -> tuple[int, ...]:
    """The load-service level ids a chip's hierarchy can report.

    Always starts at L1 and ends at DRAM (level 4); levels 2 and 3 appear
    only when the chip actually has an L2/L3, so chips with a shallower
    hierarchy neither drop nor invent levels in ``loads_by_level`` maps.
    """
    ids = [1]
    if chip.l2_bytes:
        ids.append(2)
    if chip.l3_bytes:
        ids.append(3)
    ids.append(DRAM_LEVEL)
    return tuple(ids)


def _walk(tags, lens, geometry, line: int, first: int, demand: bool) -> int:
    """Touch ``line`` in every level from ``first`` down, in place.

    ``tags``/``lens`` are memoryviews of the slot arrays and ``geometry``
    holds ``(level id, tag base, len base, sets, ways)`` per level.  A
    resident line moves to MRU; a missing one is installed at MRU, evicting
    the LRU slot of a full set.  A demand access stops at the first level
    that held the line and returns its id (4 = DRAM); a prefetch fills every
    level from ``first`` down.  ``repro_consult`` is this loop in C.
    """
    for level, tag_base, len_base, num_sets, ways in geometry:
        if level < first:
            continue
        tag = line // num_sets
        s = line % num_sets
        base = tag_base + s * ways
        n = lens[len_base + s]
        resident = tags[base : base + n].tolist()
        if tag in resident:
            j = base + resident.index(tag)
            end = base + n - 1
            if j < end:
                tags[j:end] = tags[j + 1 : end + 1]
                tags[end] = tag
            if demand:
                return level
        elif n < ways:
            tags[base + n] = tag
            lens[len_base + s] = n + 1
        else:
            end = base + n - 1
            tags[base:end] = tags[base + 1 : end + 1]
            tags[end] = tag
    return DRAM_LEVEL


def _num_sets(size_bytes: int, ways: int, line_bytes: int) -> int:
    if size_bytes <= 0:
        raise ValueError("cache size must be positive")
    if size_bytes % (ways * line_bytes):
        raise ValueError("cache size must be a multiple of ways * line size")
    return size_bytes // (ways * line_bytes)


@dataclass
class CacheStats:
    """Hit counters per level (level 4 = DRAM)."""

    hits: dict[int, int] = field(default_factory=lambda: {1: 0, 2: 0, 3: 0, 4: 0})

    @property
    def accesses(self) -> int:
        return sum(self.hits.values())

    def hit_rate(self, level: int) -> float:
        total = self.accesses
        return self.hits[level] / total if total else 0.0


class CacheLevel:
    """One set-associative LRU cache level.

    ``tags`` and ``lens`` are its slot and per-set length arrays: its own
    when built standalone, views of the hierarchy's arrays otherwise.
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        line_bytes: int,
        tags: np.ndarray | None = None,
        lens: np.ndarray | None = None,
    ) -> None:
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = _num_sets(size_bytes, ways, line_bytes)
        if tags is None:
            tags = np.zeros(self.num_sets * ways, np.int64)
            lens = np.zeros(self.num_sets, np.int32)
        self.tags = tags
        self.lens = lens
        self._views = (memoryview(tags), memoryview(lens))
        self._geometry = ((1, 0, 0, self.num_sets, ways),)

    def resident(self, set_idx: int) -> list[int]:
        """The tags resident in one set, LRU-first."""
        base = set_idx * self.ways
        return self.tags[base : base + self.lens[set_idx]].tolist()

    def contains(self, addr: int) -> bool:
        """Probe without updating LRU state."""
        line = addr // self.line_bytes
        return line // self.num_sets in self.resident(line % self.num_sets)

    def lookup(self, addr: int) -> bool:
        """Probe without fill; refresh LRU on hit."""
        hit = self.contains(addr)
        if hit:
            self.fill(addr)
        return hit

    def fill(self, addr: int) -> None:
        """Install the line containing ``addr``, evicting LRU if full."""
        _walk(*self._views, self._geometry, addr // self.line_bytes, 1, False)

    def flush(self) -> None:
        self.lens[:] = 0


class CacheHierarchy:
    """Private-L1 view of a chip's cache hierarchy for one core.

    ``access`` returns the level that serviced a demand access (1..3, or 4
    for DRAM) and fills all levels on the way (inclusive hierarchy).
    """

    def __init__(self, chip: ChipSpec) -> None:
        self.chip = chip
        self.line_bytes = line = chip.cache_line
        spec = [(1, chip.l1d_bytes, chip.cache_ways)]
        if chip.l2_bytes:
            spec.append((2, chip.l2_bytes, chip.cache_ways))
        if chip.l3_bytes:
            spec.append((3, chip.l3_bytes, max(chip.cache_ways, 16)))
        geometry = []
        tag_total = len_total = 0
        for level, size, ways in spec:
            num_sets = _num_sets(size, ways, line)
            geometry.append((level, tag_total, len_total, num_sets, ways))
            tag_total += num_sets * ways
            len_total += num_sets
        self.tags = np.zeros(tag_total, np.int64)
        self.lens = np.zeros(len_total, np.int32)
        self.levels: list[tuple[int, CacheLevel]] = []
        for (level, size, ways), (_, tag_base, len_base, num_sets, _) in zip(
            spec, geometry
        ):
            tags = self.tags[tag_base : tag_base + num_sets * ways]
            lens = self.lens[len_base : len_base + num_sets]
            self.levels.append((level, CacheLevel(size, ways, line, tags, lens)))
        self._geometry = tuple(geometry)
        self._views = (memoryview(self.tags), memoryview(self.lens))
        level_id, tag_base, len_base, num_sets, ways = zip(*geometry)
        # repro_consult's per-level parameters, in its argument order.
        self._columns = (
            np.array(level_id, np.int32),
            np.array(num_sets, np.int32),
            np.array(ways, np.int32),
            np.array(tag_base, np.int64),
            np.array(len_base, np.int64),
        )
        self.stats = CacheStats()

    @property
    def level_ids(self) -> tuple[int, ...]:
        """Load-service level ids this hierarchy can report (incl. DRAM)."""
        return tuple(level for level, _ in self.levels) + (DRAM_LEVEL,)

    def access(self, addr: int, is_write: bool = False) -> int:
        """Service a demand access; returns the hit level (4 = DRAM)."""
        if _faults._PLAN is not None:
            _faults.check("cache.access")
        level = _walk(*self._views, self._geometry, addr // self.line_bytes, 1, True)
        self.stats.hits[level] += 1
        return level

    def prefetch(self, addr: int, target_level: int = 1) -> None:
        """Warm the line into ``target_level`` and below (PLDL1KEEP/PLDL2KEEP)."""
        _walk(*self._views, self._geometry, addr // self.line_bytes, target_level, False)

    def consult_batch(
        self,
        addrs: np.ndarray,
        kinds: np.ndarray,
        plevels: np.ndarray,
    ) -> np.ndarray:
        """Service a whole memory-op stream in program order; returns the
        per-op service level (meaningful for demand accesses; prefetch slots
        report 1).

        Semantically identical to calling :meth:`access` / :meth:`prefetch`
        once per op in order -- final cache state, per-op levels, and stats
        are bit-equal (pinned by ``tests/test_gemm_compiled.py``).  A demand
        access whose *immediately preceding* op is a demand access to the
        same cache line is elided: that line is MRU in L1, so the access is
        an L1 hit with no state change.  The unit-stride lane loads inside a
        vector tile, the bulk of a GEMM stream, resolve that way in NumPy;
        the survivors run through ``repro_consult`` (or :func:`_walk` when
        the native kernel is unavailable).

        With a fault plan installed nothing is elided and every op goes
        through :meth:`access` / :meth:`prefetch`, so each demand access
        polls the ``cache.access`` site at the same call index as
        ``PipelineModel.time_trace`` would.
        """
        n = len(addrs)
        levels = np.ones(n, np.uint8)
        if n == 0:
            return levels
        if _faults._PLAN is not None:
            for i, (addr, kind, plevel) in enumerate(
                zip(addrs.tolist(), kinds.tolist(), plevels.tolist())
            ):
                if kind == _PREFETCH:
                    self.prefetch(addr, plevel)
                else:
                    levels[i] = self.access(addr, kind == 2)
            return levels

        lines = addrs // self.line_bytes
        is_access = kinds != _PREFETCH
        elided = np.zeros(n, bool)
        elided[1:] = is_access[1:] & is_access[:-1] & (lines[1:] == lines[:-1])
        kept = np.flatnonzero(~elided)
        levels[kept] = self._consult(lines[kept], kinds[kept], plevels[kept], True)

        counts = np.bincount(levels[is_access], minlength=DRAM_LEVEL + 1)
        hits = self.stats.hits
        for level in hits:
            hits[level] += int(counts[level])
        return levels

    def warm_range(self, base: int, nbytes: int, level: int = 1) -> None:
        """Pre-load a contiguous byte range into the hierarchy (pre-warmed
        working set for kernel-in-cache timing scenarios): one prefetch per
        line from the one holding ``base`` up to ``base + nbytes``."""
        line = self.line_bytes
        lines = np.arange(base // line, -(-(base + nbytes) // line), dtype=np.int64)
        self._consult(
            lines,
            np.full(lines.size, _PREFETCH, np.uint8),
            np.full(lines.size, level, np.uint8),
            False,
        )

    def _consult(
        self,
        lines: np.ndarray,
        kinds: np.ndarray,
        plevels: np.ndarray,
        counted: bool,
    ) -> np.ndarray:
        """Run a cache-line op stream over the slot arrays in place; returns
        the per-op service levels.

        Uses the C kernel when it is available and every line is
        non-negative (C division truncates where Python floors); otherwise
        :func:`_walk` serves, bit-identically.  ``counted`` native runs bump
        ``replay.consult_native``.
        """
        nat = _native.get_native()
        if nat is None or lines.size == 0 or int(lines.min()) < 0:
            tags, lens = self._views
            geometry = self._geometry
            out = []
            for line, kind, plevel in zip(
                lines.tolist(), kinds.tolist(), plevels.tolist()
            ):
                if kind == _PREFETCH:
                    _walk(tags, lens, geometry, line, plevel, False)
                    out.append(1)
                else:
                    out.append(_walk(tags, lens, geometry, line, 1, True))
            return np.array(out, np.uint8)
        ffi, lib = nat
        level_id, num_sets, ways, tag_base, len_base = self._columns
        out = np.empty(lines.size, np.uint8)
        lib.repro_consult(
            lines.size,
            ffi.from_buffer("int64_t[]", np.ascontiguousarray(lines, np.int64)),
            ffi.from_buffer("uint8_t[]", np.ascontiguousarray(kinds, np.uint8)),
            ffi.from_buffer("uint8_t[]", np.ascontiguousarray(plevels, np.uint8)),
            len(level_id),
            ffi.from_buffer("int32_t[]", level_id),
            ffi.from_buffer("int32_t[]", num_sets),
            ffi.from_buffer("int32_t[]", ways),
            ffi.from_buffer("int64_t[]", tag_base),
            ffi.from_buffer("int64_t[]", len_base),
            ffi.from_buffer("int64_t[]", self.tags),
            ffi.from_buffer("int32_t[]", self.lens),
            ffi.from_buffer("uint8_t[]", out),
        )
        if counted:
            telemetry.count("replay.consult_native")
        return out

    def flush(self) -> None:
        self.lens[:] = 0
        self.stats = CacheStats()
