"""Set-associative LRU cache hierarchy.

The hierarchy decides which level services each load in a timed replay: the
KP920 efficiency cliff in Figure 6 (B overflowing the 64 KB L1 between K=64
and K=256) falls directly out of this model, as does the benefit of the
``prfm`` prologue prefetches in the generated kernels.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .. import telemetry
from ..faults import plan as _faults
from . import native as _native
from .chips import ChipSpec

__all__ = ["CacheLevel", "CacheHierarchy", "CacheStats", "cache_level_ids"]

#: The level id a DRAM access reports (always present, never a cache).
DRAM_LEVEL = 4

#: Minimum surviving (non-elided) op count before ``consult_batch`` engages
#: the native kernel: exporting / re-importing the LRU state costs a pass
#: over every resident line, which only pays for itself on large batches.
NATIVE_MIN_KEPT = 4096


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


@dataclass
class CacheStats:
    """Hit counters per level (level 4 = DRAM)."""

    hits: dict[int, int] = field(default_factory=lambda: {1: 0, 2: 0, 3: 0, 4: 0})

    def record(self, level: int) -> None:
        self.hits[level] += 1

    @property
    def accesses(self) -> int:
        return sum(self.hits.values())

    def hit_rate(self, level: int) -> float:
        total = self.accesses
        return self.hits[level] / total if total else 0.0


class CacheLevel:
    """One set-associative LRU cache level."""

    def __init__(self, size_bytes: int, ways: int, line_bytes: int) -> None:
        if size_bytes <= 0:
            raise ValueError("cache size must be positive")
        if size_bytes % (ways * line_bytes):
            raise ValueError("cache size must be a multiple of ways * line size")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        # set index -> OrderedDict of tags (LRU order: oldest first)
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def lookup(self, addr: int) -> bool:
        """Probe without fill; refresh LRU on hit."""
        set_idx, tag = self._locate(addr)
        entries = self._sets[set_idx]
        if tag in entries:
            entries.move_to_end(tag)
            return True
        return False

    def fill(self, addr: int) -> None:
        """Install the line containing ``addr``, evicting LRU if full."""
        set_idx, tag = self._locate(addr)
        entries = self._sets[set_idx]
        if tag in entries:
            entries.move_to_end(tag)
            return
        if len(entries) >= self.ways:
            entries.popitem(last=False)
        entries[tag] = None

    def contains(self, addr: int) -> bool:
        """Probe without updating LRU state."""
        set_idx, tag = self._locate(addr)
        return tag in self._sets[set_idx]

    def flush(self) -> None:
        for s in self._sets:
            s.clear()


class CacheHierarchy:
    """Private-L1 view of a chip's cache hierarchy for one core.

    ``access`` returns the level that serviced a demand access (1..3, or 4
    for DRAM) and fills all levels on the way (inclusive hierarchy).
    """

    def __init__(self, chip: ChipSpec) -> None:
        self.chip = chip
        self.levels: list[tuple[int, CacheLevel]] = [
            (1, CacheLevel(chip.l1d_bytes, chip.cache_ways, chip.cache_line))
        ]
        if chip.l2_bytes:
            self.levels.append(
                (2, CacheLevel(chip.l2_bytes, chip.cache_ways, chip.cache_line))
            )
        if chip.l3_bytes:
            self.levels.append(
                (3, CacheLevel(chip.l3_bytes, max(chip.cache_ways, 16), chip.cache_line))
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
        hit_level = 4
        for level, cache in self.levels:
            if cache.lookup(addr):
                hit_level = level
                break
        for level, cache in self.levels:
            if level <= hit_level or hit_level == 4:
                cache.fill(addr)
        self.stats.record(hit_level)
        return hit_level

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
        are bit-equal (pinned by ``tests/test_gemm_compiled.py``) -- but the
        order-invariant work is batched:

        * **same-line elision**: a demand access whose *immediately
          preceding* op is a demand access to the same cache line is a
          guaranteed L1 hit with zero net state change (the line is MRU in
          L1 after any demand access, so the lookup's ``move_to_end`` and
          the L1 re-fill are both no-ops, and no other level is touched).
          Those ops -- the unit-stride lane loads inside a vector tile, the
          bulk of a GEMM stream -- are resolved entirely in NumPy.  Any
          intervening prefetch breaks elision: prefetches can rearrange LRU
          state at every level, so only a *directly* preceding demand access
          qualifies.
        * the survivors take a lean per-line path with the set/tag
          arithmetic hoisted out of :class:`CacheLevel` method calls, and
          hit-level stats are recorded once per batch via ``bincount``.

        With a fault plan installed the batch degrades to the scalar
        methods so every demand access polls the ``cache.access`` site at
        the same call index as ``PipelineModel.time_trace`` would.
        """
        n = len(addrs)
        levels = np.ones(n, np.uint8)
        if n == 0:
            return levels
        if _faults._PLAN is not None:
            # Scalar fallback: preserve per-access fault polls exactly.
            access = self.access
            prefetch = self.prefetch
            addr_list = addrs.tolist()
            kind_list = kinds.tolist()
            plevel_list = plevels.tolist()
            for i, (addr, kind) in enumerate(zip(addr_list, kind_list)):
                if kind == 1:
                    levels[i] = access(addr)
                elif kind == 2:
                    levels[i] = access(addr, is_write=True)
                else:
                    prefetch(addr, plevel_list[i])
                    levels[i] = 1
            return levels

        line_bytes = self.levels[0][1].line_bytes
        lines = addrs // line_bytes
        is_access = kinds != 3
        elided = np.zeros(n, bool)
        elided[1:] = is_access[1:] & is_access[:-1] & (lines[1:] == lines[:-1])
        kept = np.flatnonzero(~elided)

        if kept.size >= NATIVE_MIN_KEPT:
            native_out = self._consult_native(
                lines[kept], kinds[kept], plevels[kept]
            )
            if native_out is not None:
                levels[kept] = native_out
                self._record_batch(levels, is_access)
                return levels

        # (level id, sets, num_sets, ways) per level, hoisted out of the loop.
        params = [
            (lvl, c._sets, c.num_sets, c.ways) for lvl, c in self.levels
        ]
        l1 = params[0]
        l1_sets, l1_nsets = l1[1], l1[2]
        kept_lines = lines[kept].tolist()
        kept_kinds = kinds[kept].tolist()
        kept_plevels = plevels[kept].tolist()
        out = []
        append = out.append
        for line, kind, plevel in zip(kept_lines, kept_kinds, kept_plevels):
            if kind != 3:
                entries = l1_sets[line % l1_nsets]
                tag = line // l1_nsets
                if tag in entries:
                    entries.move_to_end(tag)
                    append(1)
                else:
                    # L1 missed (the probe is pure); continue from L2.
                    hit_level = 4
                    for lvl, sets, nsets, _ways in params[1:]:
                        entries = sets[line % nsets]
                        tag = line // nsets
                        if tag in entries:
                            entries.move_to_end(tag)
                            hit_level = lvl
                            break
                    for lvl, sets, nsets, ways in params:
                        if lvl <= hit_level or hit_level == 4:
                            entries = sets[line % nsets]
                            tag = line // nsets
                            if tag in entries:
                                entries.move_to_end(tag)
                            else:
                                if len(entries) >= ways:
                                    entries.popitem(last=False)
                                entries[tag] = None
                    append(hit_level)
            else:
                for lvl, sets, nsets, ways in params:
                    if lvl >= plevel:
                        entries = sets[line % nsets]
                        tag = line // nsets
                        if tag in entries:
                            entries.move_to_end(tag)
                        else:
                            if len(entries) >= ways:
                                entries.popitem(last=False)
                            entries[tag] = None
                append(1)
        levels[kept] = out
        self._record_batch(levels, is_access)
        return levels

    def _record_batch(self, levels: np.ndarray, is_access: np.ndarray) -> None:
        """Fold a batch's per-op service levels into the hit stats."""
        counts = np.bincount(levels[is_access], minlength=5)
        hits = self.stats.hits
        for lvl in (1, 2, 3, 4):
            c = int(counts[lvl])
            if c:
                hits[lvl] += c

    def _consult_native(
        self,
        lines: np.ndarray,
        kinds: np.ndarray,
        plevels: np.ndarray,
    ) -> np.ndarray | None:
        """Run the surviving-op consult loop in the cffi-built C kernel.

        The per-level OrderedDict LRU state is exported into strided slot
        arrays (LRU-first -- exactly the dict iteration order, where index 0
        is the next victim and the last entry is MRU), the integer-only
        kernel replays the stream, and the dicts are rebuilt from the
        mutated arrays.  Because every step is integer set/tag arithmetic
        with identical control flow, final cache state, per-op levels, and
        stats are bit-equal to the Python loop (pinned by
        ``tests/test_gemm_compiled.py``).  Returns ``None`` when the kernel
        is unavailable (no toolchain, ``REPRO_NATIVE=0``) or a negative
        line id appears (C division would disagree with Python floor
        division); the Python loop then serves bit-identically.
        """
        nat = _native.get_native()
        if nat is None or int(lines.min()) < 0:
            return None
        ffi, lib = nat

        n_levels = len(self.levels)
        level_id = np.empty(n_levels, np.int32)
        num_sets = np.empty(n_levels, np.int32)
        n_ways = np.empty(n_levels, np.int32)
        tag_base = np.empty(n_levels, np.int64)
        len_base = np.empty(n_levels, np.int64)
        tag_total = 0
        len_total = 0
        for li, (lvl, c) in enumerate(self.levels):
            level_id[li] = lvl
            num_sets[li] = c.num_sets
            n_ways[li] = c.ways
            tag_base[li] = tag_total
            len_base[li] = len_total
            tag_total += c.num_sets * c.ways
            len_total += c.num_sets

        # Export: pack each set's tags (LRU-first) into its strided slot.
        tags = np.zeros(tag_total, np.int64)
        set_len = np.empty(len_total, np.int32)
        for li, (lvl, c) in enumerate(self.levels):
            flat: list[int] = []
            extend = flat.extend
            lens_list: list[int] = []
            lens_append = lens_list.append
            for entries in c._sets:
                lens_append(len(entries))
                extend(entries)
            lens = np.array(lens_list, np.int32)
            base = int(len_base[li])
            set_len[base : base + c.num_sets] = lens
            if flat:
                start = np.cumsum(lens, dtype=np.int64)
                start -= lens
                pos = np.repeat(
                    np.arange(c.num_sets, dtype=np.int64) * c.ways - start,
                    lens,
                ) + np.arange(len(flat), dtype=np.int64)
                tags[int(tag_base[li]) + pos] = np.array(flat, np.int64)

        out = np.empty(lines.size, np.uint8)
        lib.repro_consult(
            lines.size,
            ffi.from_buffer("int64_t[]", np.ascontiguousarray(lines, np.int64)),
            ffi.from_buffer("uint8_t[]", np.ascontiguousarray(kinds, np.uint8)),
            ffi.from_buffer("uint8_t[]", np.ascontiguousarray(plevels, np.uint8)),
            n_levels,
            ffi.from_buffer("int32_t[]", level_id),
            ffi.from_buffer("int32_t[]", num_sets),
            ffi.from_buffer("int32_t[]", n_ways),
            ffi.from_buffer("int64_t[]", tag_base),
            ffi.from_buffer("int64_t[]", len_base),
            ffi.from_buffer("int64_t[]", tags),
            ffi.from_buffer("int32_t[]", set_len),
            ffi.from_buffer("uint8_t[]", out),
        )

        # Import: rebuild each level's OrderedDicts from the mutated arrays.
        for li, (lvl, c) in enumerate(self.levels):
            base = int(len_base[li])
            lens = set_len[base : base + c.num_sets]
            total = int(lens.sum())
            start = np.cumsum(lens, dtype=np.int64)
            start -= lens
            pos = np.repeat(
                np.arange(c.num_sets, dtype=np.int64) * c.ways - start, lens
            ) + np.arange(total, dtype=np.int64)
            packed = iter(tags[int(tag_base[li]) + pos].tolist())
            fromkeys = OrderedDict.fromkeys
            c._sets = [
                fromkeys(islice(packed, ln)) for ln in lens.tolist()
            ]

        telemetry.count("replay.consult_native")
        return out

    def prefetch(self, addr: int, target_level: int = 1) -> None:
        """Warm the line into ``target_level`` and below (PLDL1KEEP/PLDL2KEEP)."""
        for level, cache in self.levels:
            if level >= target_level:
                cache.fill(addr)
        # L1 prefetch should also fill L1 itself when target_level == 1;
        # the loop above already does (level >= 1 covers all levels).

    def warm_range(self, base: int, nbytes: int, level: int = 1) -> None:
        """Pre-load a contiguous byte range into the hierarchy (pre-warmed
        working set for kernel-in-cache timing scenarios)."""
        line = self.chip.cache_line
        start = base // line * line
        for addr in range(start, base + nbytes, line):
            self.prefetch(addr, level)

    def flush(self) -> None:
        for _, cache in self.levels:
            cache.flush()
        self.stats = CacheStats()
